"""Regression: mutating a mapping after scheme construction must not
leave a scheme translating through stale snapshots.

Before the ``FrozenMapping``/version plumbing, every scheme copied the
page table (``mapping.as_dict()``) and OS-side views (promotions, range
tables, anchor directories) into private dicts at construction time and
never looked back — a mapping mutated afterwards silently diverged from
what the scheme translated.  Schemes now track ``mapping.version`` and
resynchronise on the next ``translate``/epoch boundary.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PageFaultError
from repro.params import MachineConfig, TLBGeometry
from repro.schemes.registry import make_scheme, scheme_names
from repro.sim.engine import run_trace
from repro.sim.trace import Trace
from repro.vmos.mapping import MemoryMapping
from repro.vmos.vma import VMA

TINY = MachineConfig(
    l1_4k=TLBGeometry(8, 2),
    l1_2m=TLBGeometry(4, 2),
    l2=TLBGeometry(32, 4),
)


def make_mapping() -> MemoryMapping:
    mapping = MemoryMapping(vmas=[VMA(0x1000, 1024)])
    for i in range(900):
        mapping.map_page(0x1000 + i, 0x9000 + i)
    return mapping


ALL_SCHEMES = scheme_names(include_extras=True)


class TestMappingVersionSync:
    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_remap_visible_to_translate(self, scheme_name):
        """Remapping a page to a new frame after construction (and after
        the scheme has warmed its caches) must show up in translate()."""
        mapping = make_mapping()
        scheme = make_scheme(scheme_name, mapping, TINY)
        assert scheme.translate(0x1010) == 0x9010
        mapping.unmap_page(0x1010)
        mapping.map_page(0x1010, 0xFFFF0)
        assert scheme.translate(0x1010) == 0xFFFF0

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_new_page_visible_to_translate(self, scheme_name):
        mapping = make_mapping()
        scheme = make_scheme(scheme_name, mapping, TINY)
        new_vpn = 0x1000 + 950  # inside the VMA, not yet mapped
        with pytest.raises(PageFaultError):
            scheme.translate(new_vpn)
        mapping.map_page(new_vpn, 0xABCDE)
        assert scheme.translate(new_vpn) == 0xABCDE

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    @pytest.mark.parametrize("engine", ("scalar", "batched"))
    def test_remap_visible_to_simulation(self, scheme_name, engine):
        """A mutation between two run_trace() calls must be honoured by
        the next epoch (both engines resync at epoch boundaries)."""
        mapping = make_mapping()
        scheme = make_scheme(scheme_name, mapping, TINY)
        warm = Trace(np.arange(0x1000, 0x1000 + 256, dtype=np.int64), 768, "w")
        run_trace(scheme, warm, epoch_references=128, engine=engine)
        mapping.unmap_page(0x1020)
        mapping.map_page(0x1020, 0x77777)
        probe = Trace(np.full(16, 0x1020, dtype=np.int64), 48, "p")
        run_trace(scheme, probe, epoch_references=8, engine=engine)
        assert scheme.translate(0x1020) == 0x77777

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_unmap_faults_after_sync(self, scheme_name):
        mapping = make_mapping()
        scheme = make_scheme(scheme_name, mapping, TINY)
        assert scheme.translate(0x1005) == 0x9005
        mapping.unmap_page(0x1005)
        with pytest.raises(PageFaultError):
            scheme.translate(0x1005)

    def test_version_counter_bumps_once_per_mutation(self):
        mapping = make_mapping()
        v0 = mapping.version
        mapping.map_page(0x1000 + 950, 0x1)
        assert mapping.version == v0 + 1
        mapping.unmap_page(0x1000 + 950)
        assert mapping.version == v0 + 2
        mapping.set_protection(0x1000, 1, 0b01)
        assert mapping.version == v0 + 3

    def test_frozen_cached_per_version(self):
        mapping = make_mapping()
        frozen_a = mapping.frozen()
        assert mapping.frozen() is frozen_a
        mapping.map_page(0x1000 + 950, 0x2)
        frozen_b = mapping.frozen()
        assert frozen_b is not frozen_a
        assert frozen_b.version == mapping.version
