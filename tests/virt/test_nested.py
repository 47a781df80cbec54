"""Tests for nested (virtualized) translation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PageFaultError
from repro.mem.frames import FrameRange
from repro.params import DEFAULT_MACHINE
from repro.virt.nested import (
    NESTED_LATENCY,
    NestedAddressSpace,
    build_host_mapping,
    nested_machine,
)
from repro.vmos.contiguity import mean_chunk_pages
from repro.vmos.mapping import MemoryMapping
from repro.vmos.scenarios import build_mapping
from repro.vmos.vma import AllocationSite, layout_vmas


def simple_guest():
    guest = MemoryMapping(vmas=[])
    guest.map_run(0, FrameRange(1000, 64))
    return guest


class TestComposition:
    def test_translate_composes(self):
        guest = simple_guest()
        host = MemoryMapping()
        host.map_run(1000, FrameRange(9000, 64))
        nested = NestedAddressSpace(guest, host)
        assert nested.translate(0) == 9000
        assert nested.translate(63) == 9063

    def test_compose_matches_translate(self):
        guest = simple_guest()
        host = MemoryMapping()
        host.map_run(1000, FrameRange(9000, 64))
        composed = NestedAddressSpace(guest, host).compose()
        for gvpn in range(64):
            assert composed.translate(gvpn) == 9000 + gvpn

    def test_missing_host_page_faults(self):
        guest = simple_guest()
        host = MemoryMapping()
        host.map_run(1000, FrameRange(9000, 32))  # only half covered
        nested = NestedAddressSpace(guest, host)
        with pytest.raises(PageFaultError):
            nested.compose()
        with pytest.raises(PageFaultError):
            nested.translate(40)

    def test_host_fragmentation_splits_guest_chunk(self):
        guest = simple_guest()   # one 64-page guest chunk
        host = MemoryMapping()
        host.map_run(1000, FrameRange(9000, 32))
        host.map_run(1032, FrameRange(50_000, 32))  # physical break
        composed = NestedAddressSpace(guest, host).compose()
        assert len(composed.chunks()) == 2

    def test_guest_protections_carried(self):
        guest = simple_guest()
        guest.set_protection(8, 4, 0b01)
        host = MemoryMapping()
        host.map_run(1000, FrameRange(9000, 64))
        composed = NestedAddressSpace(guest, host).compose()
        assert composed.protection_of(8) == 0b01
        assert len(composed.chunks()) == 3

    @given(st.integers(1, 6), st.sampled_from(["low", "medium", "max"]),
           st.integers(0, 5))
    @settings(max_examples=20, deadline=None)
    def test_property_guard_separated_host_never_merges_guest_chunks(
        self, guest_pieces, host_scenario, seed
    ):
        """With guard-separated host placement (build_host_mapping), a
        guest chunk boundary survives composition: the boundary's two
        guest-physical pages live in different host regions, which are
        never physically adjacent."""
        pages = 60
        guest = MemoryMapping()
        cursor = 5000
        for i in range(guest_pieces):
            lo = i * pages // guest_pieces
            hi = (i + 1) * pages // guest_pieces
            guest.map_run(lo, FrameRange(cursor, hi - lo))
            cursor += (hi - lo) + 3
        host = build_host_mapping(guest, host_scenario, seed=seed)
        composed = NestedAddressSpace(guest, host).compose()
        assert len(composed.chunks()) >= len(guest.chunks())

    def test_host_can_heal_guest_fragmentation(self):
        """A counter-intuitive corollary pinned down here: the host may
        map discontiguous guest-physical pages to adjacent frames, so
        composition can MERGE guest chunks.  (build_host_mapping never
        does this - its regions are guard-separated - but the hardware
        semantics allow it.)"""
        guest = MemoryMapping()
        guest.map_run(0, FrameRange(1000, 4))
        guest.map_run(4, FrameRange(2000, 4))  # guest-physical break
        host = MemoryMapping()
        host.map_run(1000, FrameRange(7000, 4))
        host.map_run(2000, FrameRange(7004, 4))  # healed in host space
        composed = NestedAddressSpace(guest, host).compose()
        assert len(composed.chunks()) == 1


class TestHostMappingBuilder:
    def test_covers_guest_physical_pages(self):
        vmas = layout_vmas([AllocationSite(512, 2)])
        guest = build_mapping(vmas, "medium", seed=3)
        host = build_host_mapping(guest, "medium", seed=4)
        for _, gpfn in guest.items():
            assert gpfn in host

    def test_host_scenario_controls_composed_contiguity(self):
        vmas = layout_vmas([AllocationSite(2048, 1)])
        guest = build_mapping(vmas, "max", seed=3)
        contiguous_host = build_host_mapping(guest, "max", seed=4)
        fragmented_host = build_host_mapping(guest, "low", seed=4)
        big = NestedAddressSpace(guest, contiguous_host).compose()
        small = NestedAddressSpace(guest, fragmented_host).compose()
        assert mean_chunk_pages(small) < mean_chunk_pages(big)

    def test_empty_guest_rejected(self):
        with pytest.raises(ValueError):
            build_host_mapping(MemoryMapping(), "max")


class TestNestedMachine:
    def test_latency_override(self):
        machine = nested_machine()
        assert machine.latency.page_walk == 300
        assert machine.latency.l2_hit == DEFAULT_MACHINE.latency.l2_hit
        assert NESTED_LATENCY.page_walk == 300

    def test_schemes_run_on_composition(self):
        from repro.schemes import make_scheme, scheme_names
        from repro.sim.engine import run_trace

        vmas = layout_vmas([AllocationSite(512, 1)])
        guest = build_mapping(vmas, "medium", seed=5)
        host = build_host_mapping(guest, "medium", seed=6)
        composed = NestedAddressSpace(guest, host).compose()
        workload_vpns = [vpn for vpn, _ in composed.items()][::3]
        import numpy as np

        from repro.sim.trace import Trace
        trace = Trace(np.asarray(workload_vpns * 5, dtype=np.int64), 1000)
        machine = nested_machine()
        for name in scheme_names():
            result = run_trace(make_scheme(name, composed, machine), trace)
            result.stats.check_conservation()
            # A walk now costs 300 cycles.
            if result.stats.walks and not result.stats.walk_pt_accesses:
                assert result.stats.cycles_walk == result.stats.walks * 300
