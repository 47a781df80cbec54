"""Golden parity: the batched engine must be bit-identical to scalar.

Every registered scheme is driven over the same trace by both engines;
counters must match exactly, and for the schemes with optimised
``access_block`` overrides the final hardware state (every set's entries
in LRU order) must match too — the batched path is a faster evaluation
of the same machine, not an approximation.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.frames import FrameRange
from repro.params import DEFAULT_MACHINE, MachineConfig, TLBGeometry
from repro.schemes.base import TranslationScheme
from repro.schemes.registry import make_scheme, scheme_names
from repro.sim.engine import DEFAULT_EPOCH_REFERENCES, SimulationResult, run_trace
from repro.sim.trace import Trace
from repro.vmos.mapping import MemoryMapping
from repro.vmos.scenarios import build_mapping
from repro.vmos.vma import AllocationSite, layout_vmas

#: schemes with a vectorised access_block (state must also match).
#: Since the universal-engine work this is every registered scheme.
OPTIMIZED = set(scheme_names(include_extras=True))

SCENARIOS = ("demand", "eager", "low")

#: A machine with every TLB level shrunk (1 GiB levels included), so a
#: handful of references already shares sets between tenants.
TINY_ALL_LEVELS = MachineConfig(
    l1_4k=TLBGeometry(8, 2),
    l1_2m=TLBGeometry(4, 2),
    l1_1g=TLBGeometry(4, 2),
    l2_1g=TLBGeometry(4, 2),
    l2=TLBGeometry(16, 4),
)


def parity_vmas():
    return layout_vmas([
        AllocationSite(1024, 1),
        AllocationSite(64, 4),
        AllocationSite(8, 8),
    ])


#: schemes whose batched path runs under a nonzero ASID.
TAG_SAFE = [
    name for name in sorted(OPTIMIZED)
    if make_scheme(
        name, build_mapping(parity_vmas(), "low", seed=3)).tag_safe_block
]


def mapped_trace(mapping, references, seed):
    """A trace over mapped pages only (no faults — both engines finish)."""
    rng = np.random.default_rng(seed)
    vpns = np.fromiter((vpn for vpn, _ in mapping.items()), dtype=np.int64)
    picks = vpns[rng.integers(0, vpns.size, size=references)]
    return Trace(picks, references * 3, "parity")


def l2_state(scheme):
    l2 = getattr(scheme, "l2", None)
    if l2 is None:
        return None
    array = getattr(l2, "array", l2)
    return array.state() if hasattr(array, "state") else None


def hw_state(scheme):
    """Every piece of stateful hardware a scheme owns, LRU order and all."""
    state = {"l1": scheme.l1.state(), "l2": l2_state(scheme)}
    if hasattr(scheme, "l2_giga"):
        state["l2_giga"] = scheme.l2_giga.state()
    if hasattr(scheme, "regular"):
        state["regular"] = scheme.regular.state()
    if hasattr(scheme, "clustered"):
        state["clustered"] = scheme.clustered.array.state()
    if hasattr(scheme, "range_tlb"):
        state["range_tlb"] = list(scheme.range_tlb._entries.items())
    if hasattr(scheme, "_prefetched"):
        state["prefetched"] = sorted(scheme._prefetched)
        state["prefetch"] = (scheme.prefetches_issued, scheme.prefetch_hits)
    if scheme.pwc is not None:
        state["pwc"] = scheme.pwc.state()
        state["pwc_counters"] = (scheme.pwc.hits, scheme.pwc.probes)
    return state


def run_engine(scheme_name, mapping, trace, machine, engine, epoch):
    scheme = make_scheme(scheme_name, mapping, machine)
    result = run_trace(scheme, trace, epoch_references=epoch, engine=engine)
    return scheme, result


class TestGoldenParity:
    @pytest.mark.parametrize("scheme_name", scheme_names(include_extras=True))
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_scalar_batched_identical(self, scheme_name, scenario, tiny_machine):
        mapping = build_mapping(parity_vmas(), scenario, seed=13)
        trace = mapped_trace(mapping, 6000, seed=17)
        outputs = {}
        for engine in ("scalar", "batched"):
            scheme, result = run_engine(
                scheme_name, mapping, trace, tiny_machine, engine, epoch=2500)
            outputs[engine] = (
                scheme.stats.snapshot(),
                result.epoch_stats,
                hw_state(scheme),
            )
        assert outputs["batched"] == outputs["scalar"]

    @pytest.mark.parametrize("scheme_name", sorted(OPTIMIZED))
    def test_full_machine_parity(self, scheme_name):
        mapping = build_mapping(parity_vmas(), "demand", seed=5)
        trace = mapped_trace(mapping, 20_000, seed=23)
        outputs = {}
        for engine in ("scalar", "batched"):
            scheme, result = run_engine(
                scheme_name, mapping, trace, DEFAULT_MACHINE, engine,
                epoch=8000)
            outputs[engine] = (
                scheme.stats.snapshot(), result.epoch_stats,
                hw_state(scheme))
        assert outputs["batched"] == outputs["scalar"]

    @pytest.mark.parametrize("scheme_name", sorted(OPTIMIZED))
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_pwc_parity(self, scheme_name, scenario, tiny_machine):
        """With page-walk caches on, the batched PWC model must match the
        scalar one access for access — counters and per-level LRU state."""
        machine = dataclasses.replace(tiny_machine, pwc=True)
        mapping = build_mapping(parity_vmas(), scenario, seed=29)
        trace = mapped_trace(mapping, 6000, seed=31)
        outputs = {}
        for engine in ("scalar", "batched"):
            scheme, result = run_engine(
                scheme_name, mapping, trace, machine, engine, epoch=2500)
            assert scheme.pwc is not None
            outputs[engine] = (
                scheme.stats.snapshot(), result.epoch_stats, hw_state(scheme))
        assert outputs["batched"] == outputs["scalar"]
        # PWC runs charge per-step walk cycles, so the walks must have
        # recorded their page-table accesses.
        if outputs["batched"][0]["walks"]:
            assert outputs["batched"][0]["walk_pt_accesses"] > 0

    @pytest.mark.parametrize("scheme_name", sorted(OPTIMIZED))
    def test_no_scalar_fallback_with_pwc(self, scheme_name, tiny_machine,
                                         monkeypatch):
        """Fault-free blocks must stay on the fast path even with the PWC
        enabled — no scheme may silently fall back to the scalar loop."""
        calls = []

        def spy(self, vpns):
            calls.append(self.name)
            for vpn in vpns.tolist():
                self.access(int(vpn))

        monkeypatch.setattr(TranslationScheme, "access_block", spy)
        machine = dataclasses.replace(tiny_machine, pwc=True)
        mapping = build_mapping(parity_vmas(), "demand", seed=37)
        trace = mapped_trace(mapping, 4000, seed=41)
        scheme = make_scheme(scheme_name, mapping, machine)
        run_trace(scheme, trace, epoch_references=1000, engine="batched")
        assert calls == []

    @pytest.mark.parametrize("scheme_name", sorted(OPTIMIZED))
    def test_fault_mid_block_parity(self, scheme_name, tiny_machine):
        """An unmapped page mid-block: both engines must raise the page
        fault at the same reference with identical stats and state."""
        from repro.errors import PageFaultError

        mapping = build_mapping(parity_vmas(), "demand", seed=43)
        vpns = np.fromiter((vpn for vpn, _ in mapping.items()), dtype=np.int64)
        unmapped = int(vpns.max()) + 100_000
        rng = np.random.default_rng(47)
        picks = vpns[rng.integers(0, vpns.size, size=900)]
        picks[700] = unmapped  # fault mid-way through an epoch block
        trace = Trace(picks, 2700, "faulty")
        outputs = {}
        for engine in ("scalar", "batched"):
            scheme = make_scheme(scheme_name, mapping, tiny_machine)
            with pytest.raises(PageFaultError):
                run_trace(scheme, trace, epoch_references=400, engine=engine)
            outputs[engine] = (scheme.stats.snapshot(), hw_state(scheme))
        assert outputs["batched"] == outputs["scalar"]

    @settings(max_examples=12, deadline=None)
    @given(
        epoch=st.integers(min_value=1, max_value=6001),
        scheme_name=st.sampled_from(sorted(OPTIMIZED)),
    )
    def test_arbitrary_epoch_boundaries(self, epoch, scheme_name):
        """Chunking must be invisible: any epoch size — from one
        reference per block to the whole trace in one block — produces
        the same final counters and hardware state as the scalar run."""
        from repro.params import MachineConfig, TLBGeometry

        tiny_machine = MachineConfig(
            l1_4k=TLBGeometry(8, 2),
            l1_2m=TLBGeometry(4, 2),
            l2=TLBGeometry(32, 4),
        )
        mapping = build_mapping(parity_vmas(), "demand", seed=53)
        trace = mapped_trace(mapping, 3000, seed=59)
        outputs = {}
        for engine, e in (("scalar", 3000), ("batched", epoch)):
            scheme, _ = run_engine(
                scheme_name, mapping, trace, tiny_machine, engine, epoch=e)
            outputs[engine] = (scheme.stats.snapshot(), hw_state(scheme))
        assert outputs["batched"] == outputs["scalar"]

    @pytest.mark.parametrize("scheme_name", TAG_SAFE)
    def test_tagged_parity(self, scheme_name, tiny_machine):
        """Tag-safe schemes under a nonzero ASID: the batched engine
        must pack the tag into every structure exactly as the scalar
        path does — counters and per-set (tagged) LRU state match."""
        machine = dataclasses.replace(tiny_machine, pwc=True)
        mapping = build_mapping(parity_vmas(), "demand", seed=61)
        trace = mapped_trace(mapping, 6000, seed=67)
        outputs = {}
        for engine in ("scalar", "batched"):
            scheme = make_scheme(scheme_name, mapping, machine)
            scheme.set_asid(5)
            result = run_trace(scheme, trace, epoch_references=2500,
                               engine=engine)
            outputs[engine] = (
                scheme.stats.snapshot(), result.epoch_stats, hw_state(scheme))
        assert outputs["batched"] == outputs["scalar"]

    @pytest.mark.parametrize("machine", [DEFAULT_MACHINE, TINY_ALL_LEVELS],
                             ids=["default", "tiny"])
    @pytest.mark.parametrize("scheme_name", TAG_SAFE)
    def test_asid_zero_beside_other_tags(self, scheme_name, machine):
        """A tenant under ASID 0 shares the TLBs with another tag's
        resident entries.  The batched engine must leave those entries
        alone — value and place — exactly as the scalar loop does,
        never resolving their tag-packed keys through ``value_of``."""
        mapping = MemoryMapping()
        mapping.map_run(0, FrameRange(1000, 64))
        first = np.arange(0, 64, 3, dtype=np.int64)
        steps = [(1, first), (0, first[:2]),
                 (1, np.arange(1, 64, 5, dtype=np.int64))]
        outputs = {}
        for engine in ("scalar", "batched"):
            scheme = make_scheme(scheme_name, mapping, machine)
            for asid, vpns in steps:
                scheme.set_asid(asid)
                if engine == "batched":
                    scheme.access_block(vpns)
                else:
                    for vpn in vpns.tolist():
                        scheme.access(vpn)
            outputs[engine] = (scheme.stats.snapshot(), hw_state(scheme))
        assert outputs["batched"] == outputs["scalar"]

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        scheme_name=st.sampled_from(sorted(OPTIMIZED)),
    )
    def test_property_random_traces(self, seed, scheme_name):
        # Small page universe + tiny machine: evictions, residual LRU
        # walks and anchor refills all trigger within a short trace.
        from repro.params import MachineConfig, TLBGeometry

        tiny_machine = MachineConfig(
            l1_4k=TLBGeometry(8, 2),
            l1_2m=TLBGeometry(4, 2),
            l2=TLBGeometry(32, 4),
        )
        mapping = build_mapping(parity_vmas(), "medium", seed=3)
        vpns = np.fromiter(
            (vpn for vpn, _ in mapping.items()), dtype=np.int64)
        rng = np.random.default_rng(seed)
        hot = vpns[: max(8, vpns.size // 64)]
        picks = np.where(
            rng.random(3000) < 0.5,
            hot[rng.integers(0, hot.size, size=3000)],
            vpns[rng.integers(0, vpns.size, size=3000)],
        )
        trace = Trace(picks, 9000, "prop")
        outputs = {}
        for engine in ("scalar", "batched"):
            scheme, _ = run_engine(
                scheme_name, mapping, trace, tiny_machine, engine, epoch=1000)
            outputs[engine] = (scheme.stats.snapshot(), hw_state(scheme))
        assert outputs["batched"] == outputs["scalar"]


class TestEngineAPI:
    def test_unknown_engine_rejected(self, contiguous_mapping, make_trace):
        scheme = make_scheme("base", contiguous_mapping, DEFAULT_MACHINE)
        with pytest.raises(ValueError):
            run_trace(scheme, make_trace([0x1000]), engine="vectorised")

    def test_epoch_stats_snapshots(self, contiguous_mapping, make_trace):
        scheme = make_scheme("base", contiguous_mapping, DEFAULT_MACHINE)
        trace = make_trace([0x1000 + (i % 256) for i in range(900)])
        result = run_trace(scheme, trace, epoch_references=300)
        assert len(result.epoch_stats) == 3
        assert result.epoch_stats[-1] == scheme.stats.snapshot()
        assert [s["accesses"] for s in result.epoch_stats] == [300, 600, 900]

    def test_default_epoch_size(self):
        assert DEFAULT_EPOCH_REFERENCES == 50_000

    def test_result_round_trip(self, contiguous_mapping, make_trace):
        scheme = make_scheme("base", contiguous_mapping, DEFAULT_MACHINE)
        result = run_trace(
            scheme, make_trace([0x1000, 0x1001] * 50), epoch_references=40)
        payload = result.to_dict()
        rebuilt = SimulationResult.from_dict(payload)
        assert rebuilt.to_dict() == payload
        assert rebuilt.stats.snapshot() == scheme.stats.snapshot()
        assert rebuilt.epoch_stats == result.epoch_stats

    def test_stats_round_trip(self, contiguous_mapping, make_trace):
        scheme = make_scheme("base", contiguous_mapping, DEFAULT_MACHINE)
        run_trace(scheme, make_trace([0x1000 + i for i in range(80)]))
        payload = scheme.stats.to_dict()
        from repro.sim.stats import TranslationStats

        rebuilt = TranslationStats.from_dict(payload)
        assert rebuilt.snapshot() == scheme.stats.snapshot()
        assert rebuilt.latency.l2_hit == scheme.stats.latency.l2_hit
