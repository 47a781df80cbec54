"""Hypothesis differential testing over arbitrary random mappings.

The repository's central invariant, pushed much harder than the
scenario-based differential tests: for *any* mapping shape hypothesis
can dream up (random chunk sizes, phases, gaps, protections) and any
access order, every scheme's stateful access path must translate every
page to the ground-truth frame, conserve its statistics, and agree with
its own pure ``translate``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mem.frames import FrameRange
from repro.params import MachineConfig, TLBGeometry
from repro.schemes.registry import make_scheme, scheme_names
from repro.vmos.mapping import MemoryMapping

#: A tiny machine so hypothesis-sized traces still exercise evictions.
TINY = MachineConfig(
    l1_4k=TLBGeometry(8, 2),
    l1_2m=TLBGeometry(4, 2),
    l1_1g=TLBGeometry(4, 2),
    l2_1g=TLBGeometry(4, 2),
    l2=TLBGeometry(16, 4),
)


@st.composite
def random_mapping(draw):
    """A mapping of random chunks: sizes, virtual gaps, physical phases."""
    mapping = MemoryMapping()
    vpn = draw(st.integers(0, 2000))
    pfn_cursor = draw(st.integers(0, 5000))
    chunk_count = draw(st.integers(1, 10))
    for _ in range(chunk_count):
        size = draw(st.integers(1, 600))
        gap = draw(st.integers(1, 40))
        phase = draw(st.integers(0, 4))
        pfn_cursor += gap + phase
        mapping.map_run(vpn, FrameRange(pfn_cursor, size))
        # Occasional protection islands.
        if draw(st.booleans()) and size > 4:
            mapping.set_protection(vpn + size // 2, 1, 0b01)
        vpn += size + draw(st.integers(0, 30))
        pfn_cursor += size
    return mapping


def split_line_mapping():
    """vpn 0-3 -> pfn 100-103 and vpn 4-7 -> pfn 200-203: one PTE line
    (and one cluster) holding two contiguity runs."""
    mapping = MemoryMapping()
    mapping.map_run(0, FrameRange(100, 4))
    mapping.map_run(4, FrameRange(200, 4))
    return mapping


@st.composite
def mapping_and_trace(draw):
    mapping = draw(random_mapping())
    vpns = [vpn for vpn, _ in mapping.items()]
    indices = draw(st.lists(st.integers(0, len(vpns) - 1),
                            min_size=1, max_size=120))
    return mapping, [vpns[i] for i in indices]


class TestRandomMappingDifferential:
    @pytest.mark.parametrize("scheme_name", scheme_names(include_extras=True))
    @given(data=mapping_and_trace())
    @settings(max_examples=25, deadline=None)
    def test_access_translations_always_correct(self, scheme_name, data):
        mapping, trace = data
        scheme = make_scheme(scheme_name, mapping, TINY)
        for vpn in trace:
            scheme.access(vpn)
            assert scheme.translate(vpn) == mapping.translate(vpn)
        scheme.stats.check_conservation()

    @given(data=mapping_and_trace(), distance_log=st.integers(1, 16))
    @settings(max_examples=30, deadline=None)
    def test_anchor_all_distances_always_correct(self, data, distance_log):
        mapping, trace = data
        scheme = make_scheme(
            "anchor-static", mapping, TINY, distance=1 << distance_log
        )
        for vpn in trace:
            scheme.access(vpn)
            assert scheme.translate(vpn) == mapping.translate(vpn)
        scheme.stats.check_conservation()

    @pytest.mark.parametrize(
        "scheme_name", ("colt", "cluster", "cluster2mb", "rmm", "prefetch"))
    @given(data=mapping_and_trace(), pwc=st.booleans(),
           fault_at=st.one_of(st.none(), st.integers(0, 119)))
    @settings(max_examples=20, deadline=None)
    def test_batched_matches_scalar(self, scheme_name, data, pwc, fault_at):
        """The newly batched schemes replay bit-identically: counters,
        per-set LRU state, PWC state — including the page-fault-mid-block
        fallback, which must fault at exactly the same reference."""
        import dataclasses

        from repro.errors import PageFaultError

        mapping, trace = data
        if fault_at is not None:
            hole = max(vpn for vpn, _ in mapping.items()) + 10_000
            trace = list(trace)
            trace.insert(min(fault_at, len(trace)), hole)
        machine = dataclasses.replace(TINY, pwc=True) if pwc else TINY
        outputs = []
        for mode in ("scalar", "batched"):
            scheme = make_scheme(scheme_name, mapping, machine)
            faulted = None
            try:
                if mode == "scalar":
                    scheme.sync_mapping()
                    for vpn in trace:
                        scheme.access(vpn)
                else:
                    scheme.sync_mapping()
                    scheme.access_block(np.asarray(trace, dtype=np.int64))
            except PageFaultError:
                faulted = scheme.stats.accesses
            state = {
                "stats": scheme.stats.snapshot(),
                "faulted": faulted,
                "l1": scheme.l1.state(),
            }
            for attr in ("l2", "regular"):
                obj = getattr(scheme, attr, None)
                if obj is not None and hasattr(obj, "state"):
                    state[attr] = obj.state()
            if hasattr(scheme, "clustered"):
                state["clustered"] = scheme.clustered.array.state()
            if hasattr(scheme, "range_tlb"):
                state["range"] = list(scheme.range_tlb._entries.items())
            if hasattr(scheme, "_prefetched"):
                state["prefetched"] = sorted(scheme._prefetched)
            if scheme.pwc is not None:
                state["pwc"] = (scheme.pwc.state(), scheme.pwc.hits,
                                scheme.pwc.probes)
            outputs.append(state)
        assert outputs[0] == outputs[1]
        assert (fault_at is None) == (outputs[0]["faulted"] is None)

    @pytest.mark.parametrize(
        "scheme_name", ("colt", "cluster", "cluster2mb", "base", "thp"))
    @given(data=mapping_and_trace(), pwc=st.booleans(),
           asid=st.integers(1, 7),
           cuts=st.lists(st.integers(1, 119), max_size=4, unique=True))
    @settings(max_examples=20, deadline=None)
    # One-reference chunks: 5 hits the array entry 0 built but is not
    # covered by it, so the walk must replace the entry in place — the
    # next chunk's probe of 6 is then a coalesced hit, not a walk.
    @example(data=(split_line_mapping(), [0, 5, 6]), pwc=False, asid=1,
             cuts=[1, 2])
    def test_batched_matches_scalar_tagged_chunked(
            self, scheme_name, data, pwc, asid, cuts):
        """Tag-safe schemes under a nonzero ASID, with the trace split at
        arbitrary chunk boundaries: every ``access_block`` call starts
        from whatever state the previous chunk left (snapshots, per-set
        LRU order, PWC levels) and must still replay bit-identically —
        tag-packed keys and all."""
        import dataclasses

        mapping, trace = data
        machine = dataclasses.replace(TINY, pwc=True) if pwc else TINY
        bounds = sorted(c for c in cuts if c < len(trace))
        chunks = np.split(np.asarray(trace, dtype=np.int64),
                          bounds) if trace else []
        outputs = []
        for mode in ("scalar", "batched"):
            scheme = make_scheme(scheme_name, mapping, machine)
            assert scheme.tag_safe_block
            scheme.set_asid(asid)
            scheme.sync_mapping()
            if mode == "scalar":
                for vpn in trace:
                    scheme.access(vpn)
            else:
                for chunk in chunks:
                    if chunk.size:
                        scheme.access_block(chunk)
            state = {
                "stats": scheme.stats.snapshot(),
                "l1": scheme.l1.state(),
            }
            for attr in ("l2", "regular"):
                obj = getattr(scheme, attr, None)
                if obj is not None and hasattr(obj, "state"):
                    state[attr] = obj.state()
            if hasattr(scheme, "clustered"):
                state["clustered"] = scheme.clustered.array.state()
            if scheme.pwc is not None:
                state["pwc"] = (scheme.pwc.state(), scheme.pwc.hits,
                                scheme.pwc.probes)
            outputs.append(state)
        assert outputs[0] == outputs[1]

    @given(data=mapping_and_trace())
    @settings(max_examples=20, deadline=None)
    def test_miss_counts_bounded_by_baseline_plus_conflicts(self, data):
        """No coalescing scheme can walk more than ~the baseline does on
        the same trace with generous slack for partition/index effects."""
        mapping, trace = data
        array = np.asarray(trace, dtype=np.int64)
        results = {}
        for name in ("base", "anchor-dyn"):
            scheme = make_scheme(name, mapping, TINY)
            for vpn in array.tolist():
                scheme.access(vpn)
            results[name] = scheme.stats.walks
        assert results["anchor-dyn"] <= results["base"] + len(trace) // 4 + 8
