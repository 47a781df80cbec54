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
    """A mapping of random chunks: sizes, virtual gaps, physical phases,
    and sometimes one chunk far past the rest (VPN >= 2**28), which puts
    every page-keyed index over the mapping past its table bound."""
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
    if draw(st.booleans()):
        far = draw(st.integers(1 << 28, (1 << 28) + 4096))
        mapping.map_run(far, FrameRange(pfn_cursor + draw(st.integers(1, 600)),
                                        draw(st.integers(1, 600))))
    return mapping


def split_line_mapping():
    """vpn 0-3 -> pfn 100-103 and vpn 4-7 -> pfn 200-203: one PTE line
    (and one cluster) holding two contiguity runs."""
    mapping = MemoryMapping()
    mapping.map_run(0, FrameRange(100, 4))
    mapping.map_run(4, FrameRange(200, 4))
    return mapping


def hw_state(scheme) -> dict:
    """Stats and every stateful structure a scheme owns, LRU order and
    all (anchor L2s dump their underlying array)."""
    state: dict = {"stats": scheme.stats.snapshot(), "l1": scheme.l1.state()}
    for attr in ("l2", "l2_giga", "regular"):
        obj = getattr(scheme, attr, None)
        if obj is not None:
            state[attr] = getattr(obj, "array", obj).state()
    if hasattr(scheme, "clustered"):
        state["clustered"] = scheme.clustered.array.state()
    if hasattr(scheme, "range_tlb"):
        state["range"] = list(scheme.range_tlb._entries.items())
    if hasattr(scheme, "_prefetched"):
        state["prefetched"] = sorted(scheme._prefetched)
        state["prefetch"] = (scheme.prefetches_issued, scheme.prefetch_hits)
    if scheme.pwc is not None:
        state["pwc"] = (scheme.pwc.state(), scheme.pwc.hits,
                        scheme.pwc.probes)
    return state


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

    @pytest.mark.parametrize("scheme_name", scheme_names(include_extras=True))
    @given(data=mapping_and_trace(), pwc=st.booleans(),
           fault_at=st.one_of(st.none(), st.integers(0, 119)))
    @settings(max_examples=20, deadline=None)
    def test_batched_matches_scalar(self, scheme_name, data, pwc, fault_at):
        """Every batched scheme replays bit-identically: counters,
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
            outputs.append({"faulted": faulted, **hw_state(scheme)})
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

    @pytest.mark.parametrize(
        "scheme_name", ("anchor-dyn", "anchor-static", "anchor-region"))
    @given(mapping=random_mapping(), distance_log=st.integers(1, 4),
           pwc=st.booleans(), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_incremental_os_updates_batched_matches_scalar(
            self, scheme_name, mapping, distance_log, pwc, data):
        """OS updates between blocks: the same random ``unmap_page``,
        ``map_page`` (a hole back at its own frame or a shifted one) and
        ``protect_page`` on twin schemes, one replaying each block
        through ``access_block`` and the other through ``access``.
        Incremental shootdowns leave stale survivors in the L2 (drifted
        entries, and small entries for pages a merge has since
        anchored), so the batched scheme runs its blocks through the
        scalar loop until a replan; every block must still end
        bit-identical.
        anchor-region runs two explicit regions split inside the
        window, so the second one starts off its distance alignment."""
        import dataclasses

        from repro.schemes.anchor_scheme import AnchorScheme
        from repro.schemes.region_anchor_scheme import RegionAnchorScheme
        from repro.vmos.mapping import DEFAULT_PROT
        from repro.vmos.regions import AnchorRegion

        machine = dataclasses.replace(TINY, pwc=True) if pwc else TINY
        # Blocks and victims share one small window of pages, so the
        # entries an update leaves behind are still resident when the
        # next block probes them.
        pages = [vpn for vpn, _ in mapping.items()]
        first = data.draw(st.integers(0, len(pages) - 1))
        focus = pages[first:first + 24]
        cut = data.draw(st.sampled_from(focus)) + data.draw(st.integers(0, 3))
        regions = [
            AnchorRegion(pages[0], cut, 1 << distance_log),
            AnchorRegion(cut, pages[-1] + 1, 1 << data.draw(st.integers(1, 4))),
        ]
        twins = []
        for _ in range(2):
            twin = MemoryMapping()
            for vpn, pfn in mapping.items():
                twin.map_page(vpn, pfn, mapping.protection_of(vpn))
            if scheme_name == "anchor-region":
                twins.append(RegionAnchorScheme(twin, machine, regions=regions))
            else:
                distance = (None if scheme_name == "anchor-dyn"
                            else 1 << distance_log)
                twins.append(AnchorScheme(twin, machine, distance=distance,
                                          enable_thp=False))
        batched, scalar = twins
        holes: list[tuple[int, int]] = []
        for _ in range(data.draw(st.integers(1, 12))):
            window = [vpn for vpn in focus if vpn in batched.mapping]
            if window:
                picks = data.draw(st.lists(st.sampled_from(window),
                                           min_size=1, max_size=60))
                batched.access_block(np.asarray(picks, dtype=np.int64))
                for vpn in picks:
                    scalar.access(vpn)
            assert hw_state(batched) == hw_state(scalar)
            if data.draw(st.booleans()):
                # Force the next block's probes past the L1 to the L2
                # entries the update below may leave stale.
                for scheme in twins:
                    scheme.l1.flush()
            plans = (batched._directories if scheme_name == "anchor-region"
                     else [batched.directory])
            leaves = [vpn for vpn in window
                      if any(vpn in plan.small for plan in plans)]
            protected = sorted(v for plan in plans for v in plan.protections)
            op = data.draw(st.sampled_from(
                ("unmap", "map", "map", "protect", "unprotect")))
            if op == "map" and holes:
                vpn, pfn = holes.pop(data.draw(st.integers(0, len(holes) - 1)))
                pfn += data.draw(st.sampled_from((0, 0, 1, 7)))
                for scheme in twins:
                    scheme.map_page(vpn, pfn)
            elif op == "unmap" and leaves:
                vpn = data.draw(st.sampled_from(leaves))
                holes.append((vpn, batched.unmap_page(vpn)))
                scalar.unmap_page(vpn)
            elif op == "unprotect" and protected:
                vpn = data.draw(st.sampled_from(protected))
                for scheme in twins:
                    scheme.protect_page(vpn, DEFAULT_PROT)
            elif leaves:
                vpn = data.draw(st.sampled_from(leaves))
                for scheme in twins:
                    scheme.protect_page(vpn, 0b01)
        assert hw_state(batched) == hw_state(scalar)

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
