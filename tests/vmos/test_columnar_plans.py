"""Differential suite: columnar mapping plans against per-page oracles.

Chunks, the ``FrozenMapping`` columns, huge/giga promotions and the
anchor directories are all derived with numpy from the sorted page
columns, and every plan is a :class:`KeyIndex`.  The per-page Python
walks they replaced live on here, and only here, as the oracle.  Every
mapping hypothesis draws (phase-aligned and misaligned chunks at 2 MiB
and 1 GiB, protection islands, unmaps, single-page holes, the empty
mapping) is built twice: one ``map_run`` per run, and all runs in one
``map_runs`` call, which keeps the mapping as columns until an edit.
For both, every derived plan and its dict view must match the oracle
in content *and* dict order, with Python ``int`` keys and values.
"""

from __future__ import annotations

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MappingError
from repro.mem.frames import FrameRange
from repro.params import (
    ANCHOR_DISTANCES,
    GIGA_PAGE_PAGES,
    HUGE_PAGE_PAGES,
    MAX_CONTIGUITY,
)
from repro.schemes.base import promote_giga_pages, promote_huge_pages
from repro.schemes.region_anchor_scheme import RegionAnchorScheme
from repro.schemes.registry import make_scheme, scheme_names
from repro.schemes.thp import THPScheme
from repro.sim.runner import mapping_digest
from repro.sim.workloads import get_workload
from repro.vmos.anchor import AnchorDirectory
from repro.vmos.mapping import DEFAULT_PROT, Chunk, KeyIndex, MemoryMapping
from repro.vmos.regions import AnchorRegion
from repro.vmos.scenarios import build_mapping

PROTS = (0b01, 0b101, 0b11)


# ---------------------------------------------------------------------------
# The oracle: the per-page derivations, one Python iteration per page
# ---------------------------------------------------------------------------


def _walk(pairs, prot_of):
    """Maximal runs of ascending ``(vpn, pfn)`` pairs, split where VPN or
    PFN skip or ``prot_of`` changes."""
    runs: list[Chunk] = []
    start_vpn = start_pfn = prev_vpn = prev_pfn = run_prot = None
    for vpn, pfn in pairs:
        prot = prot_of(vpn)
        if (start_vpn is not None and vpn == prev_vpn + 1
                and pfn == prev_pfn + 1 and prot == run_prot):
            prev_vpn, prev_pfn = vpn, pfn
            continue
        if start_vpn is not None:
            runs.append(Chunk(start_vpn, start_pfn, prev_vpn - start_vpn + 1))
        start_vpn = prev_vpn = vpn
        start_pfn = prev_pfn = pfn
        run_prot = prot
    if start_vpn is not None:
        runs.append(Chunk(start_vpn, start_pfn, prev_vpn - start_vpn + 1))
    return runs


def oracle_chunks(mapping: MemoryMapping) -> list[Chunk]:
    return _walk(list(mapping.items()), mapping.protection_of)


def oracle_runs(mapping: MemoryMapping) -> list[Chunk]:
    return _walk(list(mapping.items()), lambda vpn: DEFAULT_PROT)


def oracle_digest(mapping: MemoryMapping) -> str:
    sha = hashlib.sha256()
    for chunk in oracle_chunks(mapping):
        sha.update(f"{chunk.vpn}:{chunk.pfn}:{chunk.pages};".encode("ascii"))
    sha.update(str(len(list(mapping.items()))).encode("ascii"))
    return sha.hexdigest()


def oracle_promote(mapping: MemoryMapping, window: int):
    promoted: dict[int, int] = {}
    for chunk in oracle_chunks(mapping):
        if (chunk.pfn - chunk.vpn) % window:
            continue
        lo = (chunk.vpn + window - 1) & ~(window - 1)
        hi = chunk.end_vpn & ~(window - 1)
        for base in range(lo, hi, window):
            promoted[base] = chunk.pfn + (base - chunk.vpn)
    rest = {
        vpn: pfn for vpn, pfn in list(mapping.items())
        if (vpn & ~(window - 1)) not in promoted
    }
    return promoted, rest


def oracle_thp_promotions(mapping: MemoryMapping):
    """THP with 1 GiB pages: copy the non-giga pages into a partial
    mapping, then promote 2 MiB windows over that copy."""
    giga, rest = oracle_promote(mapping, GIGA_PAGE_PAGES)
    partial = MemoryMapping()
    for vpn, pfn in sorted(rest.items()):
        partial.map_page(vpn, pfn, mapping.protection_of(vpn))
    huge, small = oracle_promote(partial, HUGE_PAGE_PAGES)
    return giga, huge, small


def oracle_directory(mapping: MemoryMapping, distance: int, enable_thp: bool):
    huge: dict[int, int] = {}
    for chunk in oracle_chunks(mapping):
        if enable_thp and (chunk.pfn - chunk.vpn) % HUGE_PAGE_PAGES == 0:
            lo = -(-chunk.vpn // HUGE_PAGE_PAGES) * HUGE_PAGE_PAGES
            hi = chunk.end_vpn // HUGE_PAGE_PAGES * HUGE_PAGE_PAGES
            if distance >= HUGE_PAGE_PAGES:
                hi = min(hi, -(-chunk.vpn // distance) * distance)
            for hvpn in range(lo, hi, HUGE_PAGE_PAGES):
                huge[hvpn] = chunk.pfn + (hvpn - chunk.vpn)
    small: dict[int, int] = {}
    protections: dict[int, int] = {}
    for vpn, pfn in list(mapping.items()):
        if vpn // HUGE_PAGE_PAGES * HUGE_PAGE_PAGES not in huge:
            small[vpn] = pfn
            prot = mapping.protection_of(vpn)
            if prot != DEFAULT_PROT:
                protections[vpn] = prot
    anchors: dict[int, int] = {}
    runs = _walk(sorted(small.items()),
                 lambda vpn: protections.get(vpn, DEFAULT_PROT))
    for run in runs:
        first = -(-run.vpn // distance) * distance
        for avpn in range(first, run.end_vpn, distance):
            anchors[avpn] = min(run.end_vpn - avpn, MAX_CONTIGUITY)
    return huge, anchors, small, protections


def oracle_region_directories(mapping: MemoryMapping, regions):
    plans = []
    for region in regions:
        piece = MemoryMapping()
        for vpn, pfn in list(mapping.items()):
            if region.start_vpn <= vpn < region.end_vpn:
                piece.map_page(vpn, pfn, mapping.protection_of(vpn))
        plans.append(oracle_directory(piece, region.distance, True))
    return plans


# ---------------------------------------------------------------------------
# Mapping generator
# ---------------------------------------------------------------------------


@st.composite
def mappings(draw, giga: bool = False):
    """Chunks phase-aligned or misaligned at 2 MiB (or, with ``giga``,
    1 GiB), VA- and PA-adjacent or not, then protection islands,
    unmaps and single-page holes.

    Returns the mapping built by per-page mutations (one ``map_run``
    per chunk) and its twin built from the same runs in one
    ``map_runs`` call; the edits then land on both.
    """
    mapping = MemoryMapping()
    small = st.sampled_from([1, 2, 7, 511, 512, 513, 1024, 1537]) | st.integers(1, 1200)
    if giga:
        # One chunk of 1 GiB or more, then at most one small one.
        window = GIGA_PAGE_PAGES
        big = st.sampled_from([GIGA_PAGE_PAGES, GIGA_PAGE_PAGES + 513])
        count = draw(st.integers(1, 2))
    else:
        window = HUGE_PAGE_PAGES
        count = draw(st.integers(0, 6))
    vpn = draw(st.sampled_from([0, 1, window - 3, window, 3 * window + 100]))
    pfn = draw(st.integers(0, 3 * window))
    runs = []
    for index in range(count):
        pages = draw(big if giga and index == 0 else small)
        mode = draw(st.sampled_from(["aligned", "misaligned", "adjacent"]))
        if mode == "aligned":
            pfn += (vpn - pfn) % window
        elif mode == "misaligned":
            pfn += (vpn - pfn) % window + draw(st.integers(1, window - 1))
        mapping.map_run(vpn, FrameRange(pfn, pages))
        runs.append((vpn, pfn, pages))
        pfn += pages + draw(st.sampled_from([0, 1, 9]))
        vpn += pages + draw(st.sampled_from([0, 0, 1, 5, 600]))
    edits = []
    for _ in range(draw(st.integers(0, 4)) if runs else 0):
        start, _, pages = draw(st.sampled_from(runs))
        lo = start + draw(st.integers(0, pages - 1))
        hi = min(start + pages, lo + draw(st.sampled_from([1, 2, 40, 600])))
        action = draw(st.sampled_from(["protect", "unmap", "hole"]))
        ops = []
        if action == "protect":
            # An island over the mapped pages from ``lo`` on.
            pages = 0
            while lo + pages < hi and lo + pages in mapping:
                pages += 1
            if pages:
                ops.append(("set_protection",
                            (lo, pages, draw(st.sampled_from(PROTS)))))
        elif lo in mapping:
            ops.append(("unmap_page", (lo,)))
            if action == "hole":
                # Refill the hole out of phase: a single-page island.
                ops.append(("map_page", (lo, mapping.get(lo) + (1 << 40))))
        for name, args in ops:
            getattr(mapping, name)(*args)
        edits += ops
    twin = MemoryMapping()
    twin.map_runs(runs)
    for name, args in edits:
        getattr(twin, name)(*args)
    return mapping, twin


# ---------------------------------------------------------------------------
# Assertions
# ---------------------------------------------------------------------------


def assert_same_dict(actual: dict, expected: dict) -> None:
    assert list(actual.items()) == list(expected.items())
    assert all(type(k) is int and type(v) is int for k, v in actual.items())


def assert_same_index(index: KeyIndex, expected: dict) -> None:
    """A plan's columns: sorted unique int64 keys and their values."""
    assert index.keys.dtype == np.int64 and index.values.dtype == np.int64
    assert index.keys.tolist() == list(expected)
    assert index.values.tolist() == list(expected.values())
    assert_same_dict(index.table(), expected)


def assert_same_directory(directory: AnchorDirectory, expected) -> None:
    huge, anchors, small, protections = expected
    for index, want in zip(directory.indexes(), (huge, small, anchors)):
        assert_same_index(index, want)
    assert_same_dict(directory.huge, huge)
    assert_same_dict(directory.anchor_contiguity, anchors)
    assert_same_dict(directory.small, small)
    assert_same_dict(directory.protections, protections)


def check_mapping_views(mapping: MemoryMapping) -> None:
    chunks = mapping.chunks()
    assert chunks == oracle_chunks(mapping)
    assert all(type(v) is int for c in chunks for v in (c.vpn, c.pfn, c.pages))
    frozen = mapping.frozen()
    pages = list(mapping.items())
    runs = oracle_runs(mapping)
    expected = {
        "vpns": [v for v, _ in pages],
        "pfns": [p for _, p in pages],
        "chunk_vpn": [c.vpn for c in chunks],
        "chunk_pfn": [c.pfn for c in chunks],
        "chunk_pages": [c.pages for c in chunks],
        "run_vpn": [r.vpn for r in runs],
        "run_pfn": [r.pfn for r in runs],
        "run_pages": [r.pages for r in runs],
    }
    for column, values in expected.items():
        array = getattr(frozen, column)
        assert array.dtype.kind == "i", column
        assert array.tolist() == values, column
    assert mapping_digest(mapping) == oracle_digest(mapping)


def check_promotions(mapping: MemoryMapping) -> None:
    for promote, window in ((promote_huge_pages, HUGE_PAGE_PAGES),
                            (promote_giga_pages, GIGA_PAGE_PAGES)):
        promoted, rest = promote(mapping)
        want_promoted, want_rest = oracle_promote(mapping, window)
        assert_same_index(promoted, want_promoted)
        assert_same_index(rest, want_rest)
    thp1g = THPScheme(mapping, use_giga=True)
    giga, huge, small = oracle_thp_promotions(mapping)
    for index, want in zip(thp1g._memberships, (small, huge, giga)):
        assert_same_index(index, want)
    assert_same_dict(thp1g._giga, giga)
    assert_same_dict(thp1g._huge, huge)
    assert_same_dict(thp1g._small, small)


def check_twins(twins) -> None:
    """Both builds are the same mapping and derive the same plans."""
    mapping, twin = twins
    assert twin == mapping and mapping == twin
    assert list(twin.items()) == list(mapping.items())
    assert len(twin) == len(mapping) == twin.mapped_pages
    assert mapping_digest(twin) == mapping_digest(mapping)
    for built in twins:
        check_mapping_views(built)
        check_promotions(built)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


class TestColumnarPlans:
    @given(twins=mappings())
    @settings(max_examples=60, deadline=None)
    def test_mapping_views_and_promotions(self, twins):
        check_twins(twins)

    @given(twins=mappings(), enable_thp=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_anchor_directory_every_distance(self, twins, enable_thp):
        for mapping in twins:
            for distance in ANCHOR_DISTANCES:
                assert_same_directory(
                    AnchorDirectory.build(mapping, distance, enable_thp),
                    oracle_directory(mapping, distance, enable_thp))

    @given(twins=mappings(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_region_anchor_directories(self, twins, data):
        if not len(twins[0]):
            return
        vpns = twins[0].frozen().vpns
        lo, hi = int(vpns[0]), int(vpns[-1]) + 1
        cuts = sorted(set(data.draw(
            st.lists(st.integers(lo, hi), min_size=0, max_size=7))) | {lo, hi})
        regions = [
            AnchorRegion(a, b, data.draw(st.sampled_from(ANCHOR_DISTANCES)))
            for a, b in zip(cuts, cuts[1:])
        ]
        for mapping in twins:
            scheme = RegionAnchorScheme(mapping, regions=regions)
            assert len(scheme._directories) == len(regions)
            for directory, expected in zip(
                    scheme._directories,
                    oracle_region_directories(mapping, regions)):
                assert_same_directory(directory, expected)
            # Without VMA metadata one region spans the whole mapping.
            fallback = RegionAnchorScheme(mapping)
            assert [(r.start_vpn, r.end_vpn) for r in fallback.regions] == [(lo, hi)]
            assert_same_directory(
                fallback._directories[0],
                oracle_region_directories(mapping, fallback.regions)[0])

    @given(twins=mappings(giga=True), distance=st.sampled_from(ANCHOR_DISTANCES))
    @settings(max_examples=3, deadline=None)
    def test_gigabyte_layouts(self, twins, distance):
        check_twins(twins)
        for mapping in twins:
            assert_same_directory(
                AnchorDirectory.build(mapping, distance),
                oracle_directory(mapping, distance, True))

    def test_empty_mapping(self):
        twin = MemoryMapping()
        twin.map_runs([])
        check_twins((MemoryMapping(), twin))
        for mapping in (MemoryMapping(), twin):
            for distance in ANCHOR_DISTANCES:
                for enable_thp in (True, False):
                    assert_same_directory(
                        AnchorDirectory.build(mapping, distance, enable_thp),
                        oracle_directory(mapping, distance, enable_thp))

    @pytest.mark.parametrize("phase", [0, 1])
    def test_one_gigabyte_chunk_promotes_exactly_when_phase_matches(self, phase):
        mapping = MemoryMapping()
        mapping.map_run(GIGA_PAGE_PAGES - 5,
                        FrameRange(GIGA_PAGE_PAGES - 5 + phase, GIGA_PAGE_PAGES + 700))
        giga, _ = promote_giga_pages(mapping)
        assert giga.keys.tolist() == ([GIGA_PAGE_PAGES] if phase == 0 else [])
        check_promotions(mapping)

    def test_unpromoted_plans_reuse_the_page_index(self):
        """Nothing promoted: the 4 KiB side is the page index itself."""
        mapping = MemoryMapping()
        mapping.map_runs([(0, 3, 600), (700, 9000, 5)])
        index = mapping.frozen().index
        assert promote_huge_pages(mapping)[1] is index
        assert AnchorDirectory.build(mapping, 8, enable_thp=False).indexes()[1] is index


class TestColumnBirth:
    def test_overlapping_runs_map_nothing(self):
        mapping = MemoryMapping()
        with pytest.raises(MappingError, match="0xe already mapped"):
            mapping.map_runs([(14, 0, 4), (10, 100, 8), (40, 500, 2)])
        assert len(mapping) == 0 and mapping.version == 0
        assert list(mapping.items()) == []
        mapping.map_runs([(10, 100, 8), (40, 500, 2)])
        frozen, version = mapping.frozen(), mapping.version
        # Into a mapped page: all or nothing again, through the dict.
        with pytest.raises(MappingError, match="0x29 already mapped"):
            mapping.map_runs([(30, 900, 4), (41, 950, 3)])
        assert mapping.version == version and mapping.frozen() is frozen
        assert list(mapping.items()) == (
            [(v, 100 + v - 10) for v in range(10, 18)] + [(40, 500), (41, 501)])

    def test_column_born_equals_dict_born(self):
        runs = [(512, 4096, 600), (0, 77, 300), (2000, 9000, 1)]
        born = MemoryMapping()
        born.map_runs(runs)
        assert born._map is None
        twin = MemoryMapping()
        for vpn, pfn, pages in runs:
            twin.map_run(vpn, FrameRange(pfn, pages))
        assert born == twin and twin == born
        assert born._map is None  # equality reads the columns
        twin.unmap_page(2000)
        assert born != twin
        twin.map_page(2000, 9000)
        assert born == twin
        assert list(born.items()) == list(twin.items())
        assert born.frozen().vpns is born._vpns  # adopted, not recompiled

    @pytest.mark.parametrize("scenario", ["low", "medium", "max", "demand", "eager"])
    def test_builders_hand_over_runs(self, scenario):
        """No scenario builder maps page by page: each hands its runs
        to the mapping in one call, and no page dict is built."""
        vmas = get_workload("omnetpp").vmas()
        with mock.patch.object(MemoryMapping, "map_run", side_effect=AssertionError), \
                mock.patch.object(MemoryMapping, "map_page", side_effect=AssertionError):
            mapping = build_mapping(vmas, scenario, seed=3)
        assert mapping._map is None
        assert len(mapping) == sum(vma.pages for vma in vmas)

    @pytest.mark.parametrize(
        "name", [n for n in scheme_names(include_extras=True) if n != "prefetch"])
    def test_batched_path_builds_no_page_dict(self, name):
        """Construction, cloning and the block path read only columns;
        a scalar read or a mutation then builds the page dict."""
        for touch in ("read", "mutate"):
            mapping = build_mapping(get_workload("omnetpp").vmas(), "medium", seed=5)
            scheme = make_scheme(name, mapping)
            clone = scheme.clone_fresh()
            vpns = mapping.frozen().vpns
            block = vpns[np.random.default_rng(1).integers(0, vpns.size, 4000)]
            scheme.access_block(block)
            clone.access_block(block)
            assert mapping._map is None, name
            if touch == "read":
                assert mapping.get(int(vpns[0])) is not None
            else:
                mapping.unmap_page(int(vpns[0]))
            assert mapping._map is not None
