"""Tests for multi-region anchors (paper §4.2 future work)."""

import pytest

from repro.mem.frames import FrameRange
from repro.params import ANCHOR_DISTANCES, SCENARIO_ORDER
from repro.sim.workloads import get_workload
from repro.util.histogram import Histogram
from repro.vmos.distance import select_distance
from repro.vmos.mapping import MemoryMapping
from repro.vmos.regions import AnchorRegion, RegionTable, partition_regions
from repro.vmos.scenarios import build_mapping
from repro.vmos.vma import VMA, AllocationSite, layout_vmas


class TestRegionTable:
    def test_contains(self):
        region = AnchorRegion(10, 20, 8)
        assert 10 in region and 19 in region and 20 not in region

    def test_install_and_lookup(self):
        table = RegionTable(capacity=4)
        table.install([AnchorRegion(0, 100, 8), AnchorRegion(100, 200, 64)])
        assert table.distance_for(50, default=2) == 8
        assert table.distance_for(150, default=2) == 64
        assert table.distance_for(500, default=2) == 2

    def test_capacity_enforced(self):
        table = RegionTable(capacity=1)
        with pytest.raises(ValueError):
            table.install([AnchorRegion(0, 10, 2), AnchorRegion(10, 20, 4)])

    def test_overlap_rejected(self):
        table = RegionTable(capacity=4)
        with pytest.raises(ValueError):
            table.install([AnchorRegion(0, 15, 2), AnchorRegion(10, 20, 4)])

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RegionTable(capacity=0)


def bimodal_mapping():
    """A big contiguous VMA and several fragmented small VMAs."""
    vmas = layout_vmas([AllocationSite(4096, 1), AllocationSite(64, 6)])
    mapping = MemoryMapping(vmas=vmas)
    big = vmas[0]
    mapping.map_run(big.start_vpn, FrameRange(1 << 20, big.pages))
    cursor = 1 << 22
    for vma in vmas[1:]:
        for vpn in range(vma.start_vpn, vma.end_vpn):
            if (vpn - vma.start_vpn) % 4 == 0:
                cursor += 9
            mapping.map_page(vpn, cursor)
            cursor += 1
    return mapping, vmas


class TestPartition:
    def test_empty(self):
        assert partition_regions(MemoryMapping(), []) == []

    def test_bimodal_gets_two_distances(self):
        mapping, vmas = bimodal_mapping()
        regions = partition_regions(mapping, vmas, capacity=8)
        distances = {r.distance for r in regions}
        assert len(regions) >= 2
        assert max(distances) >= 4096
        assert min(distances) <= 8

    def test_regions_sorted_disjoint(self):
        mapping, vmas = bimodal_mapping()
        regions = partition_regions(mapping, vmas, capacity=8)
        for a, b in zip(regions, regions[1:]):
            assert a.end_vpn <= b.start_vpn

    def test_capacity_respected(self):
        mapping, vmas = bimodal_mapping()
        regions = partition_regions(mapping, vmas, capacity=2)
        assert len(regions) <= 2

    def test_adjacent_agreeing_vmas_merge(self):
        mapping, vmas = bimodal_mapping()
        regions = partition_regions(mapping, vmas, capacity=8)
        # The six fragmented small VMAs agree on a small distance and
        # should not occupy six separate regions.
        assert len(regions) < len(vmas)


def nested_loop_partition(mapping, vmas, capacity=8,
                          candidates=ANCHOR_DISTANCES):
    """The definition of :func:`partition_regions`: every VMA scans
    every chunk for the ones wholly inside it."""
    if not vmas:
        return []
    groups = []
    for vma in sorted(vmas, key=lambda v: v.start_vpn):
        histogram = Histogram()
        for chunk in mapping.chunks():
            if chunk.vpn >= vma.start_vpn and chunk.end_vpn <= vma.end_vpn:
                histogram.add(chunk.pages)
        distance = select_distance(histogram, candidates)
        if groups and select_distance(groups[-1][2], candidates) == distance:
            start, end, merged = groups[-1]
            for key, freq in histogram.items():
                merged.add(key, freq)
            groups[-1] = (start, max(end, vma.end_vpn), merged)
        else:
            groups.append((vma.start_vpn, vma.end_vpn, histogram))
    while len(groups) > capacity:
        smallest = min(range(len(groups)),
                       key=lambda i: groups[i][2].total_weight)
        lo, hi = sorted((smallest, smallest - 1 if smallest else 1))
        merged = groups[lo][2]
        for key, freq in groups[hi][2].items():
            merged.add(key, freq)
        groups[lo:hi + 1] = [
            (groups[lo][0], max(groups[lo][1], groups[hi][1]), merged)]
    return [AnchorRegion(start, end, select_distance(histogram, candidates))
            for start, end, histogram in groups]


class TestPartitionMatchesDefinition:
    """``partition_regions`` takes each VMA's chunks as one slice of the
    sorted chunk columns; the nested loop above is what it computes."""

    @pytest.mark.parametrize("scenario", SCENARIO_ORDER)
    @pytest.mark.parametrize("workload", [
        "GemsFDTD", "omnetpp", "soplex_pds", "sphinx3", "xalancbmk"])
    def test_workload_mappings(self, workload, scenario):
        vmas = get_workload(workload).vmas()
        mapping = build_mapping(vmas, scenario, seed=1)
        for capacity in (8, 2):
            assert partition_regions(mapping, vmas, capacity) == (
                nested_loop_partition(mapping, vmas, capacity))

    def test_chunks_straddling_and_outside_vmas(self):
        """A chunk across two VMAs, or past the last one, counts in no
        VMA's histogram."""
        mapping = MemoryMapping()
        mapping.map_run(0, FrameRange(1000, 30))
        mapping.map_run(50, FrameRange(5000, 100))   # straddles 100
        mapping.map_run(160, FrameRange(9000, 8))
        mapping.map_run(190, FrameRange(12000, 40))  # runs past 200
        mapping.map_run(400, FrameRange(20000, 16))  # outside every VMA
        vmas = [VMA(100, 100), VMA(0, 100)]
        regions = partition_regions(mapping, vmas)
        assert regions == nested_loop_partition(mapping, vmas)
        assert partition_regions(mapping, vmas[:1]) == (
            nested_loop_partition(mapping, vmas[:1]))

    def test_bimodal(self):
        mapping, vmas = bimodal_mapping()
        for capacity in (8, 3, 1):
            assert partition_regions(mapping, vmas, capacity) == (
                nested_loop_partition(mapping, vmas, capacity))
