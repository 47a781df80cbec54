"""Tests for the multi-region anchor scheme (paper §4.2)."""

import numpy as np
import pytest

from repro.errors import PageFaultError
from repro.hw.anchor_tlb import KIND_ANCHOR
from repro.mem.frames import FrameRange
from repro.schemes.anchor_scheme import AnchorScheme
from repro.schemes.region_anchor_scheme import RegionAnchorScheme
from repro.vmos.mapping import MemoryMapping
from repro.vmos.regions import AnchorRegion
from repro.vmos.vma import VMA


@pytest.fixture
def bimodal():
    """A big contiguous region next to a fragmented small one."""
    vmas = [VMA(0, 8192), VMA(8192, 1024)]
    mapping = MemoryMapping(vmas=vmas)
    mapping.map_run(0, FrameRange((1 << 22) + 1, 8192))   # phase-misaligned
    cursor = 1 << 24
    for vpn in range(8192, 9216):
        if vpn % 4 == 0:
            cursor += 3
        mapping.map_page(vpn, cursor)
        cursor += 1
    return mapping


class TestRegionScheme:
    def test_partitions_into_two_distances(self, bimodal):
        scheme = RegionAnchorScheme(bimodal)
        distances = scheme.region_distances
        assert max(distances) >= 4096
        assert min(distances) <= 8

    def test_translation_correct_everywhere(self, bimodal):
        scheme = RegionAnchorScheme(bimodal)
        for vpn, pfn in list(bimodal.items())[::257]:
            assert scheme.translate(vpn) == pfn
            scheme.access(vpn)
            assert scheme.translate(vpn) == pfn
        scheme.stats.check_conservation()

    def test_outside_regions_faults(self, bimodal):
        scheme = RegionAnchorScheme(bimodal)
        with pytest.raises(PageFaultError):
            scheme.access(1 << 30)

    def test_explicit_regions_respected(self, bimodal):
        regions = [AnchorRegion(0, 8192, 4096), AnchorRegion(8192, 9216, 4)]
        scheme = RegionAnchorScheme(bimodal, regions=regions)
        assert scheme.region_distances == [4096, 4]

    def test_capacity_enforced(self, bimodal):
        regions = [AnchorRegion(i * 16, i * 16 + 16, 2) for i in range(4)]
        with pytest.raises(ValueError):
            RegionAnchorScheme(bimodal, capacity=2, regions=regions)

    def test_overlapping_regions_rejected(self, bimodal):
        """Overlapping rows would give one VPN two distances (and the
        scalar and batched paths different picks between them)."""
        regions = [AnchorRegion(0, 8192, 4096), AnchorRegion(4096, 9216, 4)]
        with pytest.raises(ValueError, match="overlap"):
            RegionAnchorScheme(bimodal, regions=regions)

    def test_beats_single_distance_on_bimodal_access(self, bimodal):
        rng = np.random.default_rng(3)
        big = rng.integers(0, 8192, 6000)
        small = rng.integers(8192, 9216, 6000)
        vpns = np.where(rng.random(6000) < 0.5, big, small).tolist()
        single = AnchorScheme(bimodal)
        multi = RegionAnchorScheme(bimodal)
        for vpn in vpns:
            single.access(vpn)
            multi.access(vpn)
        assert multi.stats.walks <= single.stats.walks

    def test_flush(self, bimodal):
        scheme = RegionAnchorScheme(bimodal)
        scheme.access(0)
        scheme.flush()
        assert scheme.access(0) == scheme.config.latency.page_walk


class TestOffAlignmentProbe:
    @pytest.mark.parametrize("start", [5, 17], ids=["same-set", "other-set"])
    def test_neighbour_anchor_probe_matches_scalar(self, tiny_machine, start):
        """Region 2 starts off its 16-page alignment, so its first rows'
        anchor VPN is an anchor of region 1 (distance 4), resident once
        region 1 fills it.  Their probe indexes the set region 2's shift
        picks: the anchor's own set when ``start`` is 5, another set
        when it is 17.  The block path sees the key resident somewhere
        and must still end bit-identical to the scalar loop."""
        mapping = MemoryMapping()
        mapping.map_run(0, FrameRange(4096, 64))
        regions = [AnchorRegion(0, start, 4), AnchorRegion(start, 64, 16)]
        anchor = start // 16 * 16
        anchor_key = (anchor << 2) | KIND_ANCHOR
        rng = np.random.default_rng(start)
        blocks = [
            np.array([anchor + 1 if start == 5 else anchor], dtype=np.int64),
            rng.integers(start, 32, size=40),
            np.concatenate([[anchor], rng.integers(0, 64, size=80)]),
        ]
        scalar = RegionAnchorScheme(mapping, tiny_machine, regions=regions)
        batched = RegionAnchorScheme(mapping, tiny_machine, regions=regions)
        for number, block in enumerate(blocks):
            if number == 1:
                assert anchor_key in batched.l2.array.keys()
            for vpn in block.tolist():
                scalar.access(vpn)
            batched.access_block(block)
            assert batched.stats.snapshot() == scalar.stats.snapshot()
            for name, structure in scalar.structures().items():
                assert batched.structures()[name].state() == structure.state()
