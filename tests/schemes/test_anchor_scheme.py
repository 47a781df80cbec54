"""Tests for the anchor (hybrid coalescing) scheme — Table 2 flows."""

import pytest

from repro.mem.frames import FrameRange
from repro.schemes.anchor_scheme import AnchorScheme
from repro.sim.engine import run_trace
from repro.vmos.mapping import MemoryMapping


@pytest.fixture
def two_chunk_mapping():
    """Chunk A [0,64) and chunk B [64,96), physically discontiguous."""
    mapping = MemoryMapping()
    mapping.map_run(0, FrameRange(10_000, 64))
    mapping.map_run(64, FrameRange(50_001, 32))
    return mapping


class TestTable2Flows:
    def test_row2_anchor_hit(self, two_chunk_mapping):
        scheme = AnchorScheme(two_chunk_mapping, distance=16)
        scheme.access(0)                    # walk fills anchor@0
        cycles = scheme.access(7)           # L1 miss, L2 reg miss, anchor hit
        assert cycles == scheme.config.latency.coalesced_hit
        assert scheme.stats.coalesced_hits == 1

    def test_row3_contiguity_miss_fills_regular(self):
        # Anchor at 0 covers only 8 pages; vpn 12 shares the anchor
        # window (distance 16) but is beyond the contiguity.
        mapping = MemoryMapping()
        mapping.map_run(0, FrameRange(10_000, 8))
        mapping.map_run(8, FrameRange(90_000, 8))  # break at page 8
        scheme = AnchorScheme(mapping, distance=16)
        scheme.access(0)                    # anchor@0 resident (cont 8)
        cycles = scheme.access(12)          # contiguity miss -> walk
        assert cycles == scheme.config.latency.page_walk
        # The regular entry (not a second anchor) was filled:
        scheme.l1.flush()
        assert scheme.access(12) == scheme.config.latency.l2_hit

    def test_row4_double_miss_contiguity_match_fills_anchor_only(
        self, two_chunk_mapping
    ):
        scheme = AnchorScheme(two_chunk_mapping, distance=16)
        scheme.access(20)                   # covered page: anchor@16 filled
        scheme.l1.flush()
        # The page's own 4 KiB entry must NOT be in the L2 — a re-access
        # resolves via the anchor (8 cycles), not a regular hit (7).
        assert scheme.access(20) == scheme.config.latency.coalesced_hit

    def test_row5_double_miss_no_match_fills_regular(self, two_chunk_mapping):
        # Head of chunk B: vpns 64..79 belong to anchor@64 which IS
        # contiguous there... use an unaligned-head mapping instead.
        mapping = MemoryMapping()
        mapping.map_run(5, FrameRange(77_000, 8))  # anchor@0 unmapped
        scheme = AnchorScheme(mapping, distance=16)
        assert scheme.access(6) == scheme.config.latency.page_walk
        scheme.l1.flush()
        assert scheme.access(6) == scheme.config.latency.l2_hit

    def test_anchor_not_crossed_between_chunks(self, two_chunk_mapping):
        scheme = AnchorScheme(two_chunk_mapping, distance=64)
        scheme.access(0)       # anchor@0, contiguity 64
        # vpn 70 is in chunk B; anchor@64 serves it with B's frames.
        scheme.access(70)
        assert scheme.translate(70) == 50_001 + 6

    def test_huge_path_when_distance_small(self):
        mapping = MemoryMapping()
        mapping.map_run(512, FrameRange(4096, 512))
        scheme = AnchorScheme(mapping, distance=8)
        assert scheme.directory.huge
        scheme.access(512)
        assert scheme.access(900) == 0      # L1 huge hit
        assert scheme.stats.walks == 1


class TestDynamicDistance:
    def test_dynamic_selects_from_histogram(self, two_chunk_mapping):
        scheme = AnchorScheme(two_chunk_mapping)  # distance=None
        assert scheme.dynamic
        assert scheme.distance >= 16

    def test_reselect_noop_when_mapping_static(self, two_chunk_mapping):
        scheme = AnchorScheme(two_chunk_mapping)
        distance, changed = scheme.reselect_distance()
        assert not changed
        assert distance == scheme.distance

    def test_static_never_reselects(self, two_chunk_mapping):
        scheme = AnchorScheme(two_chunk_mapping, distance=4)
        _, changed = scheme.reselect_distance()
        assert not changed and scheme.distance == 4

    def test_rebuild_after_mapping_change(self, two_chunk_mapping):
        scheme = AnchorScheme(two_chunk_mapping, distance=16)
        scheme.access(0)
        changed = MemoryMapping()
        changed.map_run(0, FrameRange(222_000, 32))
        scheme.rebuild(changed)
        assert scheme.access(0) == scheme.config.latency.page_walk
        assert scheme.translate(5) == 222_005

    def test_distance_change_flushes_and_logs(self, two_chunk_mapping):
        scheme = AnchorScheme(two_chunk_mapping)
        # Force a change by faking a different current distance.
        scheme.l2.restore_distance(2)
        scheme._build_directories()
        distance, changed = scheme.reselect_distance()
        assert changed
        assert scheme.shootdowns.distance_changes
        assert scheme.distance == distance


class TestStats:
    def test_conservation_over_random_trace(self, two_chunk_mapping, make_trace):
        import numpy as np
        rng = np.random.default_rng(0)
        vpns = rng.integers(0, 96, 2000).tolist()
        scheme = AnchorScheme(two_chunk_mapping, distance=16)
        stats = run_trace(scheme, make_trace(vpns)).stats
        stats.check_conservation()
        assert stats.accesses == 2000

    def test_anchor_beats_baseline_on_contiguous_mapping(
        self, two_chunk_mapping, tiny_machine, make_trace
    ):
        from repro.schemes.baseline import BaselineScheme
        import numpy as np
        rng = np.random.default_rng(1)
        vpns = rng.integers(0, 96, 3000).tolist()
        base = BaselineScheme(two_chunk_mapping, tiny_machine)
        anchor = AnchorScheme(two_chunk_mapping, tiny_machine, distance=16)
        run_trace(base, make_trace(vpns))
        run_trace(anchor, make_trace(vpns))
        assert anchor.stats.walks < base.stats.walks
