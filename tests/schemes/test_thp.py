"""Tests for the THP (2 MiB page) scheme."""

import pytest

from repro.mem.frames import FrameRange
from repro.schemes.base import promote_huge_pages
from repro.schemes.thp import THPScheme
from repro.vmos.mapping import MemoryMapping


def _dicts(promote, mapping):
    """A promotion's :class:`KeyIndex` plans as dicts."""
    return tuple(index.table() for index in promote(mapping))


@pytest.fixture
def huge_friendly():
    """1024 pages, aligned and phase-matched: two promotable windows."""
    mapping = MemoryMapping()
    mapping.map_run(512, FrameRange(4096, 1024))
    return mapping


class TestPromotion:
    def test_aligned_run_promotes(self, huge_friendly):
        huge, small = _dicts(promote_huge_pages, huge_friendly)
        assert set(huge) == {512, 1024}
        assert not small

    def test_phase_mismatch_blocks_promotion(self):
        mapping = MemoryMapping()
        mapping.map_run(512, FrameRange(4099, 1024))
        huge, small = _dicts(promote_huge_pages, mapping)
        assert not huge
        assert len(small) == 1024

    def test_partial_window_not_promoted(self):
        mapping = MemoryMapping()
        mapping.map_run(512, FrameRange(4096, 600))
        huge, small = _dicts(promote_huge_pages, mapping)
        assert set(huge) == {512}
        assert len(small) == 600 - 512

    def test_unaligned_head_skipped(self):
        mapping = MemoryMapping()
        mapping.map_run(700, FrameRange(4096 + 188, 1024))
        huge, _ = _dicts(promote_huge_pages, mapping)
        assert set(huge) == {1024}


class TestTHPScheme:
    def test_one_walk_covers_whole_window(self, huge_friendly):
        scheme = THPScheme(huge_friendly)
        assert scheme.access(512) == 50
        # Every other page of the same 2 MiB window hits (L1 huge).
        for vpn in range(513, 1024, 37):
            assert scheme.access(vpn) == 0
        assert scheme.stats.walks == 1

    def test_small_pages_still_work(self):
        mapping = MemoryMapping()
        mapping.map_run(0, FrameRange(100, 8))   # not promotable
        scheme = THPScheme(mapping)
        scheme.access(0)
        assert scheme.translate(3) == 103
        assert scheme.huge_windows == 0

    def test_l2_huge_hit_latency(self, huge_friendly, tiny_machine):
        scheme = THPScheme(huge_friendly, tiny_machine)
        scheme.access(512)
        scheme.access(1024)  # second window
        # Evict window 0 from the 4-entry (2 sets x 2 ways) L1 huge.
        for i in range(4):
            scheme.access(512 + 512 * (i % 2))
        # All events are L1 or L2 hits now; verify the stats add up.
        scheme.stats.check_conservation()
        assert scheme.stats.walks == 2

    def test_flush(self, huge_friendly):
        scheme = THPScheme(huge_friendly)
        scheme.access(600)
        scheme.flush()
        assert scheme.access(600) == 50
