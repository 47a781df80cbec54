"""Tests for the RMM scheme."""

import pytest

from repro.mem.frames import FrameRange
from repro.schemes.rmm import RMMScheme
from repro.sim.engine import run_trace
from repro.vmos.mapping import MemoryMapping


@pytest.fixture
def few_ranges():
    mapping = MemoryMapping()
    mapping.map_run(0, FrameRange(10_000 + 3, 300))      # phase-mismatched
    mapping.map_run(512, FrameRange(20_480, 400))
    return mapping


class TestRMM:
    def test_range_hit_after_walk(self, few_ranges):
        scheme = RMMScheme(few_ranges)
        scheme.access(0)  # walk; refills range [0, 300)
        # A far page of the same range: L1 miss, L2 miss, range hit.
        assert scheme.access(250) == scheme.config.latency.coalesced_hit
        assert scheme.stats.coalesced_hits == 1

    def test_range_thrash_with_many_small_ranges(self, tiny_machine):
        mapping = MemoryMapping()
        for i in range(64):  # 64 ranges > 32-entry range TLB
            mapping.map_run(i * 4, FrameRange(100_000 + i * 16 + 1, 2))
        scheme = RMMScheme(mapping, tiny_machine)
        for _ in range(2):
            for i in range(64):
                scheme.access(i * 4)
        # Second pass: the tiny L2 and the 32-entry range TLB both
        # cycle, so misses persist beyond the 64 compulsory ones.
        assert scheme.stats.walks > 64

    def test_huge_pages_promoted(self):
        mapping = MemoryMapping()
        mapping.map_run(512, FrameRange(4096, 512))
        scheme = RMMScheme(mapping)
        scheme.access(512)
        assert scheme.access(1000) == 0  # same 2 MiB window, L1 huge hit
        assert scheme.stats.walks == 1

    def test_range_serves_huge_window_after_l2_miss(self, tiny_machine):
        mapping = MemoryMapping()
        mapping.map_run(512, FrameRange(4096, 1536))  # three windows
        scheme = RMMScheme(mapping, tiny_machine)
        scheme.access(512)
        scheme.access(1024)
        scheme.access(1536)
        scheme.l1.flush()
        scheme.l2.flush()
        # L2 flushed but the range survives: coalesced hit.
        assert scheme.access(700) == tiny_machine.latency.coalesced_hit

    def test_conservation(self, few_ranges, make_trace):
        scheme = RMMScheme(few_ranges)
        trace = make_trace(
            [vpn for vpn, _ in list(few_ranges.items())[::5]] * 3
        )
        run_trace(scheme, trace).stats.check_conservation()
