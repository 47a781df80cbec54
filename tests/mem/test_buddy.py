"""Unit and property tests for the buddy allocator.

The property tests drive random alloc/free sequences and assert the
DESIGN.md invariants: natural alignment, no overlap, frame conservation,
and full coalescing after everything is freed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OutOfMemoryError, ReproError
from repro.mem.buddy import HEAP_SLACK, BuddyAllocator, aligned_decompose
from repro.mem.frames import FrameRange
from repro.util.rng import make_rng


class TestAlignedDecompose:
    def test_exact_block(self):
        assert aligned_decompose(0, 8, 10) == [(0, 3)]

    def test_unaligned_start(self):
        blocks = aligned_decompose(3, 8, 10)
        assert blocks == [(3, 0), (4, 2)]

    def test_covers_exactly(self):
        for start, end in [(0, 7), (5, 21), (1, 2), (13, 64)]:
            blocks = aligned_decompose(start, end, 12)
            covered = sorted(
                f for s, o in blocks for f in range(s, s + (1 << o))
            )
            assert covered == list(range(start, end))

    @given(st.integers(0, 500), st.integers(1, 300))
    def test_property_alignment_and_coverage(self, start, length):
        blocks = aligned_decompose(start, start + length, 20)
        total = 0
        for s, o in blocks:
            assert s % (1 << o) == 0
            total += 1 << o
        assert total == length


class TestBuddyBasics:
    def test_initial_state(self):
        b = BuddyAllocator(64)
        assert b.free_frames == 64
        assert b.allocated_frames == 0
        assert b.largest_free_order() == 6

    def test_rejects_non_pow2(self):
        with pytest.raises(ValueError):
            BuddyAllocator(100)

    def test_alloc_smallest(self):
        b = BuddyAllocator(16)
        block = b.alloc_order(0)
        assert block.count == 1
        assert b.free_frames == 15

    def test_alloc_aligned(self):
        b = BuddyAllocator(256)
        for order in (0, 1, 3, 4):
            block = b.alloc_order(order)
            assert block.start % block.count == 0

    def test_alloc_whole_memory(self):
        b = BuddyAllocator(32)
        block = b.alloc_order(5)
        assert block == FrameRange(0, 32)
        with pytest.raises(OutOfMemoryError):
            b.alloc_order(0)

    def test_alloc_order_out_of_range(self):
        b = BuddyAllocator(16)
        with pytest.raises(ValueError):
            b.alloc_order(5)
        with pytest.raises(ValueError):
            b.alloc_order(-1)

    def test_free_restores(self):
        b = BuddyAllocator(64)
        block = b.alloc_order(3)
        b.free(block)
        assert b.free_frames == 64
        assert b.largest_free_order() == 6

    def test_free_coalesces_buddies(self):
        b = BuddyAllocator(8)
        blocks = [b.alloc_order(0) for _ in range(8)]
        for block in blocks:
            b.free(block)
        assert b.largest_free_order() == 3

    def test_double_free_rejected(self):
        b = BuddyAllocator(16)
        block = b.alloc_order(1)
        b.free(block)
        with pytest.raises(ReproError):
            b.free(block)

    def test_free_wrong_size_rejected(self):
        b = BuddyAllocator(16)
        b.alloc_order(2)
        with pytest.raises(ReproError):
            b.free(FrameRange(0, 2))

    def test_split_produces_disjoint_blocks(self):
        b = BuddyAllocator(16)
        blocks = [b.alloc_order(0) for _ in range(16)]
        starts = {blk.start for blk in blocks}
        assert len(starts) == 16


class TestAllocPages:
    def test_exact_power(self):
        b = BuddyAllocator(64)
        ranges = b.alloc_pages(16)
        assert sum(r.count for r in ranges) == 16
        assert len(ranges) == 1

    def test_non_power(self):
        b = BuddyAllocator(64)
        ranges = b.alloc_pages(13)
        assert sum(r.count for r in ranges) == 13
        assert b.free_frames == 51
        b.check_invariants()

    def test_kept_prefix_contiguous(self):
        b = BuddyAllocator(64)
        ranges = b.alloc_pages(13)
        flat = sorted(f for r in ranges for f in range(r.start, r.end))
        assert flat == list(range(flat[0], flat[0] + 13))

    def test_fragmented_fallback(self):
        b = BuddyAllocator(32)
        # Fill memory with pairs, then free alternating pairs: the free
        # space is eight 2-frame holes, so 8 pages cannot be one block.
        pins = [b.alloc_order(1) for _ in range(16)]
        for pin in pins[::2]:
            b.free(pin)
        ranges = b.alloc_pages(8)
        assert sum(r.count for r in ranges) == 8
        assert len(ranges) > 1
        b.check_invariants()

    def test_oom_rolls_back(self):
        b = BuddyAllocator(16)
        b.alloc_order(3)
        before = b.free_frames
        with pytest.raises(OutOfMemoryError):
            b.alloc_pages(12)
        assert b.free_frames == before
        b.check_invariants()

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            BuddyAllocator(16).alloc_pages(0)


class TestExactRun:
    def test_basic(self):
        b = BuddyAllocator(64)
        run = b.alloc_exact_run(12)
        assert run is not None and run.count == 12
        b.check_invariants()

    def test_free_run_roundtrip(self):
        b = BuddyAllocator(64)
        run = b.alloc_exact_run(12)
        b.free_run(run)
        assert b.free_frames == 64
        assert b.largest_free_order() == 6

    def test_too_large_returns_none(self):
        b = BuddyAllocator(16)
        assert b.alloc_exact_run(32) is None

    def test_unavailable_returns_none(self):
        b = BuddyAllocator(16)
        b.alloc_order(4)
        assert b.alloc_exact_run(3) is None


class TestFragmentation:
    def test_fragment_reduces_largest_order(self):
        rng = make_rng(3)
        b = BuddyAllocator(1 << 12)
        held = b.fragment(rng, 0.5, (0, 3))
        assert held  # background blocks survive
        assert b.largest_free_order() < 12
        b.check_invariants()

    def test_fragment_zero_is_noop(self):
        b = BuddyAllocator(256)
        assert b.fragment(make_rng(1), 0.0) == []
        assert b.free_frames == 256

    def test_fragment_validation(self):
        with pytest.raises(ValueError):
            BuddyAllocator(256).fragment(make_rng(1), 1.5)


@st.composite
def alloc_free_script(draw):
    """A random interleaving of allocations and frees."""
    return draw(st.lists(st.tuples(st.booleans(), st.integers(0, 4)),
                         min_size=1, max_size=60))


class TestBuddyProperties:
    @given(alloc_free_script())
    @settings(max_examples=60, deadline=None)
    def test_invariants_under_random_script(self, script):
        b = BuddyAllocator(1 << 10)
        live = []
        for is_alloc, order in script:
            if is_alloc or not live:
                try:
                    live.append(b.alloc_order(order))
                except OutOfMemoryError:
                    pass
            else:
                b.free(live.pop(order % len(live)))
        b.check_invariants()
        assert b.free_frames + b.allocated_frames == 1 << 10

    @given(alloc_free_script())
    @settings(max_examples=40, deadline=None)
    def test_free_all_restores_max_order(self, script):
        b = BuddyAllocator(1 << 10)
        live = []
        for is_alloc, order in script:
            if is_alloc or not live:
                try:
                    live.append(b.alloc_order(order))
                except OutOfMemoryError:
                    pass
            else:
                b.free(live.pop(order % len(live)))
        for block in live:
            b.free(block)
        assert b.free_frames == 1 << 10
        assert b.largest_free_order() == 10

    @given(st.lists(st.integers(1, 40), min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_alloc_pages_counts(self, requests):
        b = BuddyAllocator(1 << 10)
        total = 0
        for count in requests:
            if total + count > 1 << 10:
                break
            got = b.alloc_pages(count)
            assert sum(r.count for r in got) == count
            total += count
        b.check_invariants()


class MinSetBuddy(BuddyAllocator):
    """Reference allocator: free sets only, lowest block found by ``min``.

    Everything but the pick of the lowest free block is inherited, so a
    difference from :class:`BuddyAllocator` is the heaps' doing.
    """

    def _add_free(self, start, order):
        self._free[order].add(start)

    def _drop_free(self, start, order):
        self._free[order].discard(start)

    def _alloc(self, order):
        source = order
        while source <= self.max_order and not self._free[source]:
            source += 1
        if source > self.max_order:
            raise OutOfMemoryError(f"no free block of order >= {order}")
        start = min(self._free[source])
        self._drop_free(start, source)
        while source > order:
            source -= 1
            self._add_free(start + (1 << source), source)
        self._allocated[start] = order
        self._allocated_frames += 1 << order
        return start


def _outcome(call):
    try:
        return "ok", call()
    except (OutOfMemoryError, ReproError, ValueError) as exc:
        return "raised", type(exc)


def _step(buddy, op, arg):
    """Apply one scripted operation; frees pick among allocated blocks."""
    blocks = sorted(buddy._allocated.items())
    if op == "alloc_order":
        return _outcome(lambda: buddy.alloc_order(arg))
    if op == "alloc_pages":
        return _outcome(lambda: buddy.alloc_pages(arg))
    if op == "alloc_exact_run":
        return _outcome(lambda: buddy.alloc_exact_run(arg))
    if op == "reserve":
        start, length = arg
        end = min(start + length, buddy.total_frames)
        return _outcome(lambda: buddy.reserve_free_in_range(start, end))
    if op == "fragment":
        seed, hold, orders = arg
        return _outcome(lambda: buddy.fragment(make_rng(seed), hold, orders))
    if not blocks:
        return None
    pick, extra = arg
    start, order = blocks[pick % len(blocks)]
    if op == "free":
        return _outcome(lambda: buddy.free(FrameRange(start, 1 << order)))
    if op == "free_frame":
        pfn = start + extra % (1 << order)
        return _outcome(lambda: buddy.free_frame(pfn))
    # free_run: up to ``extra`` allocated blocks that abut one another.
    end = start + (1 << order)
    for next_start, next_order in blocks[pick % len(blocks) + 1:][:extra]:
        if next_start != end:
            break
        end = next_start + (1 << next_order)
    return _outcome(lambda: buddy.free_run(FrameRange(start, end - start)))


heap_scripts = st.lists(st.one_of(
    st.tuples(st.just("alloc_order"), st.integers(0, 6)),
    st.tuples(st.sampled_from(["alloc_pages", "alloc_exact_run"]),
              st.integers(1, 80)),
    st.tuples(st.sampled_from(["free", "free_frame", "free_run"]),
              st.tuples(st.integers(0, 1 << 12), st.integers(0, 8))),
    st.tuples(st.just("reserve"),
              st.tuples(st.integers(0, 1023), st.integers(1, 96))),
    st.tuples(st.just("fragment"),
              st.tuples(st.integers(0, 1 << 16),
                        st.sampled_from([0.0, 0.2, 0.5, 0.9]),
                        st.sampled_from([(0, 0), (0, 3), (1, 4)]))),
), min_size=1, max_size=50)


class TestHeapAgainstMinSet:
    """The heap pick is today's ``min(set)``, whatever the history."""

    @given(heap_scripts)
    @settings(max_examples=80, deadline=None)
    def test_every_step_matches_the_min_set_oracle(self, script):
        heap, oracle = BuddyAllocator(1 << 10), MinSetBuddy(1 << 10)
        for op, arg in script:
            assert _step(heap, op, arg) == _step(oracle, op, arg)
            assert heap.free_blocks_by_order() == oracle.free_blocks_by_order()
            # Same sets in the same iteration order: the add/discard
            # sequence is unchanged.
            assert [list(s) for s in heap._free] == [
                list(s) for s in oracle._free]
            assert heap._allocated == oracle._allocated
            heap.check_invariants()
            for blocks, entries in zip(heap._free, heap._heaps):
                assert len(entries) <= 2 * len(blocks) + HEAP_SLACK

    def test_churn_rebuilds_the_heaps(self):
        buddy = BuddyAllocator(1 << 10)
        singles = [buddy.alloc_order(0) for _ in range(1 << 9)]
        for block in singles[::2]:
            buddy.free(block)
        # Freeing the odd half coalesces every pair away from order 0,
        # leaving only stale order-0 entries; the bound drops them.
        for block in singles[1::2]:
            buddy.free(block)
        assert not buddy._free[0]
        assert len(buddy._heaps[0]) <= HEAP_SLACK
        buddy.check_invariants()
        assert buddy.alloc_order(0) == FrameRange(0, 1)

    def test_invariants_catch_a_heap_missing_a_block(self):
        buddy = BuddyAllocator(64)
        buddy.alloc_order(0)
        buddy._heaps[0].clear()
        with pytest.raises(ReproError, match="heap"):
            buddy.check_invariants()


def fragment_one_at_a_time(buddy, rng, hold_fraction, order_range):
    """``BuddyAllocator.fragment`` as it ran before batching: one draw
    and one ``alloc_order`` per held block."""
    lo, hi = order_range
    target = int(buddy.total_frames * hold_fraction)
    held = []
    held_frames = 0
    ran_out = False
    while held_frames < target:
        order = int(rng.integers(lo, hi + 1))
        try:
            block = buddy.alloc_order(order)
        except OutOfMemoryError:
            ran_out = True
            break
        held.append(block)
        held_frames += block.count
    permutation = rng.permutation(len(held))
    keep = [held[i] for i in permutation[: len(held) // 2]]
    for i in permutation[len(held) // 2:]:
        buddy.free(held[i])
    return keep, ran_out


class TestBatchedFragment:
    @pytest.mark.parametrize("frames,hold,orders", [
        (1 << 6, 0.999, (0, 4)),    # runs out within the first batch
        (1 << 9, 0.999, (1, 3)),    # runs out in a later batch
        (1 << 12, 0.55, (0, 3)),    # the heavy profile's shape
        (1 << 12, 0.0, (0, 4)),     # holds nothing, draws nothing
    ])
    def test_matches_one_draw_per_block(self, frames, hold, orders):
        ran_out = []
        for seed in range(12):
            batched, single = BuddyAllocator(frames), BuddyAllocator(frames)
            rng_batched, rng_single = make_rng(seed), make_rng(seed)
            kept = batched.fragment(rng_batched, hold, orders)
            expected, oom = fragment_one_at_a_time(
                single, rng_single, hold, orders)
            ran_out.append(oom)
            assert kept == expected
            assert [list(s) for s in batched._free] == [
                list(s) for s in single._free]
            assert batched._allocated == single._allocated
            assert (rng_batched.bit_generator.state
                    == rng_single.bit_generator.state)
            batched.check_invariants()
        assert any(ran_out) == (hold > 0.99)

    def test_rejects_orders_outside_the_allocator(self):
        with pytest.raises(ValueError):
            BuddyAllocator(1 << 4).fragment(make_rng(1), 0.5, (0, 5))
        assert BuddyAllocator(1 << 4).fragment(make_rng(1), 0.0, (0, 5)) == []
