"""A binary buddy allocator over physical page frames.

The paper's OS substrate allocates physical memory through the Linux
buddy system: free memory is kept as naturally aligned power-of-two
blocks ("orders"), allocation splits larger blocks, and freeing
coalesces a block with its buddy whenever the buddy is also free.  The
degree to which high orders survive is exactly the "memory contiguity"
the paper studies, so this allocator is the root of every mapping
scenario in the repository.

Each order keeps a free set, the authority for membership, and beside
it a min-heap of the same block starts, so allocation takes the lowest
free block in O(log n) and free-with-coalescing is near O(1).  The heap
drops entries lazily: a block that leaves the set stays in the heap
until it reaches the top, and a heap more than twice its set's size is
rebuilt from the set.  Allocated blocks are tracked so tests can check
the invariants (no double allocation / free, natural alignment, frame
conservation).
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.errors import OutOfMemoryError, ReproError
from repro.mem.frames import FrameRange
from repro.params import is_pow2
from repro.util.rng import BatchedDraws

#: An order's heap is rebuilt from its free set once it holds more than
#: ``2 * len(set) + HEAP_SLACK`` entries, which keeps its memory
#: O(free blocks) under long alloc/free churn.
HEAP_SLACK = 8

def aligned_decompose(start: int, end: int, max_order: int) -> list[tuple[int, int]]:
    """Decompose ``[start, end)`` into naturally aligned buddy blocks.

    Returns ``(block_start, order)`` pairs covering the interval exactly,
    each block aligned to its own size — the canonical greedy
    decomposition the buddy system itself would produce.
    """
    blocks: list[tuple[int, int]] = []
    while start < end:
        size = end - start
        align_order = (start & -start).bit_length() - 1 if start else max_order
        order = min(align_order, size.bit_length() - 1, max_order)
        blocks.append((start, order))
        start += 1 << order
    return blocks


class BuddyAllocator:
    """Buddy allocator managing ``total_frames`` physical frames.

    ``total_frames`` must be a power of two; ``max_order`` defaults to
    covering the whole memory with a single block.
    """

    def __init__(self, total_frames: int, max_order: int | None = None) -> None:
        if not is_pow2(total_frames):
            raise ValueError("total_frames must be a power of two")
        top_order = total_frames.bit_length() - 1
        if max_order is None:
            max_order = top_order
        if not 0 <= max_order <= top_order:
            raise ValueError("max_order out of range")
        self.total_frames = total_frames
        self.max_order = max_order
        # Free blocks per order: order -> set of block start frames,
        # with a min-heap holding (at least) the same starts.
        self._free: list[set[int]] = [set() for _ in range(max_order + 1)]
        self._heaps: list[list[int]] = [[] for _ in range(max_order + 1)]
        # Allocated blocks: start frame -> order.
        self._allocated: dict[int, int] = {}
        # Running frame count of ``_allocated`` (kept in lock step at
        # every mutation site) so ``allocated_frames``/``free_frames``
        # are O(1) instead of re-summing the whole block table — the
        # scenario builders poll them in tight churn loops.
        self._allocated_frames = 0
        for start in range(0, total_frames, 1 << max_order):
            self._add_free(start, max_order)

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------

    def alloc_order(self, order: int) -> FrameRange:
        """Allocate one naturally aligned block of ``2**order`` frames."""
        if not 0 <= order <= self.max_order:
            raise ValueError(f"order {order} out of range 0..{self.max_order}")
        return FrameRange(self._alloc(order), 1 << order)

    def free(self, block: FrameRange) -> None:
        """Free a previously allocated block, coalescing with buddies."""
        order = self._allocated.get(block.start)
        if order is None or (1 << order) != block.count:
            raise ReproError(f"free of unallocated or mismatched block {block}")
        self._release(block.start, order)

    # ------------------------------------------------------------------
    # Compound operations used by the OS layer
    # ------------------------------------------------------------------

    def alloc_pages(self, count: int) -> list[FrameRange]:
        """Allocate ``count`` frames as the fewest blocks available.

        Models eager paging's sequential requests through the buddy
        system: the largest available orders are consumed first and the
        request falls back to smaller orders as high orders run out, so
        the result's contiguity reflects the current fragmentation.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        ranges: list[FrameRange] = []
        remaining = count
        try:
            while remaining:
                order = min(remaining.bit_length() - 1, self.max_order)
                while (order > 0 and not self._free[order]
                        and not self._has_free_at_least(order)):
                    order -= 1
                block = self.alloc_order(order)
                if block.count > remaining:
                    kept = self._trim(block, remaining)
                    ranges.extend(kept)
                    remaining = 0
                else:
                    ranges.append(block)
                    remaining -= block.count
        except OutOfMemoryError:
            for block in ranges:
                self.free(block)
            raise
        return ranges

    def alloc_exact_run(self, count: int) -> FrameRange | None:
        """Try to allocate exactly ``count`` physically contiguous frames.

        Used by the synthetic mapping generators, which need runs that
        are not powers of two.  Returns ``None`` when no single free
        block large enough exists.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        order = (count - 1).bit_length()
        if order > self.max_order:
            return None
        try:
            block = self.alloc_order(order)
        except OutOfMemoryError:
            return None
        if block.count == count:
            return block
        pieces = self._trim(block, count)
        # The kept prefix is contiguous by construction.
        return FrameRange(pieces[0].start, count)

    def free_run(self, run: FrameRange) -> None:
        """Free a contiguous run previously produced by this allocator."""
        for start, order in self._blocks_within(run):
            self._release(start, order)

    def reserve_free_in_range(self, start: int, end: int) -> list[FrameRange]:
        """Claim every currently *free* frame inside ``[start, end)``.

        The targeted-allocation half of Linux's ``alloc_contig_range``:
        free blocks overlapping the range are split so that the inside
        parts become allocations owned by the caller while the outside
        parts stay free.  Frames already allocated are left untouched.
        Returns the claimed ranges.
        """
        if not 0 <= start < end <= self.total_frames:
            raise ValueError(f"invalid range [{start}, {end})")
        claimed: list[FrameRange] = []
        for order in range(self.max_order + 1):
            size = 1 << order
            overlapping = [
                block for block in self._free[order]
                if block < end and block + size > start
            ]
            for block in overlapping:
                self._drop_free(block, order)
                inside_lo = max(block, start)
                inside_hi = min(block + size, end)
                for sub_start, sub_order in aligned_decompose(
                    inside_lo, inside_hi, self.max_order
                ):
                    self._allocated[sub_start] = sub_order
                    self._allocated_frames += 1 << sub_order
                    claimed.append(FrameRange(sub_start, 1 << sub_order))
                for lo, hi in ((block, inside_lo), (inside_hi, block + size)):
                    for sub_start, sub_order in aligned_decompose(
                        lo, hi, self.max_order
                    ):
                        self._insert_free(sub_start, sub_order)
        return claimed

    def consolidate(self, start: int, order: int) -> FrameRange:
        """Fuse the caller's allocations covering a block into one.

        Requires every frame of ``[start, start + 2**order)`` to be
        allocated; replaces the constituent bookkeeping entries with a
        single naturally aligned block (the completion of
        ``alloc_contig_range``: the evacuated region becomes one huge
        allocation).
        """
        if start % (1 << order):
            raise ValueError("consolidation target must be naturally aligned")
        end = start + (1 << order)
        covered = 0
        constituents = []
        for block_start, block_order in self._allocated.items():
            if start <= block_start < end:
                if block_start + (1 << block_order) > end:
                    raise ReproError("allocation crosses consolidation boundary")
                constituents.append(block_start)
                covered += 1 << block_order
        if covered != 1 << order:
            raise ReproError(
                f"region [{start}, {end}) not fully allocated ({covered} frames)"
            )
        for block_start in constituents:
            del self._allocated[block_start]
        self._allocated[start] = order
        return FrameRange(start, 1 << order)

    def isolate_frame(self, pfn: int) -> None:
        """Split the allocated block containing ``pfn`` into single frames.

        The frame (and its former block-mates) stay allocated, but can
        now be freed or consolidated individually — the bookkeeping step
        behind page migration.
        """
        for order in range(self.max_order + 1):
            start = pfn & ~((1 << order) - 1)
            if self._allocated.get(start) == order:
                del self._allocated[start]
                for frame in range(start, start + (1 << order)):
                    self._allocated[frame] = 0
                return
        raise ReproError(f"frame {pfn} is not allocated")

    def free_frame(self, pfn: int) -> None:
        """Free one frame out of whatever allocated block contains it.

        Used by page migration (compaction): the OS releases individual
        frames of blocks that were allocated at a coarser order.  The
        containing block's bookkeeping is split down to single frames
        first, so the remaining frames stay allocated.
        """
        self.isolate_frame(pfn)
        self.free(FrameRange(pfn, 1))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def free_frames(self) -> int:
        # Frame conservation (every frame is exactly one of free or
        # allocated, checked by ``check_invariants``) makes this the
        # complement of the running allocated counter — O(1), where
        # re-summing the free lists would be O(blocks).
        return self.total_frames - self._allocated_frames

    @property
    def allocated_frames(self) -> int:
        return self._allocated_frames

    def free_blocks_by_order(self) -> dict[int, int]:
        """Number of free blocks at each order (fragmentation signature)."""
        return {o: len(b) for o, b in enumerate(self._free) if b}

    def largest_free_order(self) -> int | None:
        for order in range(self.max_order, -1, -1):
            if self._free[order]:
                return order
        return None

    def allocated_blocks(self) -> list[FrameRange]:
        return [FrameRange(s, 1 << o) for s, o in sorted(self._allocated.items())]

    def check_invariants(self) -> None:
        """Raise ReproError if internal bookkeeping is inconsistent."""
        seen: set[int] = set()
        for order, blocks in enumerate(self._free):
            for start in blocks:
                if start % (1 << order):
                    raise ReproError(f"misaligned free block {start} order {order}")
                span = set(range(start, start + (1 << order)))
                if span & seen:
                    raise ReproError("overlapping free blocks")
                seen |= span
        for start, order in self._allocated.items():
            if start % (1 << order):
                raise ReproError(f"misaligned allocated block {start} order {order}")
            span = set(range(start, start + (1 << order)))
            if span & seen:
                raise ReproError("allocated block overlaps another block")
            seen |= span
        if len(seen) != self.total_frames:
            raise ReproError(
                f"frame conservation violated: {len(seen)} != {self.total_frames}"
            )
        actual = sum(1 << order for order in self._allocated.values())
        if self._allocated_frames != actual:
            raise ReproError(
                f"allocated-frame counter drifted: counter says "
                f"{self._allocated_frames}, block table sums to {actual}"
            )
        for order, (blocks, heap) in enumerate(zip(self._free, self._heaps)):
            if not blocks <= set(heap):
                raise ReproError(f"order-{order} heap misses free blocks")
            if len(heap) > 2 * len(blocks) + HEAP_SLACK:
                raise ReproError(f"order-{order} heap past its rebuild bound")

    # ------------------------------------------------------------------
    # Fragmentation injection
    # ------------------------------------------------------------------

    def fragment(
        self,
        rng: np.random.Generator,
        hold_fraction: float,
        order_range: tuple[int, int] = (0, 4),
    ) -> list[FrameRange]:
        """Fragment free memory by pinning scattered small blocks.

        Allocates small random-order blocks until ``hold_fraction`` of
        memory is held, then frees a random half of them.  The survivors
        are returned (as if owned by background processes); the holes
        left behind destroy high-order contiguity exactly the way
        long-running co-runners do on the paper's real machines.
        """
        if not 0.0 <= hold_fraction < 1.0:
            raise ValueError("hold_fraction must be in [0, 1)")
        lo, hi = order_range
        target = int(self.total_frames * hold_fraction)
        if target and not 0 <= lo <= hi <= self.max_order:
            raise ValueError(
                f"order range {order_range} outside 0..{self.max_order}")
        held: list[tuple[int, int]] = []  # (start, order)
        held_frames = 0
        with BatchedDraws(rng, "integers", lo, hi + 1) as next_order:
            while held_frames < target:
                order = next_order()
                try:
                    start = self._alloc(order)
                except OutOfMemoryError:
                    break
                held.append((start, order))
                held_frames += 1 << order
        order_permutation = rng.permutation(len(held)).tolist()
        half = len(held) // 2
        keep = [held[i] for i in order_permutation[:half]]
        for i in order_permutation[half:]:
            self._release(*held[i])
        return [FrameRange(start, 1 << order) for start, order in keep]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _alloc(self, order: int) -> int:
        """Allocate a block of a valid ``order``; return its start frame.

        Takes the lowest free block of the smallest order that has one
        and splits it down, freeing the upper halves.
        """
        free, source = self._free, order
        while source <= self.max_order and not free[source]:
            source += 1
        if source > self.max_order:
            raise OutOfMemoryError(f"no free block of order >= {order}")
        blocks, heap = free[source], self._heaps[source]
        while heap[0] not in blocks:
            heapq.heappop(heap)
        start = heapq.heappop(heap)
        self._drop_free(start, source)
        while source > order:
            source -= 1
            self._add_free(start + (1 << source), source)
        self._allocated[start] = order
        self._allocated_frames += 1 << order
        return start

    def _release(self, start: int, order: int) -> None:
        """Free the allocated block ``(start, order)``, coalescing."""
        del self._allocated[start]
        self._allocated_frames -= 1 << order
        self._insert_free(start, order)

    def _add_free(self, start: int, order: int) -> None:
        """Add a block to an order's free set and push it on its heap."""
        blocks, heap = self._free[order], self._heaps[order]
        blocks.add(start)
        heapq.heappush(heap, start)
        if len(heap) > 2 * len(blocks) + HEAP_SLACK:
            self._heaps[order] = sorted(blocks)

    def _drop_free(self, start: int, order: int) -> None:
        """Remove a block from an order's free set; its heap entry goes
        stale and is dropped when it reaches the top or at a rebuild."""
        blocks = self._free[order]
        blocks.discard(start)
        if len(self._heaps[order]) > 2 * len(blocks) + HEAP_SLACK:
            self._heaps[order] = sorted(blocks)

    def _insert_free(self, start: int, order: int) -> None:
        """Insert a block into the free lists, coalescing with buddies."""
        while order < self.max_order:
            buddy = start ^ (1 << order)
            if buddy not in self._free[order]:
                break
            self._drop_free(buddy, order)
            start = min(start, buddy)
            order += 1
        self._add_free(start, order)

    def _has_free_at_least(self, order: int) -> bool:
        return any(self._free[o] for o in range(order, self.max_order + 1))

    def _trim(self, block: FrameRange, keep: int) -> list[FrameRange]:
        """Keep the first ``keep`` frames of ``block``, freeing the rest.

        The kept prefix is re-registered as naturally aligned allocated
        sub-blocks so it can later be freed through the normal path; the
        tail goes back to the free lists with coalescing.
        """
        del self._allocated[block.start]
        self._allocated_frames -= block.count
        kept: list[FrameRange] = []
        for start, order in aligned_decompose(
                block.start, block.start + keep, self.max_order):
            self._allocated[start] = order
            self._allocated_frames += 1 << order
            kept.append(FrameRange(start, 1 << order))
        for start, order in aligned_decompose(
                block.start + keep, block.end, self.max_order):
            self._insert_free(start, order)
        return kept

    def _blocks_within(self, run: FrameRange) -> list[tuple[int, int]]:
        found = []
        for start, order in self._allocated.items():
            if run.start <= start < run.end:
                if start + (1 << order) > run.end:
                    raise ReproError(f"block at {start} extends past run {run}")
                found.append((start, order))
        covered = sum(1 << o for _, o in found)
        if covered != run.count:
            raise ReproError(f"run {run} does not match allocated blocks")
        return found
