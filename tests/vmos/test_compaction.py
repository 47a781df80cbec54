"""Tests for khugepaged-style compaction."""

import pytest

from repro.errors import ReproError
from repro.mem.physmem import PhysicalMemory
from repro.util.rng import make_rng
from repro.vmos.compaction import compact, compactable_windows
from repro.vmos.contiguity import mean_chunk_pages
from repro.vmos.distance import select_distance
from repro.vmos.contiguity import contiguity_histogram
from repro.vmos.paging_policy import demand_paging
from repro.vmos.vma import AllocationSite, layout_vmas


@pytest.fixture
def fragmented_setup():
    """A workload demand-paged on a shattered machine: 4 KiB frames."""
    vmas = layout_vmas([AllocationSite(2048, 1)])
    # Memory only 2x the footprint: order-9 blocks are scarce, so the
    # demand faults land in scattered 4 KiB frames.
    memory = PhysicalMemory(1 << 12, "severe", seed=3)
    mapping = demand_paging(vmas, memory, make_rng(3), thp=True,
                            faultaround_pages=1)
    # The background pressure then eases (co-runners exit), making
    # order-9 blocks available again — the khugepaged trigger moment.
    memory.release_background(1.0, make_rng(4))
    return mapping, memory, vmas


class TestFreeFrame:
    def test_free_frame_of_larger_block(self):
        from repro.mem.buddy import BuddyAllocator
        buddy = BuddyAllocator(64)
        block = buddy.alloc_order(3)
        buddy.free_frame(block.start + 5)
        assert buddy.free_frames == 64 - 7
        buddy.check_invariants()

    def test_free_frame_unallocated_rejected(self):
        from repro.mem.buddy import BuddyAllocator
        buddy = BuddyAllocator(64)
        with pytest.raises(ReproError):
            buddy.free_frame(3)

    def test_free_all_frames_recoalesces(self):
        from repro.mem.buddy import BuddyAllocator
        buddy = BuddyAllocator(64)
        block = buddy.alloc_order(3)
        for pfn in range(block.start, block.end):
            buddy.free_frame(pfn)
        assert buddy.free_frames == 64
        assert buddy.largest_free_order() == 6


class TestCompact:
    def test_candidates_exist_when_fragmented(self, fragmented_setup):
        mapping, _, _ = fragmented_setup
        assert compactable_windows(mapping) > 0

    def test_compaction_preserves_translation_targets(self, fragmented_setup):
        mapping, memory, _ = fragmented_setup
        before = {vpn for vpn, _ in mapping.items()}
        compact(mapping, memory)
        after = {vpn for vpn, _ in mapping.items()}
        assert before == after  # same pages mapped, new frames

    def test_compaction_increases_contiguity(self, fragmented_setup):
        mapping, memory, _ = fragmented_setup
        before = mean_chunk_pages(mapping)
        result = compact(mapping, memory)
        assert result.windows_collapsed > 0
        assert mean_chunk_pages(mapping) > before

    def test_collapsed_windows_are_promotable(self, fragmented_setup):
        mapping, memory, _ = fragmented_setup
        compact(mapping, memory)
        from repro.schemes.base import promote_huge_pages
        huge, _ = promote_huge_pages(mapping)
        assert huge.keys.size > 0

    def test_distance_selection_reacts(self, fragmented_setup):
        mapping, memory, _ = fragmented_setup
        before = select_distance(contiguity_histogram(mapping))
        compact(mapping, memory)
        after = select_distance(contiguity_histogram(mapping))
        assert after >= before

    def test_max_windows_budget(self, fragmented_setup):
        mapping, memory, _ = fragmented_setup
        result = compact(mapping, memory, max_windows=1)
        assert result.windows_collapsed == 1
        assert result.pages_migrated == 512

    def test_second_pass_converges(self, fragmented_setup):
        mapping, memory, _ = fragmented_setup
        compact(mapping, memory)
        second = compact(mapping, memory)
        assert second.windows_collapsed == 0

    def test_frame_conservation(self, fragmented_setup):
        mapping, memory, _ = fragmented_setup
        compact(mapping, memory)
        memory.buddy.check_invariants()
        frames = [pfn for _, pfn in mapping.items()]
        assert len(frames) == len(set(frames))
