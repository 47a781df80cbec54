"""Tests for the PhysicalMemory facade and fragmentation profiles."""

import pytest

from repro.mem.buddy import BuddyAllocator
from repro.mem.physmem import PROFILES, FragmentationProfile, PhysicalMemory
from repro.util.rng import make_rng, spawn_rng


class TestProfiles:
    def test_known_profiles(self):
        assert set(PROFILES) == {
            "pristine", "light", "moderate", "heavy", "severe"
        }
        assert PROFILES["pristine"].hold_fraction == 0.0

    def test_profiles_ordered_by_pressure(self):
        assert (
            PROFILES["light"].hold_fraction
            < PROFILES["moderate"].hold_fraction
            < PROFILES["heavy"].hold_fraction
            < PROFILES["severe"].hold_fraction
        )


class TestPhysicalMemory:
    def test_pristine_has_everything_free(self):
        memory = PhysicalMemory(1 << 12, "pristine")
        assert memory.free_frames == 1 << 12
        assert memory.background_frames == 0

    def test_profile_by_name_or_object(self):
        a = PhysicalMemory(1 << 12, "light", seed=1)
        b = PhysicalMemory(1 << 12, PROFILES["light"], seed=1)
        assert a.free_frames == b.free_frames

    def test_fragmentation_holds_memory(self):
        memory = PhysicalMemory(1 << 12, "moderate", seed=2)
        assert memory.background_frames > 0
        assert memory.free_frames < 1 << 12
        memory.buddy.check_invariants()

    def test_heavier_profile_lowers_max_order(self):
        light = PhysicalMemory(1 << 14, "light", seed=5)
        heavy = PhysicalMemory(1 << 14, "heavy", seed=5)
        assert (heavy.buddy.largest_free_order() or 0) <= (
            light.buddy.largest_free_order() or 0
        )

    def test_deterministic_in_seed(self):
        a = PhysicalMemory(1 << 12, "moderate", seed=9)
        b = PhysicalMemory(1 << 12, "moderate", seed=9)
        assert a.contiguity_signature() == b.contiguity_signature()

    def test_release_background(self):
        memory = PhysicalMemory(1 << 12, "heavy", seed=4)
        held = memory.background_frames
        memory.release_background(0.5, make_rng(1))
        assert memory.background_frames < held
        memory.buddy.check_invariants()

    def test_release_background_validation(self):
        memory = PhysicalMemory(1 << 12, "light", seed=1)
        with pytest.raises(ValueError):
            memory.release_background(1.5, make_rng(0))

    def test_custom_profile(self):
        profile = FragmentationProfile("mine", 0.2, (1, 2))
        memory = PhysicalMemory(1 << 12, profile, seed=1)
        assert memory.profile.name == "mine"
        assert memory.background_frames > 0


#: Every profile on 2**17 frames, taken before the buddy allocator's
#: heaps and batched fragmentation: free blocks per order, background
#: frames, and the fragmenting generator's next ``integers(0, 2**62)``.
PINNED_PROFILES = {
    ("heavy", 1): ({0: 1208, 1: 1798, 2: 2056, 3: 1989, 4: 404, 5: 21,
                    6: 1, 9: 1, 10: 1, 13: 1, 14: 1, 15: 1},
                   36052, 289373471593164443),
    ("heavy", 2): ({0: 1205, 1: 1737, 2: 1976, 3: 2041, 4: 403, 5: 29,
                    6: 1, 9: 1, 10: 1, 13: 1, 14: 1, 15: 1},
                   35841, 635645261597465381),
    ("light", 1): ({0: 72, 1: 116, 2: 121, 3: 134, 4: 119, 5: 140, 6: 24,
                    7: 2, 8: 1, 9: 1, 12: 1, 13: 1, 15: 1, 16: 1},
                   9676, 2991506795245355382),
    ("light", 2): ({0: 74, 1: 118, 2: 114, 3: 122, 4: 124, 5: 147, 6: 31,
                    8: 1, 9: 1, 12: 1, 13: 1, 15: 1, 16: 1},
                   9298, 2734662288906705877),
    ("moderate", 1): ({0: 342, 1: 550, 2: 611, 3: 611, 4: 619, 5: 122,
                       6: 4, 7: 1, 10: 1, 11: 1, 14: 1, 16: 1},
                      23114, 4480499061508882651),
    ("moderate", 2): ({0: 369, 1: 526, 2: 579, 3: 619, 4: 637, 5: 119,
                       6: 3, 7: 1, 10: 1, 11: 1, 14: 1, 16: 1},
                      23071, 4286848919284045877),
    ("pristine", 1): ({17: 1}, 0, 4552701090970646846),
    ("pristine", 2): ({17: 1}, 0, 1181612769552175562),
    ("severe", 1): ({0: 7919, 1: 11671, 2: 3351, 3: 309, 4: 7, 6: 1,
                     8: 1, 9: 1, 10: 1, 11: 1, 15: 1},
                    47151, 878454475063446852),
    ("severe", 2): ({0: 8016, 1: 11597, 2: 3297, 3: 336, 4: 7, 6: 1,
                     8: 1, 9: 1, 10: 1, 11: 1, 15: 1},
                    47202, 3358236293949886266),
}


class TestPinnedProfiles:
    def test_every_profile_is_pinned(self):
        assert {name for name, _ in PINNED_PROFILES} == set(PROFILES)

    @pytest.mark.parametrize("key", sorted(PINNED_PROFILES))
    def test_profile_content(self, key):
        name, seed = key
        free, background, next_draw = PINNED_PROFILES[key]
        memory = PhysicalMemory(1 << 17, name, seed=seed)
        assert memory.contiguity_signature() == free
        assert memory.background_frames == background
        # The generator ends where the unbatched draws left it.
        profile = PROFILES[name]
        rng = spawn_rng(seed, "fragmentation", name)
        BuddyAllocator(1 << 17).fragment(
            rng, profile.hold_fraction, profile.order_range)
        assert int(rng.integers(0, 1 << 62)) == next_draw
