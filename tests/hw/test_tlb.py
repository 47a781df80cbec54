"""Tests for the generic TLB arrays, including an LRU reference model."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.tlb import SetAssociativeTLB


class TestSetAssociative:
    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            SetAssociativeTLB(10, 3)       # not a multiple
        with pytest.raises(ValueError):
            SetAssociativeTLB(24, 4)       # 6 sets, not pow2
        with pytest.raises(ValueError):
            SetAssociativeTLB(0, 1)

    def test_geometry_of_table3(self):
        for entries, ways in ((1024, 8), (768, 6), (320, 5), (64, 4), (32, 4)):
            tlb = SetAssociativeTLB(entries, ways)
            assert tlb.sets * tlb.ways == entries

    def test_miss_then_hit(self):
        tlb = SetAssociativeTLB(8, 2)
        assert tlb.lookup(0, 42) is None
        tlb.insert(0, 42, "v")
        assert tlb.lookup(0, 42) == "v"

    def test_index_masked(self):
        tlb = SetAssociativeTLB(8, 2)  # 4 sets
        tlb.insert(5, 1, "x")
        assert tlb.lookup(1, 1) == "x"  # 5 & 3 == 1

    def test_capacity_per_set(self):
        tlb = SetAssociativeTLB(8, 2)
        tlb.insert(0, 1, "a")
        tlb.insert(0, 2, "b")
        tlb.insert(0, 3, "c")  # evicts LRU (1)
        assert tlb.lookup(0, 1) is None
        assert tlb.lookup(0, 2) == "b"
        assert tlb.lookup(0, 3) == "c"

    def test_hit_refreshes_lru(self):
        tlb = SetAssociativeTLB(8, 2)
        tlb.insert(0, 1, "a")
        tlb.insert(0, 2, "b")
        tlb.lookup(0, 1)        # 1 becomes MRU
        tlb.insert(0, 3, "c")   # evicts 2
        assert tlb.lookup(0, 1) == "a"
        assert tlb.lookup(0, 2) is None

    def test_reinsert_updates_value(self):
        tlb = SetAssociativeTLB(8, 2)
        tlb.insert(0, 1, "a")
        tlb.insert(0, 1, "a2")
        assert tlb.lookup(0, 1) == "a2"
        assert tlb.occupancy == 1

    def test_invalidate(self):
        tlb = SetAssociativeTLB(8, 2)
        tlb.insert(0, 1, "a")
        assert tlb.invalidate(0, 1)
        assert not tlb.invalidate(0, 1)
        assert tlb.lookup(0, 1) is None

    def test_flush(self):
        tlb = SetAssociativeTLB(8, 2)
        for key in range(8):
            tlb.insert(key, key, key)
        tlb.flush()
        assert tlb.occupancy == 0

    def test_sets_are_independent(self):
        tlb = SetAssociativeTLB(8, 2)
        for key in (0, 4, 8, 12):  # all map to set 0 of 4 sets
            tlb.insert(key, key, key)
        tlb.insert(1, 1, 1)
        assert tlb.lookup(1, 1) == 1
        assert tlb.occupancy == 3

    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 30)),
                    min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_property_matches_reference_lru(self, ops):
        """Differential test against a per-set OrderedDict LRU model."""
        tlb = SetAssociativeTLB(8, 2)
        model = [OrderedDict() for _ in range(4)]
        for is_insert, key in ops:
            index = key & 3
            if is_insert:
                tlb.insert(index, key, key * 10)
                bucket = model[index]
                if key in bucket:
                    del bucket[key]
                elif len(bucket) >= 2:
                    bucket.popitem(last=False)
                bucket[key] = key * 10
            else:
                got = tlb.lookup(index, key)
                bucket = model[index]
                expected = bucket.get(key)
                if expected is not None:
                    bucket.move_to_end(key)
                assert got == expected


class TestFullyAssociative:
    """A one-set array (``ways == entries``) is fully associative: the
    page-walk caches' levels are such arrays, keyed by their own set."""

    def test_validation(self):
        with pytest.raises(ValueError):
            SetAssociativeTLB(0, 0)

    def test_lru_eviction(self):
        tlb = SetAssociativeTLB(2, 2)
        tlb.insert(1, 1, "a")
        tlb.insert(2, 2, "b")
        tlb.lookup(1, 1)
        tlb.insert(3, 3, "c")
        assert tlb.lookup(2, 2) is None
        assert tlb.lookup(1, 1) == "a"
        assert tlb.lookup(3, 3) == "c"

    def test_flush_and_occupancy(self):
        tlb = SetAssociativeTLB(4, 4)
        tlb.insert(1, 1, "a")
        assert tlb.occupancy == 1
        tlb.flush()
        assert tlb.occupancy == 0

    def test_values(self):
        tlb = SetAssociativeTLB(4, 4)
        tlb.insert(1, 1, "a")
        tlb.insert(2, 2, "b")
        assert tlb.state() == [[(1, "a"), (2, "b")]]