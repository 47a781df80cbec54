"""The vectorised LRU kernel against the scalar TLB, access for access."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hw.tlb import SetAssociativeTLB
from repro.sim.lru import (
    SortedMembership,
    collapse_runs,
    isin_sorted,
    lookup_sorted,
    simulate_block,
    sorted_arrays,
)


def value_of(key: int) -> int:
    return key * 3 + 1


def reference_hits(tlb: SetAssociativeTLB, sets, keys) -> np.ndarray:
    """Drive the scalar TLB: lookup, insert-on-miss, per access."""
    hits = np.zeros(len(keys), dtype=bool)
    for i, (index, key) in enumerate(zip(sets, keys)):
        if tlb.lookup(index, key) is not None:
            hits[i] = True
        else:
            tlb.insert(index, key, value_of(key))
    return hits


def run_both(entries, ways, sets, keys, seed_entries=()):
    scalar = SetAssociativeTLB(entries, ways)
    batched = SetAssociativeTLB(entries, ways)
    for index, key in seed_entries:
        scalar.insert(index, key, value_of(key))
        batched.insert(index, key, value_of(key))
    sets = np.asarray(sets, dtype=np.int64)
    keys = np.asarray(keys, dtype=np.int64)
    expected = reference_hits(scalar, sets.tolist(), keys.tolist())
    got = simulate_block(batched, sets, keys, value_of)
    assert got.tolist() == expected.tolist()
    assert batched.state() == scalar.state()


#: (entries, ways); (1, 1) and (4, 4) are one-set arrays, which run the
#: fully associative paths.
GEOMETRIES = [(1, 1), (4, 2), (4, 4), (8, 2), (8, 4), (16, 4), (64, 8)]


class TestSimulateBlock:
    @pytest.mark.parametrize("entries,ways", GEOMETRIES)
    def test_random_traces(self, entries, ways):
        rng = np.random.default_rng(entries * 31 + ways)
        for universe in (ways, ways + 1, 4 * ways, 64 * ways):
            keys = rng.integers(0, universe, size=500)
            run_both(entries, ways, keys, keys)

    @pytest.mark.parametrize("entries,ways", GEOMETRIES)
    def test_preseeded_state(self, entries, ways):
        rng = np.random.default_rng(7)
        seed = [(int(k), int(k)) for k in rng.integers(0, 4 * ways, size=3 * ways)]
        keys = rng.integers(0, 4 * ways, size=300)
        run_both(entries, ways, keys, keys, seed_entries=seed)

    def test_set_and_key_decoupled(self):
        # Callers may derive the set index from the key any way they
        # like, as long as it is a function of the key.
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 64, size=400)
        run_both(16, 2, keys >> 2, keys)

    def test_run_heavy_trace_hits_step_cap(self):
        # One hot key pounded between two occurrences of a cold key:
        # the back-walk exceeds its step cap and must escape to the
        # exact windowed count.
        ways = 4
        keys = [99] + [1, 2] * (40 * ways) + [99]
        run_both(8, ways, [0] * len(keys), keys)

    def test_empty_block(self):
        tlb = SetAssociativeTLB(8, 2)
        out = simulate_block(
            tlb, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            value_of)
        assert out.size == 0

    @settings(max_examples=60, deadline=None)
    @given(
        keys=st.lists(st.integers(min_value=0, max_value=12),
                      min_size=1, max_size=120),
        geometry=st.sampled_from(GEOMETRIES),
    )
    def test_property_random_traces(self, keys, geometry):
        entries, ways = geometry
        run_both(entries, ways, keys, keys)

    @settings(max_examples=80, deadline=None)
    @given(
        geometry=st.sampled_from(GEOMETRIES),
        blocks=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),
                st.lists(st.integers(min_value=0, max_value=11),
                         max_size=60)),
            min_size=1, max_size=8),
    )
    @example(geometry=(4, 2), blocks=[(1, [0]), (0, [0, 1])])
    def test_property_tagged_blocks(self, geometry, blocks):
        """Tenants time-sliced over one array: each (tag, block) runs
        through a scalar and a batched array under that tag.  Hits and
        the full state match after every block, so no tag — 0
        included — disturbs another tag's entries."""
        entries, ways = geometry
        scalar = SetAssociativeTLB(entries, ways)
        batched = SetAssociativeTLB(entries, ways)
        for tag, block in blocks:
            def tagged_value(key, tag=tag):
                return ("value", tag, key)

            scalar.set_tag(tag)
            batched.set_tag(tag)
            expected = np.zeros(len(block), dtype=bool)
            for i, key in enumerate(block):
                if scalar.lookup(key, key) is not None:
                    expected[i] = True
                else:
                    scalar.insert(key, key, tagged_value(key))
            keys = np.asarray(block, dtype=np.int64)
            got = simulate_block(batched, keys, keys, tagged_value)
            assert got.tolist() == expected.tolist()
            assert batched.state() == scalar.state()

    def test_value_of_sees_only_accessed_keys(self):
        """A block touching two of four sets: ``value_of`` is asked only
        about the block's keys, the touched sets' unaccessed entries keep
        their values and relative order, and the other sets are left
        exactly as they were."""
        tlb = SetAssociativeTLB(16, 4)
        for key in range(16):
            tlb.insert(key, key, ("resident", key))
        before = tlb.state()
        # Set 0 holds 0, 4, 8, 12 and set 1 holds 1, 5, 9, 13 (LRU ->
        # MRU): hits on 4, 1, 5 and misses on 16, 0 evicting 0 and 8.
        block = [4, 1, 16, 0, 5]
        asked = []

        def spy(key):
            asked.append(key)
            return ("fresh", key)

        keys = np.asarray(block, dtype=np.int64)
        hits = simulate_block(tlb, keys, keys, spy)
        assert hits.tolist() == [True, True, False, False, True]
        assert set(asked) <= set(block)
        after = tlb.state()
        # Unaccessed survivors first, in their old order and with their
        # old values; then the block's keys by last access, hits
        # included, holding value_of's values.
        assert after[0] == [(12, ("resident", 12)), (4, ("fresh", 4)),
                            (16, ("fresh", 16)), (0, ("fresh", 0))]
        assert after[1] == [(9, ("resident", 9)), (13, ("resident", 13)),
                            (1, ("fresh", 1)), (5, ("fresh", 5))]
        assert after[2:] == before[2:]


class TestHelpers:
    def test_collapse_runs(self):
        vpns = np.asarray([5, 5, 5, 2, 2, 7, 5, 5], dtype=np.int64)
        assert collapse_runs(vpns).tolist() == [5, 2, 7, 5]
        assert collapse_runs(np.empty(0, dtype=np.int64)).size == 0

    def test_isin_sorted(self):
        table = np.asarray([2, 5, 9], dtype=np.int64)
        probes = np.asarray([1, 2, 5, 9, 10], dtype=np.int64)
        assert isin_sorted(table, probes).tolist() == [
            False, True, True, True, False]

    def test_lookup_sorted(self):
        keys, values = sorted_arrays({5: 50, 2: 20, 9: 90})
        out, found = lookup_sorted(
            keys, values, np.asarray([2, 3, 9, 11], dtype=np.int64),
            default=-1)
        assert out.tolist() == [20, -1, 90, -1]
        assert found.tolist() == [True, False, True, False]

    def test_sorted_membership_contiguous_and_sparse(self):
        dense = SortedMembership({10: 1, 11: 1, 12: 1})
        assert dense.contiguous
        assert dense.contains_all(np.asarray([10, 12], dtype=np.int64))
        assert not dense.contains_all(np.asarray([9], dtype=np.int64))
        sparse = SortedMembership({10: 1, 12: 1})
        assert not sparse.contiguous
        assert sparse.mask(np.asarray([10, 11, 12], dtype=np.int64)).tolist() \
            == [True, False, True]
        empty = SortedMembership({})
        assert not empty.contains_all(np.asarray([1], dtype=np.int64))
        assert empty.contains_all(np.empty(0, dtype=np.int64))
