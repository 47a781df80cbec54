"""The vectorised LRU kernel against the scalar TLB, access for access."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hw.tlb import SetAssociativeTLB
from repro.sim.lru import collapse_runs, isin_sorted, simulate_block
from repro.vmos.mapping import KeyIndex, sorted_arrays


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


#: (entries, ways); (1, 1) and (4, 4) are one-set arrays, whose
#: accesses need no grouping by set.
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
        # One hot pair pounded between two occurrences of a cold key:
        # each widening window finds only two distinct keys, until one
        # spans the whole gap and settles the cold key as a hit.
        ways = 4
        keys = [99] + [1, 2] * (40 * ways) + [99]
        run_both(8, ways, [0] * len(keys), keys)

    @pytest.mark.parametrize("entries,ways,set_of", [
        (4, 4, lambda key: 0),
        (8, 4, lambda key: key & 1),
    ], ids=["one-set", "two-sets"])
    def test_straggler_scan(self, entries, ways, set_of):
        # Key 99's two accesses lie tens of thousands of positions apart
        # in its set, with at most two distinct keys between them: the
        # resolver's widening windows stop short of the gap (they give
        # up past 65,536 positions), so it takes the one exact scan per
        # straggler.  The trailing keys take the block past `ways`
        # distinct keys.
        keys = [99] + [1, 2] * 40_000 + [99, 5, 6, 7, 8]
        run_both(entries, ways, [set_of(key) for key in keys], keys)

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


@st.composite
def key_index_cases(draw):
    """Sorted unique key sets of every shape a :class:`KeyIndex` meets,
    with queries at the keys, their grid neighbours, off-grid points,
    below the smallest key and past the largest."""
    shape = draw(st.sampled_from(
        ["contiguous", "strided", "mixed", "sparse", "single", "empty"]))
    base = draw(st.integers(0, 1 << 30))
    shift = draw(st.integers(1, 12)) if shape == "strided" else 0
    if shape == "empty":
        keys: list[int] = []
    elif shape == "single":
        keys = [base]
    elif shape == "contiguous":
        keys = list(range(base, base + draw(st.integers(1, 300))))
    else:
        slots = draw(st.lists(st.integers(0, 3000), min_size=1, max_size=200))
        keys = sorted({base + (slot << shift) for slot in slots})
        if shape == "sparse":
            keys.append(keys[-1] + (1 << 28) + draw(st.integers(1, 64)))
    near = [key + delta for key in keys
            for delta in (-(1 << shift), -1, 1, 1 << shift)]
    points = keys + near + [base - 1, base - (1 << 20), (keys or [base])[-1] + 1]
    queries = draw(st.lists(st.sampled_from(points), max_size=60))
    return keys, queries


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
        index = sorted_arrays({5: 50, 2: 20, 9: 90})
        out, found = index.lookup(
            np.asarray([2, 3, 9, 11], dtype=np.int64), default=-1)
        assert out.tolist() == [20, -1, 90, -1]
        assert found.tolist() == [True, False, True, False]

    def test_sorted_membership_contiguous_and_sparse(self):
        # A contiguous key set is the unit-step grid without holes.
        dense = sorted_arrays({10: 1, 11: 1, 12: 1})
        assert dense.shift == 0
        assert dense.rows is not None and bool(np.all(dense.rows[1:-1] >= 0))
        assert dense.contains_all(np.asarray([10, 12], dtype=np.int64))
        assert not dense.contains_all(np.asarray([9], dtype=np.int64))
        sparse = sorted_arrays({10: 1, 12: 1})
        # The gap puts both keys on a stride-2 grid, not a unit-step one.
        assert sparse.shift == 1
        assert sparse.mask(np.asarray([10, 11, 12], dtype=np.int64)).tolist() \
            == [True, False, True]
        empty = sorted_arrays({})
        assert not empty.contains_all(np.asarray([1], dtype=np.int64))
        assert empty.contains_all(np.empty(0, dtype=np.int64))

    @settings(max_examples=150, deadline=None)
    @given(case=key_index_cases())
    # Parallel lookup with a default, on a gapped key set.
    @example(case=([2, 5, 9], [2, 3, 9, 11]))
    # A contiguous set: a range of queries, and one just below it.
    @example(case=([10, 11, 12], [10, 12, 9]))
    # A hole between two keys.
    @example(case=([10, 12], [10, 11, 12]))
    # No keys at all, with and without queries.
    @example(case=([], [1]))
    @example(case=([], []))
    # One key far from the rest: past the table bound.
    @example(case=([3, 4, 5 + (1 << 28)], [2, 3, 5, 5 + (1 << 28), 6 + (1 << 28)]))
    def test_key_index_matches_dict(self, case):
        """Every query of a :class:`KeyIndex` answers like a dict, on
        the direct-indexed table and on the ``searchsorted`` side."""
        keys, queries = case
        table = {key: key * 7 - 3 for key in keys}
        queries = np.asarray(queries, dtype=np.int64)
        expected = [table.get(q) for q in queries.tolist()]
        natural = sorted_arrays(table)
        assert natural.keys.tolist() == sorted(table)
        # Only a key 2**28 past the rest outgrows the table bound.
        far = len(keys) > 1 and keys[-1] - keys[-2] > 1 << 28
        assert (natural.rows is None) == far
        indexes = [natural]
        if natural.rows is not None:
            # One row per key; every other slot is the -1 of a miss.
            assert np.count_nonzero(natural.rows >= 0) == len(table)
            assert natural.rows[0] == natural.rows[-1] == -1
            if keys:
                forced = KeyIndex(natural.keys, natural.values)
                forced.rows = None
                indexes.append(forced)
        for index in indexes:
            values, found = index.lookup(queries, default=-1)
            assert found.tolist() == [e is not None for e in expected]
            assert values.tolist() == [-1 if e is None else e for e in expected]
            assert index.mask(queries).tolist() == found.tolist()
            assert index.contains_all(queries) == all(found.tolist())
            assert index.contains_all(queries[found])
            rows = index.rows_of(queries)
            assert (rows >= 0).tolist() == found.tolist()
            assert index.keys[rows[found]].tolist() == queries[found].tolist()

