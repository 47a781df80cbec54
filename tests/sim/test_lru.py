"""The vectorised LRU kernel against the scalar TLB, access for access."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hw.tlb import KEY_MASK, TAG_SHIFT, SetAssociativeTLB
from repro.sim import lru
from repro.sim.lru import (
    collapse_runs,
    isin_sorted,
    simulate_block,
    simulate_touched,
)
from repro.vmos.mapping import KeyIndex, sorted_arrays


def reference_hits(tlb: SetAssociativeTLB, sets, keys) -> np.ndarray:
    """Drive the scalar TLB: lookup, insert-on-miss, per access."""
    hits = np.zeros(len(keys), dtype=bool)
    for i, (index, key) in enumerate(zip(sets, keys)):
        if tlb.lookup(index, key) is not None:
            hits[i] = True
        else:
            tlb.insert(index, key, key * 3 + 1)
    return hits


def run_both(entries, ways, sets, keys, seed_entries=()):
    scalar = SetAssociativeTLB(entries, ways)
    batched = SetAssociativeTLB(entries, ways)
    for index, key in seed_entries:
        scalar.insert(index, key, key * 3 + 1)
        batched.insert(index, key, key * 3 + 1)
    sets = np.asarray(sets, dtype=np.int64)
    keys = np.asarray(keys, dtype=np.int64)
    expected = reference_hits(scalar, sets.tolist(), keys.tolist())
    got = simulate_block(batched, sets, keys, keys * 3 + 1)
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
        empty = np.empty(0, dtype=np.int64)
        out = simulate_block(tlb, empty, empty, empty)
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
            scalar.set_tag(tag)
            batched.set_tag(tag)
            expected = np.zeros(len(block), dtype=bool)
            for i, key in enumerate(block):
                if scalar.lookup(key, key) is not None:
                    expected[i] = True
                else:
                    scalar.insert(key, key, ("value", tag, key))
            keys = np.asarray(block, dtype=np.int64)

            def tagged_values(rows, tag=tag, keys=keys):
                return [("value", tag, key) for key in keys[rows].tolist()]

            got = simulate_block(batched, keys, keys, tagged_values)
            assert got.tolist() == expected.tolist()
            assert batched.state() == scalar.state()

    @pytest.mark.parametrize("entries,ways", GEOMETRIES)
    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.lists(st.tuples(st.integers(1, 4), st.integers(0, 11)),
                      min_size=1, max_size=120),
        seeded=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 11)),
                        max_size=12),
        register=st.integers(0, 4),
    )
    def test_property_mixed_tag_rows(self, entries, ways, rows, seeded,
                                     register):
        """A fleet round in one call: rows of mixed tags, each key
        carrying its own tag above TAG_SHIFT, leave the same hits and
        state as the scalar lookup/insert loop with the tag switched per
        row — whatever tag the array's register holds, and with
        residents of several tags in the touched sets."""
        scalar = SetAssociativeTLB(entries, ways)
        batched = SetAssociativeTLB(entries, ways)
        for tag, key in seeded:
            for tlb in (scalar, batched):
                tlb.set_tag(tag)
                tlb.insert(key, key, ("value", tag, key))
        batched.set_tag(register)
        expected = np.zeros(len(rows), dtype=bool)
        for i, (tag, key) in enumerate(rows):
            scalar.set_tag(tag)
            if scalar.lookup(key, key) is not None:
                expected[i] = True
            else:
                scalar.insert(key, key, ("value", tag, key))
        keys = np.asarray([key | tag << TAG_SHIFT for tag, key in rows],
                          dtype=np.int64)
        got = simulate_block(
            batched, keys, keys,
            lambda rows: [("value", key >> TAG_SHIFT, key & KEY_MASK)
                          for key in keys[rows].tolist()])
        assert got.tolist() == expected.tolist()
        assert batched.state() == scalar.state()

    def test_function_form_reads_only_surviving_rows(self):
        """A block touching two of four sets: the function form is
        called once, with exactly the rows that leave a key resident —
        each key's last access row — while the touched sets' unaccessed
        entries keep their values and relative order, and the other sets
        are left exactly as they were."""
        tlb = SetAssociativeTLB(16, 4)
        for key in range(16):
            tlb.insert(key, key, ("resident", key))
        before = tlb.state()
        # Set 0 holds 0, 4, 8, 12 and set 1 holds 1, 5, 9, 13 (LRU ->
        # MRU).  Key 4 hits, four new keys push it out, and its return
        # evicts 16; keys 1 and 5 hit.
        block = [4, 1, 16, 20, 24, 28, 5, 4]
        calls = []

        def fills(rows):
            calls.append(rows.tolist())
            return [("fresh", row) for row in rows.tolist()]

        keys = np.asarray(block, dtype=np.int64)
        hits = simulate_block(tlb, keys, keys, fills)
        assert hits.tolist() == [True, True, False, False, False, False,
                                 True, False]
        # Row 0 (key 4's first access) and row 2 (key 16, evicted in
        # the block) are never read.
        assert len(calls) == 1
        assert sorted(calls[0]) == [1, 3, 4, 5, 6, 7]
        after = tlb.state()
        assert after[0] == [(20, ("fresh", 3)), (24, ("fresh", 4)),
                            (28, ("fresh", 5)), (4, ("fresh", 7))]
        assert after[1] == [(9, ("resident", 9)), (13, ("resident", 13)),
                            (1, ("fresh", 1)), (5, ("fresh", 6))]
        assert after[2:] == before[2:]

    @pytest.mark.parametrize("entries,ways", [(4, 4), (16, 4)],
                             ids=["one-set", "four-sets"])
    def test_last_row_value_wins(self, entries, ways):
        """A key accessed twice with different row values holds its
        last row's value, whether the second access hits or the key
        was resident before the block."""
        tlb = SetAssociativeTLB(entries, ways)
        tlb.insert(9, 9, 0)
        keys = np.asarray([5, 7, 5, 9], dtype=np.int64)
        hits = simulate_block(tlb, keys, keys,
                              np.asarray([10, 20, 30, 40], dtype=np.int64))
        assert hits.tolist() == [False, False, True, True]
        stored = dict(item for bucket in tlb.state() for item in bucket)
        assert stored == {5: 30, 7: 20, 9: 40}

    @pytest.mark.parametrize("values, kind", [
        (np.arange(6, dtype=np.int64) * 3, int),
        (np.arange(6, dtype=np.int32), int),
        (np.ones(6, dtype=bool), bool),
    ], ids=["int64", "int32", "bool"])
    def test_stored_values_are_python_scalars(self, values, kind):
        """Array values are stored as the scalar loop stores them: plain
        ``int`` or ``bool``, never numpy scalars (which ``state()``'s
        ``==`` would not tell apart)."""
        tlb = SetAssociativeTLB(8, 2)
        keys = np.asarray([1, 2, 3, 1, 6, 2], dtype=np.int64)
        simulate_block(tlb, keys, keys, values)
        stored = [value for bucket in tlb.state() for _, value in bucket]
        assert stored
        assert all(type(value) is kind for value in stored)


def touched_reference(tlb: SetAssociativeTLB, rows) -> list[bool]:
    """The scalar flow :func:`simulate_touched` batches: a touch row
    promotes its key if resident; any other row promotes or inserts,
    and leaves its own value (the last row's value wins)."""
    found = []
    for key, touch, value in rows:
        found.append(tlb.lookup(key, key) is not None)
        if not touch:
            tlb.insert(key, key, value)
    return found


def run_touched(entries, ways, rows, seeded=(), tag=0):
    """``rows`` of ``(key, touch)`` through the reference and through
    :func:`simulate_touched`, from the same ``seeded`` state; returns
    the batched side's ``before`` dict after asserting equal hits and
    state."""
    scalar = SetAssociativeTLB(entries, ways)
    batched = SetAssociativeTLB(entries, ways)
    for tlb in (scalar, batched):
        tlb.set_tag(tag)
        for key in seeded:
            tlb.insert(key, key, ("seeded", key))
    valued = [(key, touch, ("row", i)) for i, (key, touch) in enumerate(rows)]
    expected = touched_reference(scalar, valued)
    keys = np.asarray([key for key, _ in rows], dtype=np.int64)
    touches = np.asarray([flag for _, flag in rows], dtype=bool)

    def fills(picked):
        assert not touches[picked].any()    # a touch never fills
        return [("row", i) for i in picked.tolist()]

    hits, before = simulate_touched(batched, keys, keys, touches, fills)
    assert hits.tolist() == expected
    assert batched.state() == scalar.state()
    return before


#: Seven keys of set 0 in a 5-way, two-set array, and the block-start
#: content A..E (A at LRU).
A, B, C, D, E, F, G = range(0, 14, 2)


def touch(key):
    return (key, True)


def row(key):
    return (key, False)


def alternate(*keys):
    """Five ordinary rows over two keys: five rows, two distinct."""
    first, second = keys
    return [row(first), row(second), row(first), row(second), row(first)]


#: One set's stream with every certificate.  Row 0's touch is a sure hit
#: by depth (A at LRU, nothing before it), row 1's a no-op (F absent and
#: not yet inserted); four touches follow five rows over two keys after
#: their key's ordinary row (uncertain: cut); G's touch two rows after
#: its ordinary row is a sure hit; A's last touch follows five distinct
#: keys (a sure no-op).  Set 1 interleaves a few rows of its own.
DESIGNED = [
    touch(A), touch(F),
    row(A), *alternate(B, C), touch(A),
    row(D), (1, False), *alternate(B, C), touch(D),
    row(E), *alternate(B, C), touch(E), (3, True),
    row(F), *alternate(B, C), touch(F),
    row(G), row(B), touch(G),
    row(A), row(B), row(C), row(D), row(E), row(F), touch(A),
    row(G), (1, True),
]


@pytest.fixture
def kernel_calls(monkeypatch):
    """The keys of every :func:`simulate_block` call, one list each."""
    calls = []
    kernel = lru.simulate_block

    def spy(tlb, sets, keys, values):
        calls.append(keys.tolist())
        return kernel(tlb, sets, keys, values)

    monkeypatch.setattr(lru, "simulate_block", spy)
    return calls


class TestSimulateTouched:
    def test_designed_stream_takes_one_round_per_cut(self, kernel_calls):
        """Exactly the four uncertain touches cut: five kernel calls,
        carrying every ordinary row plus the two sure hits of set 0 and
        set 1's touch of a key it just accessed, and nothing else."""
        before = run_touched(10, 5, DESIGNED, seeded=(A, B, C, D, E, 1))
        ordinary = sum(1 for _, flag in DESIGNED if not flag)
        assert len(kernel_calls) == 5
        assert sum(map(len, kernel_calls)) == ordinary + 3
        assert before == {key: ("seeded", key) for key in (A, B, C, D, E, 1)}

    def test_dead_touches_leave_one_call(self, kernel_calls):
        """A touch whose key is neither resident nor inserted anywhere
        in the block is dropped: no cut, one call."""
        run_touched(10, 5, [row(key) for key in (A, B, A, 1, C)] + [touch(G)],
                    seeded=(B,))
        assert len(kernel_calls) == 1

    @pytest.mark.parametrize("entries,ways", GEOMETRIES)
    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.lists(st.tuples(st.integers(0, 13), st.booleans()),
                      min_size=1, max_size=150),
        seeded=st.lists(st.integers(0, 13), max_size=16),
        tag=st.integers(0, 3),
    )
    @example(rows=DESIGNED, seeded=[A, B, C, D, E], tag=0)
    def test_property_matches_scalar_flow(self, entries, ways, rows, seeded,
                                          tag):
        run_touched(entries, ways, rows, seeded, tag)


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

