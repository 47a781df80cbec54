"""Vectorised set-associative LRU simulation (the batched fast path).

The TLB arrays in :mod:`repro.hw.tlb` are *promote-or-insert* LRU
structures: every access either promotes its key to MRU (a hit) or
inserts it at MRU, evicting the LRU entry on overflow (a miss).  For
such an array the content after any access sequence is history
independent — it is exactly the last ``ways`` distinct keys of the
set's access stream, in recency order — so whether access *i* hits is
decidable offline: it hits iff its key is among the ``ways`` most
recently accessed distinct keys of its set at that point.

:func:`simulate_block` exploits that to resolve a whole block of
accesses with numpy instead of one Python call per reference:

1. replay the resident entries of the sets the block touches as a
   synthetic prefix so the window logic sees the pre-block state;
2. group the stream by set and link each access to the previous
   occurrence of its key (two packed non-stable sorts — equivalent to
   stable argsorts because the packed values are unique, and several
   times faster);
3. certify the easy cases vectorially: a gap of at most ``ways`` to
   the previous occurrence is a certain hit (at most ``ways - 1``
   intervening accesses cannot evict); no previous occurrence is a
   certain miss; a window of ``ways`` pairwise-distinct accesses after
   the previous occurrence (a windowed maximum over the ``prev``
   links) is a certain miss; ``ways`` first-in-window accesses inside
   any fixed-width window right after the previous occurrence (a
   prefix sum per width) is a certain miss too — the multi-scale pass
   that keeps high-turnover streams like the page-walk caches' PD
   level off the exact resolver;
4. resolve the few remaining accesses exactly, counting the distinct
   keys in widening windows (one scan per access whose window outgrows
   65,536 positions);
5. select each touched set's final content — its last ``ways``
   distinct keys — in one pass over the ``prev`` links, and write it
   back as a delta: resident entries that were evicted or re-accessed
   leave their set's dict, keys last accessed in the block enter at
   MRU in recency order, and every other entry keeps its value and
   its place.

A call therefore costs its block plus the resident entries of the sets
it touches; sets the block never touches are neither read nor written.

Beside that one general path sits one shortcut that paid when removed
alone (EXPERIMENTS.md, "Kernel fast paths"): the multi-scale pass of
step 3, worth +7.4% engine-gups ``refs_per_s`` (9 of 10 pairs).  Three
more failed that test and are kept only to avoid a slowdown: int32
packing in the grouping and linking sorts, skipping the grouping sort
on one-set arrays, and the distance predictor inlined into
:class:`~repro.schemes.prefetch_scheme.PrefetchScheme`'s replay.  None
read "improved" alone, but without all three engine-gups ran 11.2%
below this kernel with its former single-key path, scatter probe,
van-Herk maximum and distinct-count exit, and without the inlined
predictor alone 4.9% below it (10 of 10 pairs each).

Preconditions (asserted by the parity suite rather than at runtime,
since they hold by construction for every caller):

* every occurrence of a key uses the same set index (true here because
  the set index is always derived from the key);
* ``value_of(key)`` returns the value the scalar path would insert for
  ``key`` on a miss.  It is asked only about keys the block accesses.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.hw.tlb import TAG_SHIFT

__all__ = [
    "collapse_runs",
    "isin_sorted",
    "previous_occurrence",
    "simulate_block",
]


def collapse_runs(vpns: np.ndarray) -> np.ndarray:
    """The first element of each run of consecutive equal VPNs.

    An immediately repeated reference always hits the L1 (the previous
    access left the covering entry at MRU), so batched schemes process
    only run heads and count the collapsed tail straight into
    ``l1_hits``.
    """
    n = vpns.shape[0]
    if n == 0:
        return vpns
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(vpns[1:], vpns[:-1], out=head[1:])
    return vpns[head]


def isin_sorted(sorted_keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Membership of ``values`` in an ascending-sorted key array."""
    if sorted_keys.size == 0:
        return np.zeros(values.shape, dtype=bool)
    idx = np.searchsorted(sorted_keys, values)
    idx[idx == sorted_keys.size] = 0  # out-of-range probes cannot match
    return sorted_keys[idx] == values


def _sort_with_positions(
    values: np.ndarray, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(sorted_values, positions)`` with ties broken by position.

    Packs the position into the value's low bits and runs one
    non-stable sort — the packed integers are unique, so the result
    matches a stable argsort at a fraction of the cost.  ``hi`` is the
    caller-known maximum value (all values must be non-negative); the
    stable-argsort fallback handles packings that would overflow.
    """
    total = values.shape[0]
    pos_bits = max(total - 1, 1).bit_length()
    if hi.bit_length() + pos_bits <= 31:
        # Failed the pay-or-go test; kept to avoid a slowdown (module doc).
        combo = values.astype(np.int32)
        combo <<= pos_bits
        combo |= np.arange(total, dtype=np.int32)
    elif hi.bit_length() + pos_bits <= 62:
        combo = values << pos_bits
        combo |= np.arange(total, dtype=np.int64)
    else:
        order = np.argsort(values, kind="stable")
        return values[order], order
    combo.sort()
    positions = combo & ((1 << pos_bits) - 1)
    combo >>= pos_bits
    return combo, positions


def previous_occurrence(keys: np.ndarray) -> np.ndarray:
    """``prev[i]``: position of the previous occurrence of ``keys[i]``
    in the block, or -1.

    The LRU kernel's recency links.  Also used by fast paths whose
    per-access outcome depends on the *last same-key access* rather
    than on array residency alone (e.g. CoLT, where a resident
    coalesced entry covers the probe iff the probe shares a contiguity
    run with the entry's builder).  Keys must be non-negative.
    """
    n = keys.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int32)
    s_keys, s_pos = _sort_with_positions(keys, int(keys.max()))
    s_pos = s_pos.astype(np.int32, copy=False)
    prev = np.empty(n, dtype=np.int32)
    prev[s_pos[1:]] = np.where(
        s_keys[1:] == s_keys[:-1], s_pos[:-1], np.int32(-1))
    prev[s_pos[0]] = -1
    return prev


def simulate_block(tlb, set_indices: np.ndarray, keys: np.ndarray, value_of):
    """Drive ``(set_indices[i], keys[i])`` accesses through ``tlb``.

    Equivalent to ``lookup(set, key)`` followed by
    ``insert(set, key, value_of(key))`` on a miss, for every position in
    order.  Mutates ``tlb``'s per-set dicts in place to their final
    state and returns a boolean hit array.

    Final values follow one rule: each key the block accesses that is
    resident afterwards holds ``value_of(key)``, hits included, and the
    keys sit at MRU in order of last access.  Every other entry keeps
    its value and its relative order, and ``value_of`` is asked about
    no other key.  A hit therefore refreshes the stored value, which is
    what schemes whose scalar probe can hit the array, find its slot
    uncovered, and rebuild the entry in place (CoLT, cluster) rely on.

    When the array carries a nonzero address-space tag (``tlb.tag``),
    the incoming keys are packed with that tag exactly as the scalar
    ``lookup``/``insert`` methods pack theirs, so tagged lookups stay
    vectorised: other tenants' resident entries never match (their keys
    differ in the high bits) but still occupy ways and age through LRU —
    the shared-TLB contention.  The block never accesses them, so they
    keep their values under any tag, 0 included; ``value_of`` sees the
    caller's untagged keys.
    """
    n = keys.shape[0]
    hits = np.zeros(n, dtype=bool)
    buckets = tlb._sets
    if n == 0:
        return hits
    ways = tlb.ways
    mask = tlb.index_mask
    tag = getattr(tlb, "tag", 0)
    raw_keys = keys
    if tag:
        keys = keys | np.int64(tag << TAG_SHIFT)

    # Synthetic prefix: replaying the resident entries of the touched
    # sets (LRU -> MRU) into an empty array reproduces their current
    # state exactly, so the windowed logic below needs no special
    # initial-state handling.  Other sets cannot interact with the
    # block, so they are left out.
    if mask == 0:
        resident = buckets             # the one set
    else:
        block_sets = set_indices & mask
        per_set = np.bincount(block_sets, minlength=mask + 1)
        touched = np.flatnonzero(per_set)
        resident = [buckets[index] for index in touched.tolist()]
    sizes = [len(bucket) for bucket in resident]
    n0 = sum(sizes)
    if n0:
        prefix = np.fromiter(
            chain.from_iterable(resident), dtype=np.int64, count=n0)
        all_keys = np.concatenate([prefix, keys])
    else:
        all_keys = np.asarray(keys, dtype=np.int64)
    total = n0 + n

    idx = np.arange(total, dtype=np.int32)
    if mask == 0:
        # One set (the page-walk-cache levels): grouping by set is the
        # identity, so skip the grouping sort.
        # Failed the pay-or-go test; kept to avoid a slowdown (module doc).
        g_pos = idx
        g_keys = all_keys
        g_sets = np.zeros(total, dtype=np.int64)
        seg_start = np.int32(0)
    else:
        # Group by set, preserving order within each set: one segment
        # per touched set, in ascending set order, its prefix rows
        # first.
        if n0:
            all_sets = np.concatenate(
                [np.repeat(touched, sizes), block_sets])
        else:
            all_sets = block_sets
        g_sets, g_pos = _sort_with_positions(all_sets, mask)
        g_keys = all_keys[g_pos]
        seg_sizes = per_set[touched] + np.array(sizes, dtype=np.int64)
        seg_bounds = np.cumsum(seg_sizes) - seg_sizes
        seg_start = np.repeat(seg_bounds, seg_sizes)

    # prev[i]: grouped position of the previous access to the same key
    # (-1 if none).  Same key implies same set, so linking over the
    # whole grouped array stays within one segment.
    prev = previous_occurrence(g_keys)
    gap = idx - prev
    certain_hit = (prev >= 0) & (gap <= ways)
    # Windowed max of prev over the last `ways` positions: if every one
    # of those accesses saw its key for the first time since before the
    # window, they are `ways` pairwise-distinct keys, all different from
    # key i (whose own prev is older still) — a certain eviction.
    w_start = idx - np.int32(ways)
    w_max = np.full(total, -1, dtype=np.int32)
    for w in range(1, ways + 1):
        np.maximum(w_max[w:], prev[:-w], out=w_max[w:])
    certain_miss = (prev < 0) | (
        (gap > ways) & (w_start >= seg_start) & (w_max < w_start))
    g_hits = certain_hit
    unresolved = np.flatnonzero(~(certain_hit | certain_miss)).astype(np.int32)

    # Multi-scale miss certification for the survivors: for a fixed
    # width w, an access j with prev[j] < j - w inside the window
    # (p, p + w] is a first occurrence after p = prev[i] (j <= p + w
    # forces prev[j] <= p), so counting them — one boolean pass and one
    # prefix sum, shared by every unresolved access — lower-bounds the
    # distinct keys strictly inside (p, i), none of which is key i.
    # `ways` of them certify the eviction.  High-turnover single-set
    # streams (the PD page-walk cache: hundreds of hot tags through 32
    # ways) land almost entirely here instead of on the quadratic
    # resolver below.  Earns engine-gups +7.4% refs_per_s (9/10 pairs).
    for width in (2 * ways, 4 * ways):
        # Each width pass costs O(total); below this population the
        # windowed matrix resolver is cheaper outright.
        if unresolved.size * 2 * ways <= total or width >= total:
            break
        p = prev[unresolved]
        in_span = (unresolved - p) > width        # window fits in (p, i)
        if not in_span.any():
            break
        fresh = prev < (idx - np.int32(width))
        first_seen = np.empty(total + 1, dtype=np.int32)
        first_seen[0] = 0
        np.cumsum(fresh, out=first_seen[1:])
        hi = np.minimum(p + np.int32(width + 1), np.int32(total))
        certified = in_span & (
            (first_seen[hi] - first_seen[p + 1]) >= ways)
        if certified.any():
            unresolved = unresolved[~certified]

    # Exact resolution of the remainder: key i survives iff fewer than
    # `ways` distinct keys were accessed since its previous occurrence.
    # Resolved in vectorised rounds over each unresolved access's
    # trailing window [lo, i): the distinct-key count there equals the
    # number of positions whose own prev falls before lo (their first
    # occurrence inside the window), so a gather of `prev` plus a
    # comparison replaces sorting the keys themselves.  >= `ways`
    # distinct in any subwindow is a certain miss; < `ways` over the
    # whole (prev, i) range is a hit; anything still open re-runs with
    # a wider window (the population shrinks geometrically, so a
    # handful of rounds suffice).
    length = 2 * ways
    while unresolved.size:
        p = prev[unresolved]
        span = unresolved - p - 1          # positions strictly inside (p, i)
        take = np.minimum(span, length)
        lo = unresolved - take
        offs = np.arange(1, length + 1, dtype=np.int32)
        pos = unresolved[:, None] - offs[None, :]
        distinct = ((prev[np.maximum(pos, 0)] < lo[:, None])
                    & (offs[None, :] <= take[:, None])).sum(axis=1)
        is_miss = distinct >= ways
        is_hit = ~is_miss & (take == span)
        g_hits[unresolved[is_hit]] = True
        unresolved = unresolved[~(is_miss | is_hit)]
        length *= 8
        if length > (1 << 16) and unresolved.size:
            # Degenerate streams (enormous same-key windows): one exact
            # scan per straggler.
            for i in unresolved.tolist():
                start = prev[i] + 1
                g_hits[i] = bool((prev[start:i] < start).sum() < ways)
            break

    # Scatter hits back to the caller's positions (prefix rows drop).
    if mask == 0:
        hits[:] = g_hits[n0:]          # grouping was the identity
    elif n0:
        orig = g_pos.astype(np.int64) - n0
        live = orig >= 0
        hits[orig[live]] = g_hits[live]
    else:
        hits[g_pos] = g_hits

    # Final state, in one pass over the prev links: a row is its key's
    # last access iff no later row links back to it, and a set keeps
    # the last `ways` such rows of its segment.  Prefix rows that do
    # not survive (evicted, or re-accessed in the block) leave their
    # dict; surviving block rows enter at MRU in recency order.
    last = np.ones(total + 1, dtype=bool)
    last[prev + 1] = False             # prev == -1 lands on the pad
    last = last[1:]
    rank = np.cumsum(last[::-1], dtype=np.int32)[::-1]
    if mask:
        # Count from each segment's end, not the stream's.
        rank -= np.repeat(
            np.append(rank[seg_bounds[1:]], np.int32(0)), seg_sizes)
    keep = last & (rank <= ways)
    from_prefix = g_pos < n0
    gone = np.flatnonzero(from_prefix & ~keep)
    for index, key in zip(g_sets[gone].tolist(), g_keys[gone].tolist()):
        del buckets[index][key]
    new = np.flatnonzero(keep & ~from_prefix)
    for index, key, raw in zip(g_sets[new].tolist(), g_keys[new].tolist(),
                               raw_keys[g_pos[new] - n0].tolist()):
        buckets[index][key] = value_of(raw)
    return hits
