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

1. replay the array's current entries as a synthetic prefix so the
   window logic sees the pre-block state;
2. group the stream by set and link each access to the previous
   occurrence of its key (two packed non-stable sorts — equivalent to
   stable argsorts because the packed values are unique, and several
   times faster);
3. certify the easy cases vectorially: a gap of at most ``ways`` to
   the previous occurrence is a certain hit (at most ``ways - 1``
   intervening accesses cannot evict); no previous occurrence is a
   certain miss; a window of ``ways`` pairwise-distinct accesses after
   the previous occurrence (checked with a windowed maximum over the
   ``prev`` links) is a certain miss; ``ways`` first-in-window
   accesses inside any fixed-width window right after the previous
   occurrence (a prefix sum per width) is a certain miss too —
   the multi-scale pass that keeps high-turnover streams like the
   page-walk caches' PD level off the exact resolver;
4. resolve the few remaining accesses with an exact per-access
   distinct-count walk;
5. rebuild each set's final content — the last ``ways`` distinct keys
   in recency order — directly into the array's dicts.

Preconditions (asserted by the parity suite rather than at runtime,
since they hold by construction for every caller):

* every occurrence of a key uses the same set index (true here because
  the set index is always derived from the key);
* ``value_of(key)`` returns the value the scalar path would have left
  stored for ``key`` at the end of the block — for a key the block
  never accesses, its resident value (true because shootdowns keep
  resident TLB values consistent with the current OS mapping).
"""

from __future__ import annotations

import numpy as np

from repro.hw.tlb import KEY_MASK, TAG_SHIFT

__all__ = [
    "SortedMembership",
    "collapse_runs",
    "isin_sorted",
    "lookup_sorted",
    "previous_occurrence",
    "simulate_assoc_block",
    "simulate_block",
    "sorted_arrays",
]


def sorted_arrays(table: dict) -> tuple[np.ndarray, np.ndarray]:
    """A dict of int -> int as parallel sorted key/value arrays."""
    keys = np.fromiter(table.keys(), dtype=np.int64, count=len(table))
    values = np.fromiter(table.values(), dtype=np.int64, count=len(table))
    order = np.argsort(keys)
    return keys[order], values[order]


class SortedMembership:
    """Vectorised mapped-ness pre-check over a static key set.

    Batched schemes must know *before* touching any state whether a
    block contains an unmapped page (if so, they replay the block
    through the scalar loop, which faults at exactly the right
    reference).  Contiguously mapped key sets — the common case — are
    checked with two min/max passes instead of a searchsorted per key.
    """

    def __init__(self, keys) -> None:
        arr = np.fromiter(keys, dtype=np.int64, count=len(keys))
        arr.sort()
        self.keys = arr
        self.contiguous = bool(
            arr.size and int(arr[-1]) - int(arr[0]) + 1 == arr.size)

    def contains_all(self, values: np.ndarray) -> bool:
        if values.size == 0:
            return True
        if self.keys.size == 0:
            return False
        if self.contiguous:
            return (int(values.min()) >= int(self.keys[0])
                    and int(values.max()) <= int(self.keys[-1]))
        return bool(isin_sorted(self.keys, values).all())

    def mask(self, values: np.ndarray) -> np.ndarray:
        """Per-element membership."""
        if self.keys.size == 0:
            return np.zeros(values.shape, dtype=bool)
        if self.contiguous:
            return (values >= self.keys[0]) & (values <= self.keys[-1])
        return isin_sorted(self.keys, values)


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


def lookup_sorted(
    sorted_keys: np.ndarray,
    sorted_values: np.ndarray,
    queries: np.ndarray,
    default: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised dict lookup against parallel sorted key/value arrays.

    Returns ``(values, found)``; missing queries get ``default``.
    Contiguous key spaces (dense page tables, the common benchmark
    shape) resolve with a range test and one gather instead of a
    searchsorted per query.
    """
    count = sorted_keys.size
    if count == 0:
        return (np.full(queries.shape, default, dtype=np.int64),
                np.zeros(queries.shape, dtype=bool))
    if int(sorted_keys[-1]) - int(sorted_keys[0]) + 1 == count:
        base = np.int64(sorted_keys[0])
        found = (queries >= base) & (queries < base + count)
        idx = np.where(found, queries - base, np.int64(0))
    else:
        idx = np.searchsorted(sorted_keys, queries)
        idx[idx == count] = 0
        found = sorted_keys[idx] == queries
    values = np.where(found, sorted_values[idx], default)
    return values, found


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

    Used by fast paths whose per-access outcome depends on the *last
    same-key access* rather than on array residency alone (e.g. CoLT,
    where a resident coalesced entry covers the probe iff the probe
    shares a contiguity run with the entry's builder).  Keys must be
    non-negative.
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


def simulate_assoc_block(tlb, keys: np.ndarray, value_of):
    """:func:`simulate_block` over a fully associative array (one set)."""
    return simulate_block(
        tlb, np.zeros(keys.shape[0], dtype=np.int64), keys, value_of)


def simulate_block(tlb, set_indices: np.ndarray, keys: np.ndarray, value_of):
    """Drive ``(set_indices[i], keys[i])`` accesses through ``tlb``.

    Equivalent to ``lookup(set, key)`` followed by
    ``insert(set, key, value_of(key))`` on a miss, for every position in
    order.  Mutates ``tlb`` to its final state and returns a boolean
    hit array.

    Final values follow one rule on every path: each key of the current
    address space resident after the block holds ``value_of(key)``,
    hits included.  A hit therefore refreshes the stored value, which
    is what schemes whose scalar probe can hit the array, find its slot
    uncovered, and rebuild the entry in place (CoLT, cluster) rely on.

    When the array carries a nonzero address-space tag (``tlb.tag``),
    the incoming keys are packed with that tag exactly as the scalar
    ``lookup``/``insert`` methods pack theirs, so tagged lookups stay
    vectorised: other tenants' resident entries never match (their keys
    differ in the high bits) but still occupy ways and age through LRU —
    the shared-TLB contention.  Foreign-tag entries surviving into the
    final state keep their *resident* values (captured before the block)
    because ``value_of`` can only resolve the current tenant's keys.
    """
    n = keys.shape[0]
    hits = np.zeros(n, dtype=bool)
    buckets = tlb._sets
    if n == 0:
        return hits
    ways = tlb.ways
    mask = tlb.index_mask
    tag = getattr(tlb, "tag", 0)
    if tag:
        keys = keys | np.int64(tag << TAG_SHIFT)

    max_key = int(keys.max())
    if int(keys.min()) == max_key:
        # Single distinct key (constant streams — the upper page-walk
        # cache levels, single-page blocks): one promote-or-insert, all
        # later accesses certain hits.  Same key means same set.
        key = max_key
        bucket = buckets[int(set_indices[0]) & mask]
        hits[:] = True
        if key in bucket:
            del bucket[key]          # promote
        else:
            hits[0] = False
            if len(bucket) >= ways:
                del bucket[next(iter(bucket))]
        bucket[key] = value_of(key & KEY_MASK if tag else key)
        return hits

    # Synthetic prefix: replaying the resident entries (LRU -> MRU)
    # into an empty array reproduces the current state exactly, so the
    # windowed logic below needs no special initial-state handling.
    pre_keys: list[int] = []
    pre_sets: list[int] = []
    pre_values: dict[int, object] = {}
    for index, bucket in enumerate(buckets):
        if bucket:
            pre_keys.extend(bucket)
            pre_sets.extend([index] * len(bucket))
            if tag:
                pre_values.update(bucket)
    n0 = len(pre_keys)
    if n0:
        all_keys = np.concatenate(
            [np.asarray(pre_keys, dtype=np.int64), keys])
    else:
        all_keys = np.asarray(keys, dtype=np.int64)
    total = n0 + n
    if pre_keys:
        max_key = max(max_key, max(pre_keys))

    idx = np.arange(total, dtype=np.int32)
    if mask == 0:
        # Fully associative array (the page-walk-cache levels): grouping
        # by set is the identity, so skip the grouping sort entirely.
        min_key = int(all_keys.min())
        key_range = max_key - min_key + 1
        if key_range <= max(64, 2 * ways):
            # Scatter probe: with a small key range, first/last
            # occurrences come from two plain fancy scatters — no sort.
            # If the distinct keys all fit in the set, nothing is ever
            # evicted and hits/final state follow immediately (the
            # upper page-walk-cache levels every block).
            dense = (all_keys - min_key).astype(np.int32, copy=False)
            first_at = np.full(key_range, total, dtype=np.int32)
            first_at[dense[::-1]] = idx[::-1]
            last_at = np.full(key_range, -1, dtype=np.int32)
            last_at[dense] = idx
            live = np.flatnonzero(last_at >= 0)
            if live.shape[0] <= ways:
                hits[:] = (idx > first_at[dense])[n0:]
                recency = live[np.argsort(last_at[live])]  # LRU -> MRU
                bucket = buckets[int(set_indices[0]) & mask]
                resident = dict(bucket)
                bucket.clear()
                for k in (recency + min_key).tolist():
                    key = int(k)
                    if tag and key >> TAG_SHIFT != tag:
                        bucket[key] = resident[key]
                    else:
                        bucket[key] = value_of(
                            key & KEY_MASK if tag else key)
                return hits
        g_pos = idx
        g_keys = all_keys
        g_sets = np.zeros(1, dtype=np.int64)
        seg_bounds = np.zeros(1, dtype=np.int32)
        seg_start = np.int32(0)
    else:
        # Group by set, preserving order within each set.
        if n0:
            all_sets = np.concatenate(
                [np.asarray(pre_sets, dtype=np.int64), set_indices & mask])
        else:
            all_sets = set_indices & mask
        g_sets, g_pos = _sort_with_positions(all_sets, mask)
        g_keys = all_keys[g_pos]
        seg_bounds = np.flatnonzero(
            np.r_[True, g_sets[1:] != g_sets[:-1]]).astype(np.int32)
        seg_sizes = np.diff(np.append(seg_bounds, np.int32(total)))
        seg_start = np.repeat(seg_bounds, seg_sizes)

    # prev[i]: grouped position of the previous access to the same key
    # (-1 if none).  Same key implies same set, so linking over the
    # whole grouped array stays within one segment.
    s_keys, s_pos = _sort_with_positions(g_keys, max_key)
    s_pos = s_pos.astype(np.int32, copy=False)
    prev = np.empty(total, dtype=np.int32)
    prev[s_pos[1:]] = np.where(
        s_keys[1:] == s_keys[:-1], s_pos[:-1], np.int32(-1))
    prev[s_pos[0]] = -1

    gap = idx - prev
    # The sorted keys are already in hand, so the stream's distinct-key
    # count is one comparison pass.  When every key fits in one set
    # (per-set distinct can only be smaller) nothing is ever evicted:
    # every revisit hits, every first sight misses, and the whole
    # certify/resolve machinery below is skipped — the common shape for
    # the upper page-walk-cache levels, whose tag space is tiny.
    distinct_total = 1 + int(np.count_nonzero(s_keys[1:] != s_keys[:-1]))
    if distinct_total <= ways:
        g_hits = prev >= 0
        unresolved = np.empty(0, dtype=np.int32)
    else:
        certain_hit = (prev >= 0) & (gap <= ways)
        # Windowed max of prev over the last `ways` positions: if every
        # one of those accesses saw its key for the first time since
        # before the window, they are `ways` pairwise-distinct keys, all
        # different from key i (whose own prev is older still) — a
        # certain eviction.
        w_start = idx - np.int32(ways)
        w_max = np.full(total, -1, dtype=np.int32)
        if ways > 4 and total > ways:
            # van Herk / Gil-Werman: sliding-window max in three passes
            # (block prefix/suffix maxima) instead of `ways` shifted
            # passes.  -1 padding is neutral (prev >= -1 everywhere).
            pad = (-total) % ways
            padded = (np.concatenate([prev, np.full(pad, -1, dtype=np.int32)])
                      if pad else prev)
            blocks = padded.reshape(-1, ways)
            prefix = np.maximum.accumulate(blocks, axis=1).ravel()
            suffix = np.maximum.accumulate(
                blocks[:, ::-1], axis=1)[:, ::-1].ravel()
            # max over the closed window [j - ways + 1, j] ...
            win = np.maximum(suffix[:total - ways + 1], prefix[ways - 1:total])
            # ... shifted so w_max[i] covers [i - ways, i - 1].
            w_max[ways:] = win[:total - ways]
        else:
            for w in range(1, ways + 1):
                np.maximum(w_max[w:], prev[:-w], out=w_max[w:])
        certain_miss = (prev < 0) | (
            (gap > ways) & (w_start >= seg_start) & (w_max < w_start))

        g_hits = certain_hit
        unresolved = np.flatnonzero(
            ~(certain_hit | certain_miss)).astype(np.int32)

    # Multi-scale miss certification for the survivors: for a fixed
    # width w, an access j with prev[j] < j - w inside the window
    # (p, p + w] is a first occurrence after p = prev[i] (j <= p + w
    # forces prev[j] <= p), so counting them — one boolean pass and one
    # prefix sum, shared by every unresolved access — lower-bounds the
    # distinct keys strictly inside (p, i), none of which is key i.
    # `ways` of them certify the eviction.  High-turnover single-set
    # streams (the PD page-walk cache: hundreds of hot tags through 32
    # ways) land almost entirely here instead of on the quadratic
    # resolver below.
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

    # Final state: the last `ways` distinct keys of each touched set,
    # found by scanning a geometrically growing tail of the segment
    # (np.unique of the reversed tail yields last occurrences).
    seg_ends = np.append(seg_bounds[1:], total)
    for s0, s1 in zip(seg_bounds.tolist(), seg_ends.tolist()):
        length = 4 * ways
        while True:
            lo = max(s0, s1 - length)
            reversed_tail = g_keys[lo:s1][::-1]
            _, first_at = np.unique(reversed_tail, return_index=True)
            if first_at.size >= ways or lo == s0:
                break
            length *= 8
        first_at.sort()
        recent = reversed_tail[first_at[:ways]]  # MRU first
        bucket = buckets[int(g_sets[s0])]
        bucket.clear()
        if tag:
            for key in recent[::-1].tolist():
                if key >> TAG_SHIFT == tag:
                    bucket[key] = value_of(key & KEY_MASK)
                else:
                    bucket[key] = pre_values[key]
        else:
            for key in recent[::-1].tolist():
                bucket[key] = value_of(key)
    return hits
