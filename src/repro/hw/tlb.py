"""The generic TLB array with true-LRU replacement.

The array stores opaque values under integer keys.  It takes the set
index from the caller because different entry types index the same
physical array with different address bits (Fig. 6: anchor entries use
VA bits [d+12, d+12+N), regular entries the usual [12, 12+N)); the
caller owns that mapping.  A one-set array (``ways == entries``) is
fully associative: the page-walk caches' levels are such arrays.

LRU is implemented with insertion-ordered dicts: a hit reinserts the
key, eviction pops the oldest.  This is exact LRU, matching the
reference model used by the property tests.

The array carries an ASID/PCID-style *tag register* for multi-tenant
sharing: ``set_tag`` selects the address-space tag of the currently
running tenant, and every ``lookup``/``insert``/``invalidate`` packs
that tag into the entry key's high bits (above :data:`TAG_SHIFT`);
``flush`` drops only that tag's entries.
Entries of different tenants therefore never alias — a lookup only hits
same-tag entries — but they do compete for the same sets and ways,
which is exactly the shared-TLB contention the fleet model measures.
Tag 0 (the default) leaves keys bit-identical to the untagged
single-process behaviour, so every existing caller is unaffected.

Every other TLB structure — the split L1, the anchor L2, cluster's
partition, RMM's range TLB, the page-walk caches — is built from such
arrays and names them in its ``arrays`` tuple; :class:`Structure`
implements the tag, flush, clone and state protocol once over that
declaration, so a wrapper keeps only its entry format and lookup
algorithm.
"""

from __future__ import annotations

import copy
from typing import TypeVar

from repro.params import is_pow2

#: Bit position of the address-space tag inside entry keys.  Scheme key
#: packings use at most ``vpn << 2 | kind`` with 48-bit virtual
#: addresses (36-bit VPNs), so bits [46, 58) are free for the tag.
TAG_SHIFT = 46

#: Width of the tag field: x86 PCIDs are 12 bits, and 46 + 12 = 58 keeps
#: tagged keys comfortably inside a non-negative int64.
TAG_BITS = 12

#: Largest representable tag (tags above this must be recycled).
MAX_TAG = (1 << TAG_BITS) - 1

#: Mask selecting the untagged part of an entry key.
KEY_MASK = (1 << TAG_SHIFT) - 1


_S = TypeVar("_S", bound="Structure")


def _check_tag(tag: int) -> int:
    if not 0 <= tag <= MAX_TAG:
        raise ValueError(f"tag must be in [0, {MAX_TAG}], got {tag}")
    return tag


class Structure:
    """The protocol every TLB structure answers, written once.

    A structure is built from :class:`SetAssociativeTLB` arrays, named
    by attribute in the class-level :attr:`arrays` tuple; a subclass
    adds only what hides an entry format or a lookup algorithm.  A
    scheme names its structures in ``TranslationScheme.hardware`` and
    drives each one through this protocol: ``flush``; ``set_tag`` and
    ``flush_tag`` for address-space tags; ``fresh()``, an empty,
    untagged twin for prototype cloning; ``state()``, the arrays'
    replacement state; and :meth:`attach`, for tagged fleets.
    ``SetAssociativeTLB`` is the leaf: it implements the same protocol
    over its own sets.
    """

    __slots__ = ()

    #: The attributes holding this structure's arrays.
    arrays: tuple[str, ...] = ()

    def fresh(self: _S) -> _S:
        """A shallow copy with an empty, untagged twin of every array;
        everything else (an anchor L2's region table) is kept."""
        twin = copy.copy(self)
        for name in self.arrays:
            setattr(twin, name, getattr(self, name).fresh())
        return twin

    def set_tag(self, tag: int) -> None:
        """Select the address-space tag on every array."""
        for name in self.arrays:
            getattr(self, name).set_tag(tag)

    def flush_tag(self, tag: int) -> int:
        """Drop every entry carrying ``tag`` (ASID recycling); return
        the count dropped."""
        return sum(getattr(self, name).flush_tag(tag) for name in self.arrays)

    def flush(self) -> None:
        """Drop the selected tag's entries (every entry when untagged)."""
        for name in self.arrays:
            getattr(self, name).flush()

    def state(self) -> object:
        """Each array's replacement state (LRU -> MRU per set), keyed by
        its name: the parity suites compare batched against scalar with
        this."""
        return {name: getattr(self, name).state() for name in self.arrays}

    def attach(self, shared: Structure) -> Structure:
        """What a tenant of a tagged fleet holds in this structure's
        place, given the one ``shared`` copy every tenant uses: the
        shared structure itself."""
        return shared


class SetAssociativeTLB(Structure):
    """A set-associative array of ``entries`` slots, ``ways`` per set."""

    __slots__ = ("entries", "ways", "sets", "index_mask", "_sets",
                 "tag", "_tag_base")

    def __init__(self, entries: int, ways: int) -> None:
        if entries <= 0 or ways <= 0 or entries % ways:
            raise ValueError("entries must be a positive multiple of ways")
        sets = entries // ways
        if not is_pow2(sets):
            raise ValueError(f"set count {sets} must be a power of two")
        self.entries = entries
        self.ways = ways
        self.sets = sets
        self.index_mask = sets - 1
        self._sets: list[dict[int, object]] = [dict() for _ in range(sets)]
        self.tag = 0
        self._tag_base = 0

    def fresh(self) -> SetAssociativeTLB:
        """An empty, untagged array of the same geometry."""
        return SetAssociativeTLB(self.entries, self.ways)

    def set_tag(self, tag: int) -> None:
        """Select the address-space tag for subsequent accesses."""
        self.tag = _check_tag(tag)
        self._tag_base = tag << TAG_SHIFT

    def flush_tag(self, tag: int) -> int:
        """Drop every entry carrying ``tag``; return the count dropped.

        The ASID-recycling shootdown: when a tag value is reassigned to
        a new tenant, the previous owner's entries must not be visible
        to it.
        """
        _check_tag(tag)
        dropped = 0
        for bucket in self._sets:
            stale = [key for key in bucket if key >> TAG_SHIFT == tag]
            for key in stale:
                del bucket[key]
            dropped += len(stale)
        return dropped

    def tag_occupancy(self, tag: int) -> int:
        """Resident entries carrying ``tag`` (fleet-test observability)."""
        return sum(
            1 for bucket in self._sets for key in bucket
            if key >> TAG_SHIFT == tag
        )

    def lookup(self, index: int, key: int) -> object | None:
        """Return the value stored under ``key`` (touching LRU) or None."""
        bucket = self._sets[index & self.index_mask]
        key |= self._tag_base
        value = bucket.get(key)
        if value is not None:
            del bucket[key]
            bucket[key] = value
        return value

    def insert(self, index: int, key: int, value: object) -> None:
        """Insert/refresh an entry, evicting LRU on conflict."""
        bucket = self._sets[index & self.index_mask]
        key |= self._tag_base
        if key in bucket:
            del bucket[key]
        elif len(bucket) >= self.ways:
            del bucket[next(iter(bucket))]
        bucket[key] = value

    def invalidate(self, index: int, key: int, tag: int = 0) -> bool:
        """Drop ``key`` under ``tag`` (0: the tag register)."""
        key |= tag << TAG_SHIFT if tag else self._tag_base
        return self._sets[index & self.index_mask].pop(key, None) is not None

    def flush(self) -> None:
        """Drop the selected tag's entries (every entry when untagged):
        one tenant's shootdown never reaches its neighbours."""
        if self.tag:
            self.flush_tag(self.tag)
        else:
            for bucket in self._sets:
                bucket.clear()

    @property
    def occupancy(self) -> int:
        return sum(len(bucket) for bucket in self._sets)

    def keys(self) -> list[int]:
        return [key for bucket in self._sets for key in bucket]

    def state(self) -> list[list[tuple[int, object]]]:
        """Per-set ``(key, value)`` pairs in LRU -> MRU order.

        The exact replacement state, used by the engine parity suite to
        assert that the batched fast path leaves the array bit-identical
        to the scalar walk.
        """
        return [list(bucket.items()) for bucket in self._sets]
