"""RMM's range TLB and the OS range table (Karakostas et al., ISCA'15).

Redundant Memory Mapping keeps, *redundantly* with the page table, a
per-process table of ranges — maximal regions contiguous in both
virtual and physical address space — and caches the hot ones in a small
fully associative **range TLB** probed after an L2 miss.  Because the
range compare must run across all entries in parallel, the structure is
capped at 32 entries (Table 3), which is precisely why RMM falls apart
when the mapping fragments into many small chunks (Fig. 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.params import RANGE_TLB_ENTRIES
from repro.hw.tlb import TAG_SHIFT, Structure, _check_tag
from repro.vmos.mapping import MemoryMapping


@dataclass(frozen=True)
class RangeEntry:
    """One range: ``[start_vpn, start_vpn + pages)`` offset-mapped."""

    start_vpn: int
    pages: int
    base_pfn: int

    @property
    def end_vpn(self) -> int:
        return self.start_vpn + self.pages

    def translate(self, vpn: int) -> int | None:
        offset = vpn - self.start_vpn
        if 0 <= offset < self.pages:
            return self.base_pfn + offset
        return None


class RangeTable:
    """The OS-side redundant range table (backs range-TLB refills).

    Built once from the mapping's chunk structure; lookup is a binary
    search, standing in for the OS's B-tree walk.  A refill from here is
    charged as a page walk by the schemes.
    """

    def __init__(self, mapping: MemoryMapping) -> None:
        self._ranges = [
            RangeEntry(chunk.vpn, chunk.pages, chunk.pfn)
            for chunk in mapping.chunks()
        ]
        self._starts = [r.start_vpn for r in self._ranges]

    def __len__(self) -> int:
        return len(self._ranges)

    def find(self, vpn: int) -> RangeEntry | None:
        """The range containing ``vpn``, or None."""
        import bisect

        position = bisect.bisect_right(self._starts, vpn) - 1
        if position < 0:
            return None
        candidate = self._ranges[position]
        return candidate if vpn < candidate.end_vpn else None

    def ranges(self) -> list[RangeEntry]:
        return list(self._ranges)


class RangeTLB(Structure):
    """The 32-entry fully associative range TLB.

    LRU over entries; a lookup is an associative search of all resident
    ranges (here a linear scan over at most 32 entries, keyed for LRU by
    range start).

    Like the TLB arrays, the structure carries an ASID/PCID tag register
    (:data:`repro.hw.tlb.TAG_SHIFT`): ``set_tag`` selects the running
    tenant, entry keys pack the tag into their high bits, and a lookup
    only matches same-tag ranges — but all tenants' ranges compete for
    the same ``capacity`` slots, the shared-structure contention the
    fleet model measures.  Tag 0 leaves keys (and behaviour) identical
    to the untagged single-process case.
    """

    __slots__ = ("capacity", "_entries", "tag", "_tag_base")

    def __init__(self, capacity: int = RANGE_TLB_ENTRIES) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: dict[int, RangeEntry] = {}
        self.tag = 0
        self._tag_base = 0

    def fresh(self) -> RangeTLB:
        """An empty, untagged range TLB of the same capacity."""
        return RangeTLB(self.capacity)

    def set_tag(self, tag: int) -> None:
        """Select the address-space tag for subsequent accesses."""
        self.tag = _check_tag(tag)
        self._tag_base = tag << TAG_SHIFT

    def flush_tag(self, tag: int) -> int:
        """Drop every entry carrying ``tag``; return the count dropped."""
        _check_tag(tag)
        stale = [key for key in self._entries if key >> TAG_SHIFT == tag]
        for key in stale:
            del self._entries[key]
        return len(stale)

    def lookup(self, vpn: int) -> int | None:
        """Associatively translate ``vpn``; None on miss."""
        tag = self.tag
        for key, entry in self._entries.items():
            if key >> TAG_SHIFT != tag:
                continue
            if entry.start_vpn <= vpn < entry.end_vpn:
                del self._entries[key]
                self._entries[key] = entry
                return entry.base_pfn + (vpn - entry.start_vpn)
        return None

    def insert(self, entry: RangeEntry) -> None:
        key = entry.start_vpn | self._tag_base
        if key in self._entries:
            del self._entries[key]
        elif len(self._entries) >= self.capacity:
            del self._entries[next(iter(self._entries))]
        self._entries[key] = entry

    def flush(self) -> None:
        """Drop the selected tag's entries (every entry when untagged)."""
        if self.tag:
            self.flush_tag(self.tag)
        else:
            self._entries.clear()

    @property
    def occupancy(self) -> int:
        return len(self._entries)
