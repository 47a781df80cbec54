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
from repro.hw.tlb import TAG_SHIFT, SetAssociativeTLB, Structure
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

    One set of ``capacity`` ways (a one-set :class:`SetAssociativeTLB`,
    so LRU and the ASID/PCID tag register are the array's own), keyed
    for LRU by tagged range start.  A lookup is an associative search
    of the resident same-tag ranges (here a linear scan over at most 32
    entries): all tenants' ranges compete for the same ``capacity``
    ways, the shared-structure contention the fleet model measures, but
    a lookup only matches the running tenant's.
    """

    __slots__ = ("array",)
    arrays = ("array",)

    def __init__(self, capacity: int = RANGE_TLB_ENTRIES) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.array = SetAssociativeTLB(capacity, capacity)

    @property
    def capacity(self) -> int:
        return self.array.ways

    def lookup(self, vpn: int) -> int | None:
        """Associatively translate ``vpn``; None on miss."""
        array = self.array
        tag = array.tag
        ranges: dict[int, RangeEntry] = array._sets[0]  # type: ignore[assignment]
        for key, entry in ranges.items():
            if (key >> TAG_SHIFT == tag
                    and entry.start_vpn <= vpn < entry.end_vpn):
                array.lookup(0, entry.start_vpn)  # touch LRU
                return entry.base_pfn + (vpn - entry.start_vpn)
        return None

    def insert(self, entry: RangeEntry) -> None:
        self.array.insert(0, entry.start_vpn, entry)

    @property
    def occupancy(self) -> int:
        return self.array.occupancy
