"""Page-walk caches (MMU caches) — the miss-penalty-reduction family.

The paper's introduction splits translation research into *coverage
improvement* (its own contribution) and *miss-penalty reduction* (e.g.
translation caching, Barr et al. ISCA'10; large-reach MMU caches,
Bhattacharjee MICRO'13).  This module implements the latter as an
optional extension so the two families can be composed and compared:
small fully associative caches hold upper-level page-table entries, so
a TLB miss whose upper levels hit needs fewer memory accesses.  Each
level is a one-set :class:`~repro.hw.tlb.SetAssociativeTLB` whose keys
are their own set indices.

With the caches disabled every 4 KiB walk costs the paper's flat 50
cycles; with them enabled a walk costs ``walk_step`` cycles per
page-table memory access actually performed (1-4 for 4 KiB leaves, 1-3
for 2 MiB leaves).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hw.tlb import SetAssociativeTLB, Structure
from repro.sim.lru import simulate_block

# Upper-level index widths (9 bits per level).
_L2_SHIFT = 9    # PD entry covers 2 MiB of VA
_L3_SHIFT = 18   # PDPT entry covers 1 GiB
_L4_SHIFT = 27   # PML4 entry covers 512 GiB


@dataclass(frozen=True)
class PWCGeometry:
    """Entry counts per cached level (defaults follow real MMU caches)."""

    pml4_entries: int = 2
    pdpt_entries: int = 4
    pd_entries: int = 32


class PageWalkCache(Structure):
    """Per-level MMU caches counting the memory accesses a walk needs."""

    def __init__(self, geometry: PWCGeometry | None = None) -> None:
        geometry = geometry or PWCGeometry()
        self.geometry = geometry
        self._pml4 = SetAssociativeTLB(
            geometry.pml4_entries, geometry.pml4_entries)
        self._pdpt = SetAssociativeTLB(
            geometry.pdpt_entries, geometry.pdpt_entries)
        self._pd = SetAssociativeTLB(geometry.pd_entries, geometry.pd_entries)
        self.hits = 0
        self.probes = 0

    def fresh(self) -> PageWalkCache:
        """Empty, untagged caches of the same geometry."""
        return PageWalkCache(self.geometry)

    def accesses_for(self, vpn: int, huge: bool = False) -> int:
        """Memory accesses the walk performs; fills the caches.

        A 4 KiB walk reads PML4, PDPT, PD and PT entries (4 accesses
        uncached); a 2 MiB walk stops at the PD (3 uncached).  The
        deepest cached level short-circuits everything above it.
        """
        self.probes += 1
        pd_tag = vpn >> _L2_SHIFT
        pdpt_tag = vpn >> _L3_SHIFT
        pml4_tag = vpn >> _L4_SHIFT

        if not huge and self._pd.lookup(pd_tag, pd_tag) is not None:
            accesses = 1                       # leaf PTE only
            self.hits += 1
        elif self._pdpt.lookup(pdpt_tag, pdpt_tag) is not None:
            accesses = 1 if huge else 2        # PD leaf (, PT leaf)
            self.hits += 1
        elif self._pml4.lookup(pml4_tag, pml4_tag) is not None:
            accesses = 2 if huge else 3        # PDPT, PD (, PT)
            self.hits += 1
        else:
            accesses = 3 if huge else 4        # full walk
        # Refill every level on the walk path.
        self._pml4.insert(pml4_tag, pml4_tag, True)
        self._pdpt.insert(pdpt_tag, pdpt_tag, True)
        if not huge:
            self._pd.insert(pd_tag, pd_tag, True)
        return accesses

    def accesses_for_block(
        self, vpns: np.ndarray, huge: np.ndarray | None = None
    ) -> np.ndarray:
        """Batch :meth:`accesses_for` over a block of walks, in order.

        ``vpns`` are the walk VPNs of one reference block in trace
        order; ``huge`` marks the 2 MiB walks (``None`` = all 4 KiB).
        Returns the per-walk memory-access counts and leaves the caches
        (contents, LRU order, hit/probe counters) bit-identical to the
        scalar loop.

        Vectorisation is exact because every level is promote-or-insert
        under the scalar flow: a level's probe may be short-circuited by
        a deeper hit, but its refill always runs (the PD only on 4 KiB
        walks), so after each walk the tag sits at MRU regardless of the
        probe outcome — residency and recency per level are functions of
        the tag stream alone, which is precisely what
        :func:`repro.sim.lru.simulate_block` resolves.
        """
        n = vpns.shape[0]
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        filled = True
        value_of = lambda tag: filled  # noqa: E731 — walks store True
        # Each level is one set, so a tag doubles as its set index.
        pdpt = vpns >> _L3_SHIFT
        pml4 = vpns >> _L4_SHIFT
        pdpt_hit = simulate_block(self._pdpt, pdpt, pdpt, value_of)
        pml4_hit = simulate_block(self._pml4, pml4, pml4, value_of)
        pd_hit = np.zeros(n, dtype=bool)
        if huge is None:
            pd = vpns >> _L2_SHIFT
            pd_hit = simulate_block(self._pd, pd, pd, value_of)
            huge = np.zeros(n, dtype=bool)
        else:
            small = ~huge
            pd = vpns[small] >> _L2_SHIFT
            pd_hit[small] = simulate_block(self._pd, pd, pd, value_of)
        accesses = np.where(
            huge,
            np.where(pdpt_hit, 1, np.where(pml4_hit, 2, 3)),
            np.where(pd_hit, 1,
                     np.where(pdpt_hit, 2, np.where(pml4_hit, 3, 4))),
        )
        self.probes += n
        self.hits += int(np.count_nonzero(pd_hit | pdpt_hit | pml4_hit))
        return accesses

    def state(self) -> dict[str, list]:
        """Per-level ``(tag, value)`` pairs in LRU -> MRU order (the
        parity suite compares batched against scalar with this)."""
        return {
            "pml4": self._pml4.state(),
            "pdpt": self._pdpt.state(),
            "pd": self._pd.state(),
        }

    def flush(self) -> None:
        self._pml4.flush()
        self._pdpt.flush()
        self._pd.flush()

    def set_tag(self, tag: int) -> None:
        """Select the address-space tag on all three cache levels."""
        self._pml4.set_tag(tag)
        self._pdpt.set_tag(tag)
        self._pd.set_tag(tag)

    def flush_tag(self, tag: int) -> int:
        """Drop every entry carrying ``tag`` (ASID recycling)."""
        return (
            self._pml4.flush_tag(tag)
            + self._pdpt.flush_tag(tag)
            + self._pd.flush_tag(tag)
        )

    @property
    def hit_rate(self) -> float:
        return self.hits / self.probes if self.probes else 0.0
