"""Anchor lookup logic on the shared L2 TLB (paper §3.2, Figs. 5-6).

The L2 TLB array is unmodified except for a few contiguity bits per
entry; regular 4 KiB, 2 MiB and anchor entries share its sets and ways.
What changes is the *lookup sequence* after an L1 miss:

1. probe the L2 with the regular index (VA bits [12, 12+N));
2. on a miss, probe again for the anchor entry: AVPN = VPN aligned down
   to the anchor distance, indexed with VA bits [d+12, d+12+N) so that
   consecutive anchors spread over all sets (Fig. 6);
3. an anchor entry hits iff ``VPN − AVPN < contiguity``; the PPN is
   ``APPN + (VPN − AVPN)`` — one adder, no extra SRAM;
4. otherwise walk; per Table 2 the walker fetches the regular PTE first
   (critical path) and the anchor PTE after, then fills exactly one of
   the two into the L2.

The distance comes from a region table (§4.2) consulted in parallel
with the lookup: each VPN takes its own region's distance.  The single
anchor-distance register of §3.1 is the table's one-row case.

Entry keys pack the entry type into the low bits of the VPN so the three
types never alias inside a set.
"""

from __future__ import annotations

from repro.params import MachineConfig
from repro.hw.tlb import SetAssociativeTLB, Structure
from repro.vmos.regions import RegionTable

# Key type tags (packed into TLB keys below the VPN).
KIND_SMALL = 0
KIND_HUGE = 1
KIND_ANCHOR = 2

_HUGE_SHIFT = 9


class AnchorL2TLB(Structure):
    """The shared L2 TLB with regular, huge, and anchor entries."""

    __slots__ = ("array", "table")
    arrays = ("array",)

    def __init__(self, config: MachineConfig, distance: int | RegionTable) -> None:
        """``distance`` loads the anchor-distance register, or a whole
        region table for per-region distances."""
        self.array = SetAssociativeTLB(config.l2.entries, config.l2.ways)
        self.table = (distance if isinstance(distance, RegionTable)
                      else RegionTable.spanning(distance))

    @property
    def distance(self) -> int | None:
        """The anchor-distance register (``None`` for a multi-row table)."""
        return self.table.distance

    def restore_distance(self, distance: int) -> None:
        """Load the anchor-distance register, flushing nothing.

        Per §3.1 the distance is per-process context reloaded alongside
        CR3: the incoming tenant's entries (created under this same
        distance) are exactly the ones its tagged lookups can hit, so
        they survive.  A §3.3 distance change flushes its own tenant's
        entries after the load (``AnchorScheme.reselect_distance``).
        A distance that is not a power of two raises ``ValueError``.
        """
        if distance != self.distance:
            self.table = RegionTable.spanning(distance)

    def attach(self, shared: Structure) -> AnchorL2TLB:
        """Keep this tenant's own distance register (its region table)
        around the ``shared`` L2's physical array."""
        assert isinstance(shared, AnchorL2TLB)
        self.array = shared.array
        return self

    # -- regular entries ----------------------------------------------------

    def lookup_small(self, vpn: int) -> int | None:
        value = self.array.lookup(vpn, (vpn << 2) | KIND_SMALL)
        return value  # type: ignore[return-value]

    def fill_small(self, vpn: int, pfn: int) -> None:
        self.array.insert(vpn, (vpn << 2) | KIND_SMALL, pfn)

    def lookup_huge(self, hvpn: int) -> int | None:
        value = self.array.lookup(hvpn, (hvpn << 2) | KIND_HUGE)
        return value  # type: ignore[return-value]

    def fill_huge(self, hvpn: int, base_pfn: int) -> None:
        self.array.insert(hvpn, (hvpn << 2) | KIND_HUGE, base_pfn)

    # -- anchor entries -----------------------------------------------------

    def lookup_anchor(self, vpn: int) -> int | None:
        """Translate via the anchor entry for ``vpn``; None on miss.

        A resident anchor whose contiguity does not reach ``vpn`` is a
        miss (Table 2, row 3).
        """
        dlog = self.table.shift_of(vpn)
        avpn = vpn >> dlog << dlog
        index = vpn >> dlog  # VA bits [d+12, d+12+N)
        entry = self.array.lookup(index, (avpn << 2) | KIND_ANCHOR)
        if entry is None:
            return None
        appn, contiguity = entry  # type: ignore[misc]
        offset = vpn - avpn
        if offset >= contiguity:
            return None
        return appn + offset

    def fill_anchor(self, avpn: int, appn: int, contiguity: int) -> None:
        """Install an anchor entry; an anchor lies inside the region
        whose plan made it, so its own row gives the index shift."""
        index = avpn >> self.table.shift_of(avpn)
        self.array.insert(index, (avpn << 2) | KIND_ANCHOR, (appn, contiguity))

    # -- shootdown support ----------------------------------------------

    # ``tag`` names the entry's tenant, as INVPCID's single-address form.
    def invalidate_small(self, vpn: int, tag: int = 0) -> bool:
        return self.array.invalidate(vpn, (vpn << 2) | KIND_SMALL, tag)

    def invalidate_anchor(self, avpn: int, tag: int = 0) -> bool:
        index = avpn >> self.table.shift_of(avpn)
        return self.array.invalidate(index, (avpn << 2) | KIND_ANCHOR, tag)
