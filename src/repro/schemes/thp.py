"""``THP``: transparent huge pages (2 MiB) on the baseline hierarchy.

The OS promotes every 2 MiB-aligned, fully contiguous window to a
hardware huge page; the shared L2 holds 4 KiB and 2 MiB entries (the
paper's baseline/THP row of Table 3).  Coverage grows 512x per promoted
entry but only where the allocator managed to produce aligned 2 MiB
chunks — the scheme is almost inert under the low/medium scenarios.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PageFaultError
from repro.params import DEFAULT_MACHINE, GIGA_PAGE_PAGES, MachineConfig
from repro.hw.tlb import SetAssociativeTLB
from repro.schemes.base import TranslationScheme, promote_huge_pages
from repro.sim.lru import collapse_runs, simulate_block
from repro.vmos.mapping import KeyIndex, MemoryMapping, sorted_arrays

_HUGE_SHIFT = 9
_GIGA_SHIFT = 18

# L2 key tags: pack the entry kind below the (h)VPN so 4 KiB and 2 MiB
# entries sharing the array never alias.
_KIND_SMALL = 0
_KIND_HUGE = 1


class THPScheme(TranslationScheme):
    """Baseline hierarchy + transparent 2 MiB pages.

    With ``use_giga`` the scheme additionally promotes 1 GiB-aligned
    fully contiguous windows into hardware 1 GiB pages held in their own
    small TLBs (paper §2.1) — the limit case of the fixed-page-size
    approach: enormous coverage per entry, but only when the allocator
    can produce gigabyte-aligned gigabyte chunks.
    """

    name = "thp"
    hardware = TranslationScheme.hardware + ("l2", "l2_giga")

    def __init__(
        self,
        mapping: MemoryMapping,
        config: MachineConfig = DEFAULT_MACHINE,
        use_giga: bool = False,
    ) -> None:
        super().__init__(mapping, config)
        self.use_giga = use_giga
        self.l2 = SetAssociativeTLB(config.l2.entries, config.l2.ways)
        if use_giga:
            self.name = "thp1g"
            self.l2_giga = SetAssociativeTLB(
                config.l2_1g.entries, config.l2_1g.ways
            )
        self._build_promotions()

    def _build_promotions(self) -> None:
        """(Re-)derive the promotion maps from the current mapping."""
        self._huge, self._small = promote_huge_pages(self.mapping)
        self._giga: dict[int, int] = {}
        if self.use_giga:
            bases, pfns = self.mapping.frozen().promotable(GIGA_PAGE_PAGES)
            self._giga = dict(zip(bases.tolist(), pfns.tolist()))
            # A 1 GiB page replaces the 2 MiB windows inside it.
            self._huge = {
                hvpn: pfn for hvpn, pfn in self._huge.items()
                if hvpn & -GIGA_PAGE_PAGES not in self._giga
            }
        self._memberships: tuple[KeyIndex, ...] | None = None

    def _on_mapping_update(self, frozen) -> None:
        # The OS re-promotes after the change; stale promotion windows
        # must not survive in the membership arrays or the TLBs.
        self._build_promotions()
        self.flush()

    def _membership_views(self) -> tuple[KeyIndex, ...]:
        if self._memberships is None:
            self._memberships = (
                sorted_arrays(self._small),
                sorted_arrays(self._huge),
                sorted_arrays(self._giga),
            )
        return self._memberships

    def _prepare_share(self) -> None:
        super()._prepare_share()
        self._membership_views()

    def access(self, vpn: int) -> int:
        stats = self.stats
        stats.accesses += 1
        latency = self.config.latency
        if self._giga:
            gvpn = vpn >> _GIGA_SHIFT
            giga_base = self._giga.get(gvpn << _GIGA_SHIFT)
            if giga_base is not None:
                if self.l1.giga.lookup(gvpn, gvpn) is not None:
                    stats.l1_hits += 1
                    return 0
                if self.l2_giga.lookup(gvpn, gvpn) is not None:
                    stats.l2_huge_hits += 1
                    self.l1.fill_giga(gvpn, giga_base)
                    return latency.l2_hit
                stats.walks += 1
                self.l2_giga.insert(gvpn, gvpn, giga_base)
                self.l1.fill_giga(gvpn, giga_base)
                return self._walk_cycles(vpn, huge=True)
        hvpn = vpn >> _HUGE_SHIFT
        huge_base = self._huge.get(hvpn << _HUGE_SHIFT)
        if huge_base is not None:
            if self.l1.huge.lookup(hvpn, hvpn) is not None:
                stats.l1_hits += 1
                return 0
            cached = self.l2.lookup(hvpn, (hvpn << 1) | _KIND_HUGE)
            if cached is not None:
                stats.l2_huge_hits += 1
                self.l1.fill_huge(hvpn, huge_base)
                return latency.l2_hit
            stats.walks += 1
            self.l2.insert(hvpn, (hvpn << 1) | _KIND_HUGE, huge_base)
            self.l1.fill_huge(hvpn, huge_base)
            return self._walk_cycles(vpn, huge=True)
        if self.l1.small.lookup(vpn, vpn) is not None:
            stats.l1_hits += 1
            return 0
        pfn = self.l2.lookup(vpn, (vpn << 1) | _KIND_SMALL)
        if pfn is not None:
            stats.l2_small_hits += 1
            self.l1.fill_small(vpn, pfn)  # type: ignore[arg-type]
            return latency.l2_hit
        pfn = self._small.get(vpn)
        if pfn is None:
            raise PageFaultError(f"vpn {vpn:#x} not mapped")
        stats.walks += 1
        self.l2.insert(vpn, (vpn << 1) | _KIND_SMALL, pfn)
        self.l1.fill_small(vpn, pfn)
        return self._walk_cycles(vpn)

    def access_block(self, vpns: np.ndarray) -> None:
        """Vectorised fast path.

        Page-size classification is static within a block (the
        promotion maps only change at mapping-sync points between
        blocks), so each reference's L1 array and L2 key are known up
        front; every probe then promotes-or-inserts its own key, which
        is exactly what :func:`simulate_block` models.  The shared L2
        sees the 4 KiB and 2 MiB streams interleaved in original order.
        """
        if vpns.shape[0] == 0:
            return
        small_map, huge_map, giga_map = self._membership_views()
        heads = collapse_runs(vpns)
        hvpn = heads >> _HUGE_SHIFT
        is_huge = huge_map.mask(hvpn << _HUGE_SHIFT)
        if self._giga:
            gvpn = heads >> _GIGA_SHIFT
            is_giga = giga_map.mask(gvpn << _GIGA_SHIFT)
            is_huge &= ~is_giga
        else:
            is_giga = None
        is_small = ~is_huge if is_giga is None else ~(is_huge | is_giga)
        small_heads = heads[is_small]
        if not small_map.contains_all(small_heads):
            # An unmapped page: the scalar loop faults at the right spot.
            return super().access_block(vpns)

        small = self._small
        huge = self._huge
        hit1 = np.empty(heads.shape[0], dtype=bool)
        hit1[is_small] = simulate_block(
            self.l1.small, small_heads, small_heads, small.__getitem__)
        hv = hvpn[is_huge]
        huge_value = lambda h: huge[h << _HUGE_SHIFT]  # noqa: E731
        hit1[is_huge] = simulate_block(self.l1.huge, hv, hv, huge_value)
        l2_giga_hits = 0
        giga_walks = 0
        if is_giga is not None:
            giga = self._giga
            gv = gvpn[is_giga]
            giga_value = lambda g: giga[g << _GIGA_SHIFT]  # noqa: E731
            hit1_g = simulate_block(self.l1.giga, gv, gv, giga_value)
            hit1[is_giga] = hit1_g
            g_miss = gv[~hit1_g]
            hit2_g = simulate_block(self.l2_giga, g_miss, g_miss, giga_value)
            l2_giga_hits = int(np.count_nonzero(hit2_g))
            giga_walks = g_miss.shape[0] - l2_giga_hits

        # Shared L2: 4 KiB and 2 MiB L1 misses in original order, with
        # the entry kind packed below the (h)VPN exactly like access().
        shared = ~hit1
        if is_giga is not None:
            shared &= ~is_giga
        l2_keys = np.where(
            is_huge, (hvpn << 1) | _KIND_HUGE, heads << 1)[shared]
        l2_sets = np.where(is_huge, hvpn, heads)[shared]
        hit2 = simulate_block(self.l2, l2_sets, l2_keys, self._l2_value)
        huge_kind = (l2_keys & 1).astype(bool)
        l2_small_hits = int(np.count_nonzero(hit2 & ~huge_kind))
        l2_huge_hits = int(np.count_nonzero(hit2 & huge_kind))
        walk_pt = 0
        if self.pwc is not None:
            # The page-walk caches see every completed walk, from both
            # the shared and the giga side, merged back into head order.
            walk_flags = np.zeros(heads.shape[0], dtype=bool)
            walk_flags[np.flatnonzero(shared)[~hit2]] = True
            walk_huge = is_huge.copy()
            if is_giga is not None:
                walk_flags[np.flatnonzero(is_giga)[~hit1_g][~hit2_g]] = True
                walk_huge |= is_giga
            walk_pt = self._block_walk_accesses(
                heads[walk_flags], walk_huge[walk_flags])
        self.stats.bulk_update(
            accesses=vpns.shape[0],
            l1_hits=(vpns.shape[0] - heads.shape[0]
                     + int(np.count_nonzero(hit1))),
            l2_small_hits=l2_small_hits,
            l2_huge_hits=l2_huge_hits + l2_giga_hits,
            walks=(l2_keys.shape[0] - l2_small_hits - l2_huge_hits
                   + giga_walks),
            walk_pt_accesses=walk_pt,
        )

    def _l2_value(self, key: int):
        if key & 1:
            return self._huge[(key >> 1) << _HUGE_SHIFT]
        return self._small[key >> 1]

    def _translate(self, vpn: int) -> int:
        giga_base = self._giga.get((vpn >> _GIGA_SHIFT) << _GIGA_SHIFT)
        if giga_base is not None:
            return giga_base + (vpn & ((1 << _GIGA_SHIFT) - 1))
        base = self._huge.get((vpn >> _HUGE_SHIFT) << _HUGE_SHIFT)
        if base is not None:
            return base + (vpn & ((1 << _HUGE_SHIFT) - 1))
        pfn = self._small.get(vpn)
        if pfn is None:
            raise PageFaultError(f"vpn {vpn:#x} not mapped")
        return pfn

    @property
    def huge_windows(self) -> int:
        return len(self._huge)

    @property
    def giga_windows(self) -> int:
        return len(self._giga)
