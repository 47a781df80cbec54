"""``Cluster`` and ``Cluster-2MB``: the HW-coalescing comparison points.

The L2 budget is statically partitioned (Table 3) into a 768-entry
6-way regular TLB and a 320-entry 5-way cluster-8 TLB.  On a walk the
fill logic inspects the missing page's PTE cache line and forms a
cluster entry when at least two of its pages land in the same physical
cluster; otherwise the page fills the regular side.  ``Cluster-2MB``
additionally lets the regular side hold THP 2 MiB entries (the fair
variant the paper adds, since the original design predates shared
multi-size L2s).

The static partition is also the source of the cactusADM pathology the
paper calls out in §5.2.1: when a workload's mapping clusters poorly the
320 clustered entries idle while the 768 regular ones thrash.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.errors import PageFaultError
from repro.params import (
    CLUSTER_CLUSTERED,
    CLUSTER_FACTOR,
    CLUSTER_REGULAR,
    DEFAULT_MACHINE,
    MachineConfig,
)
from repro.hw.cluster import ClusterEntry, ClusterTLB, build_cluster_entry
from repro.hw.tlb import SetAssociativeTLB, TAG_SHIFT
from repro.schemes.base import TranslationScheme, drop_views, promote_huge_pages
from repro.sim.lru import previous_occurrence, simulate_block, simulate_touched
from repro.vmos.mapping import MemoryMapping, cluster_slot_table, empty_index

_HUGE_SHIFT = 9
_KIND_SMALL = 0
_KIND_HUGE = 1
_CLUSTER_SHIFT = 3  # log2(CLUSTER_FACTOR)
_CLUSTER_MASK = CLUSTER_FACTOR - 1


class ClusterScheme(TranslationScheme):
    """Partitioned regular + cluster-8 L2 (optionally with 2 MiB pages)."""

    name = "cluster"
    hardware = TranslationScheme.hardware + ("regular", "clustered")

    def __init__(
        self,
        mapping: MemoryMapping,
        config: MachineConfig = DEFAULT_MACHINE,
        use_thp: bool = False,
    ) -> None:
        super().__init__(mapping, config)
        self.use_thp = use_thp
        if use_thp:
            self.name = "cluster2mb"
        self.regular = SetAssociativeTLB(CLUSTER_REGULAR.entries, CLUSTER_REGULAR.ways)
        self.clustered = ClusterTLB(CLUSTER_CLUSTERED)
        self._build_promotions()

    def _build_promotions(self) -> None:
        """(Re-)derive the promotion split from the current mapping."""
        if self.use_thp:
            huge, small = promote_huge_pages(self.mapping)
        else:
            # Without THP the small side is the page table itself, so
            # the mapping's own page index serves it.
            huge, small = empty_index(), self.mapping.frozen().index
        self._arrays = (small, huge)
        drop_views(self, "_small", "_huge", "_slots")

    def _on_mapping_update(self, frozen) -> None:
        self._build_promotions()
        self.flush()

    def _prepare_share(self) -> None:
        super()._prepare_share()
        self._slots  # built once here, shared by every clone

    @cached_property
    def _slots(self) -> tuple[np.ndarray, np.ndarray]:
        """The small side's :func:`cluster_slot_table`, built by the
        first block of each mapping version rather than at construction:
        the scalar loop never reads it."""
        return cluster_slot_table(self._arrays[0], shift=_CLUSTER_SHIFT)

    # The plans' dict views, for the scalar loop.
    @cached_property
    def _small(self) -> dict[int, int]:
        if not self.use_thp:
            return self.mapping.page_table
        return self._arrays[0].table()

    @cached_property
    def _huge(self) -> dict[int, int]:
        return self._arrays[1].table()

    def access(self, vpn: int) -> int:
        stats = self.stats
        stats.accesses += 1
        latency = self.config.latency
        if self.use_thp:
            hvpn = vpn >> _HUGE_SHIFT
            huge_base = self._huge.get(hvpn << _HUGE_SHIFT)
            if huge_base is not None:
                if self.l1.huge.lookup(hvpn, hvpn) is not None:
                    stats.l1_hits += 1
                    return 0
                if self.regular.lookup(hvpn, (hvpn << 1) | _KIND_HUGE) is not None:
                    stats.l2_huge_hits += 1
                    self.l1.fill_huge(hvpn, huge_base)
                    return latency.l2_hit
                stats.walks += 1
                self.regular.insert(hvpn, (hvpn << 1) | _KIND_HUGE, huge_base)
                self.l1.fill_huge(hvpn, huge_base)
                return self._walk_cycles(vpn, huge=True)
        if self.l1.small.lookup(vpn, vpn) is not None:
            stats.l1_hits += 1
            return 0
        pfn = self.regular.lookup(vpn, (vpn << 1) | _KIND_SMALL)
        if pfn is not None:
            stats.l2_small_hits += 1
            self.l1.fill_small(vpn, pfn)  # type: ignore[arg-type]
            return latency.l2_hit
        pfn = self.clustered.lookup(vpn)
        if pfn is not None:
            stats.coalesced_hits += 1
            self.l1.fill_small(vpn, pfn)
            return latency.coalesced_hit
        if vpn not in self._small:
            raise PageFaultError(f"vpn {vpn:#x} not mapped")
        stats.walks += 1
        entry = build_cluster_entry(self._small, vpn)
        if entry.coverage > 1:
            self.clustered.insert(entry)
        else:
            self.regular.insert(vpn, (vpn << 1) | _KIND_SMALL, self._small[vpn])
        pfn = self._small[vpn]
        self.l1.fill_small(vpn, pfn)
        return self._walk_cycles(vpn)

    def access_block(self, vpns: np.ndarray) -> None:
        """Vectorised fast path via class decomposition.

        The partition is *not* promote-or-insert over its raw probe
        stream (a walk fills the clustered side only when the built
        entry clusters, the regular side otherwise), but the fill
        decision is static per mapping version: a 4 KiB miss walks into
        the clustered side iff its line's coverage in the
        :func:`cluster_slot_table` exceeds one.  Splitting the misses by
        that bit (one gather per block, from a table built once per
        mapping version) yields two streams that *are* tractable:

        * **R-class** (coverage == 1) pages and 2 MiB pages only ever
          fill — and therefore only ever hit — the regular side, and a
          C-class probe of the regular array never touches it (misses
          don't touch LRU), so the regular array is promote-or-insert
          over the huge + R-class stream alone: one
          :func:`simulate_block` call.
        * **C-class** (coverage > 1) accesses are promote-or-insert on
          their vcluster over the clustered array (a covered hit
          promotes; an uncovered probe promotes and the walk's insert
          replaces in place; a miss inserts), and no R-class page is
          ever *covered* by a resident cluster entry (coverage would be
          > 1).  After any C-class access the resident entry equals the
          entry its own walk would build — a covered hit implies the
          same physical cluster and hence a value-equal entry — so
          coverage reduces to physical-cluster identity with the
          previous same-vcluster C-class access
          (:func:`previous_occurrence`), or to the block-start entry.

        The one interaction between the streams: an R-class page that
        misses the regular side *touches* its vcluster's LRU position
        in the clustered array (the probe promotes even on an uncovered
        slot) without ever inserting.  :func:`simulate_touched` resolves
        the clustered array with those weak touches in place: it drops
        the touches certain to miss, turns those certain to hit into
        ordinary rows, and cuts each set's stream only at the rest, one
        :func:`simulate_block` call per round of cuts (a block without
        uncertain touches, like every engine-gups block, is one call).
        """
        if vpns.shape[0] == 0:
            return
        small_index, huge_index = self._arrays
        stage = self._l1_stage(
            vpns, [(0, vpns.shape[0], small_index, huge_index)])
        if stage is None:
            return super().access_block(vpns)
        heads, _, is_huge, pfn_heads, hbase, hit1 = stage
        n = vpns.shape[0]

        miss = ~hit1
        mk = heads[miss]
        m_huge = is_huge[miss]
        pfn = pfn_heads[miss]
        coverage, offsets = self._slots
        page = small_index.rows_of(mk)      # -1 on 2 MiB rows
        c_class = page >= 0
        c_class[c_class] = coverage[page[c_class]] > 1

        # --- regular side: huge + R-class stream, promote-or-insert ---
        reg_rows = np.flatnonzero(~c_class)
        rk = mk[reg_rows]
        reg_huge = m_huge[reg_rows]
        reg_sets = np.where(reg_huge, rk >> _HUGE_SHIFT, rk)
        reg_keys = np.where(
            reg_huge,
            ((rk >> _HUGE_SHIFT) << 1) | _KIND_HUGE,
            rk << 1)
        reg_fill = np.where(m_huge, hbase[miss], pfn)[reg_rows]
        hit2 = simulate_block(self.regular, reg_sets, reg_keys, reg_fill)
        l2_huge = int(np.count_nonzero(hit2 & reg_huge))
        l2_small = int(np.count_nonzero(hit2)) - l2_huge
        walk_mask = np.zeros(mk.shape[0], dtype=bool)
        walk_mask[reg_rows[~hit2]] = True  # every regular miss walks

        # --- clustered side: C-class rows and the weak touches of the
        # R-class regular misses, in trace order ------------------------
        carr = self.clustered.array
        tag_base = carr.tag << TAG_SHIFT
        weak = np.zeros(mk.shape[0], dtype=bool)
        weak[reg_rows[~hit2 & ~reg_huge]] = True
        stream = np.flatnonzero(c_class | weak)
        touch = weak[stream]
        vc = mk[stream] >> _CLUSTER_SHIFT

        def entries(rows: np.ndarray) -> list[ClusterEntry]:
            # Each row builds what its walk would; the kernel keeps the
            # last build per vcluster, and only for survivors.
            at = stream[rows]
            return [
                ClusterEntry(v, p << _CLUSTER_SHIFT,
                             tuple(o if o >= 0 else None for o in offs))
                for v, p, offs in zip(vc[rows].tolist(),
                                      (pfn[at] >> _CLUSTER_SHIFT).tolist(),
                                      offsets[page[at]].tolist())]

        array_hit, before = simulate_touched(
            carr, vc, vc | tag_base, touch, entries)
        strong = np.flatnonzero(~touch)
        cvc = vc[strong]
        cpc = pfn[stream[strong]] >> _CLUSTER_SHIFT
        prev = previous_occurrence(cvc)
        has_prev = prev >= 0
        covered = np.zeros(cvc.shape[0], dtype=bool)
        covered[has_prev] = cpc[prev[has_prev]] == cpc[has_prev]
        first_hits = np.flatnonzero(array_hit[strong] & ~has_prev)
        covered[first_hits] = [
            before[key].offsets[slot] is not None
            for key, slot in zip((cvc[first_hits] | tag_base).tolist(),
                                 (mk[stream[strong[first_hits]]]
                                  & _CLUSTER_MASK).tolist())]
        trans_hit = array_hit[strong] & covered
        walk_mask[stream[strong[~trans_hit]]] = True

        walk_vpns = mk[walk_mask]
        walk_pt = self._block_walk_accesses(walk_vpns, m_huge[walk_mask])
        self.stats.bulk_update(
            accesses=n,
            l1_hits=n - heads.shape[0] + int(np.count_nonzero(hit1)),
            l2_small_hits=l2_small,
            l2_huge_hits=l2_huge,
            coalesced_hits=int(np.count_nonzero(trans_hit)),
            walks=int(np.count_nonzero(walk_mask)),
            walk_pt_accesses=walk_pt,
        )

    def _translate(self, vpn: int) -> int:
        base = self._huge.get((vpn >> _HUGE_SHIFT) << _HUGE_SHIFT)
        if base is not None:
            return base + (vpn & ((1 << _HUGE_SHIFT) - 1))
        pfn = self._small.get(vpn)
        if pfn is None:
            raise PageFaultError(f"vpn {vpn:#x} not mapped")
        return pfn
