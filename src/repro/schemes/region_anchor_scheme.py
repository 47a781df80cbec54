"""``anchor-region``: multi-region anchors as a real scheme (paper §4.2).

The paper sketches the extension: a small fully associative *region
table* holds ``(start VPN, end VPN, anchor distance)`` triples, looked
up in parallel with the TLB; an L2 miss then probes the anchor entry
computed with the matching region's distance, so differently fragmented
parts of the address space each get the distance that suits them.

The implementation partitions the address space with
:func:`repro.vmos.regions.partition_regions` (per-region Algorithm 1),
builds one :class:`AnchorDirectory` per region, and keeps all regions'
anchor entries in the one shared L2 — keys cannot alias because regions
are disjoint, and each anchor entry is indexed with its own region's
distance shift, exactly as the §4.2 hardware would.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PageFaultError
from repro.params import DEFAULT_MACHINE, MachineConfig
from repro.hw.anchor_tlb import KIND_ANCHOR, KIND_HUGE, KIND_SMALL
from repro.hw.tlb import SetAssociativeTLB
from repro.schemes.base import TranslationScheme
from repro.sim.lru import collapse_runs, isin_sorted, simulate_block
from repro.vmos.anchor import AnchorDirectory
from repro.vmos.mapping import MemoryMapping, sorted_arrays
from repro.vmos.regions import AnchorRegion, partition_regions

_HUGE_SHIFT = 9


class RegionAnchorScheme(TranslationScheme):
    """Hybrid coalescing with per-region anchor distances."""

    name = "anchor-region"
    #: The block fast path writes raw (untagged) keys into its
    #: arrays' buckets; sharing them between tagged tenants would
    #: alias entries across address spaces.
    tag_safe_block = False

    def __init__(
        self,
        mapping: MemoryMapping,
        config: MachineConfig = DEFAULT_MACHINE,
        capacity: int = 8,
        regions: list[AnchorRegion] | None = None,
    ) -> None:
        super().__init__(mapping, config)
        if regions is None:
            regions = partition_regions(mapping, mapping.vmas, capacity)
            if not regions and len(mapping):
                # No VMA metadata: fall back to one region spanning the
                # whole mapping with the process-wide distance.
                from repro.vmos.contiguity import contiguity_histogram
                from repro.vmos.distance import select_distance

                vpns = mapping.frozen().vpns
                regions = [AnchorRegion(
                    int(vpns[0]), int(vpns[-1]) + 1,
                    select_distance(contiguity_histogram(mapping)),
                )]
        elif len(regions) > capacity:
            raise ValueError("more regions than the region table holds")
        self.regions = sorted(regions, key=lambda r: r.start_vpn)
        self.l2 = SetAssociativeTLB(config.l2.entries, config.l2.ways)
        self._build_directories()

    def _build_directories(self) -> None:
        """Per-region coverage plans over the region's slice of the map."""
        self._directories = AnchorDirectory.build_regions(
            self.mapping,
            [(r.start_vpn, r.end_vpn, r.distance) for r in self.regions])
        self._dlogs = [r.distance.bit_length() - 1 for r in self.regions]
        self._block_cache = None

    def _on_mapping_update(self, frozen) -> None:
        """External mapping mutation: replan every region, then flush."""
        self._build_directories()
        self.flush()

    def _prepare_share(self) -> None:
        super()._prepare_share()
        self._merged_arrays()

    def _reset_clone(self) -> None:
        super()._reset_clone()
        self.l2 = SetAssociativeTLB(self.config.l2.entries, self.config.l2.ways)

    # ------------------------------------------------------------------

    def _region_index(self, vpn: int) -> int | None:
        """The region-table lookup (parallel compare over <= 8 entries)."""
        for index, region in enumerate(self.regions):
            if vpn in region:
                return index
        return None

    def access(self, vpn: int) -> int:
        stats = self.stats
        stats.accesses += 1
        latency = self.config.latency
        index = self._region_index(vpn)
        if index is None:
            raise PageFaultError(f"vpn {vpn:#x} outside every region")
        directory = self._directories[index]
        dlog = self._dlogs[index]
        hvpn = vpn >> _HUGE_SHIFT
        huge_base = directory.huge.get(hvpn << _HUGE_SHIFT)
        if huge_base is not None:
            if self.l1.huge.lookup(hvpn, hvpn) is not None:
                stats.l1_hits += 1
                return 0
            if self.l2.lookup(hvpn, (hvpn << 2) | KIND_HUGE) is not None:
                stats.l2_huge_hits += 1
                self.l1.fill_huge(hvpn, huge_base)
                return latency.l2_hit
            stats.walks += 1
            self.l2.insert(hvpn, (hvpn << 2) | KIND_HUGE, huge_base)
            self.l1.fill_huge(hvpn, huge_base)
            return self._walk_cycles(vpn, huge=True)
        if self.l1.small.lookup(vpn, vpn) is not None:
            stats.l1_hits += 1
            return 0
        pfn = self.l2.lookup(vpn, (vpn << 2) | KIND_SMALL)
        if pfn is not None:
            stats.l2_small_hits += 1
            self.l1.fill_small(vpn, pfn)  # type: ignore[arg-type]
            return latency.l2_hit
        # Anchor probe with the region's own distance.
        avpn = vpn >> dlog << dlog
        entry = self.l2.lookup(avpn >> dlog, (avpn << 2) | KIND_ANCHOR)
        if entry is not None:
            appn, contiguity = entry  # type: ignore[misc]
            offset = vpn - avpn
            if offset < contiguity:
                stats.coalesced_hits += 1
                self.l1.fill_small(vpn, appn + offset)
                return latency.coalesced_hit
        pfn = directory.small.get(vpn)
        if pfn is None:
            raise PageFaultError(f"vpn {vpn:#x} not mapped")
        stats.walks += 1
        contiguity = directory.anchor_contiguity.get(avpn, 0)
        if vpn - avpn < contiguity:
            self.l2.insert(
                avpn >> dlog,
                (avpn << 2) | KIND_ANCHOR,
                (directory.small[avpn], contiguity),
            )
        else:
            self.l2.insert(vpn, (vpn << 2) | KIND_SMALL, pfn)
        self.l1.fill_small(vpn, pfn)
        return self._walk_cycles(vpn)

    # ------------------------------------------------------------------
    # Batched fast path
    # ------------------------------------------------------------------

    def _merged_arrays(self):
        """Region table + merged directory views (static after __init__).

        The per-region directories merge safely: a promoted huge window
        or an anchor's contiguity run lies entirely inside its region's
        leaves (regions are disjoint in VPN space), so a covering entry
        found in the merged dict always belongs to the probing VPN's own
        region, and a non-covering one yields the same walk decision as
        a per-region miss.
        """
        if self._block_cache is None:
            huge: dict[int, int] = {}
            small: dict[int, int] = {}
            anchors: dict[int, int] = {}
            for directory in self._directories:
                huge.update(directory.huge)
                small.update(directory.small)
                anchors.update(directory.anchor_contiguity)
            hg = sorted_arrays(huge)
            sm = sorted_arrays(small)
            an = sorted_arrays(anchors)
            anchors_ok = sm.contains_all(an.keys)
            self._block_cache = (
                np.asarray([r.start_vpn for r in self.regions], dtype=np.int64),
                np.asarray([r.end_vpn for r in self.regions], dtype=np.int64),
                np.asarray(self._dlogs, dtype=np.int64),
                hg, sm, an, huge, small, anchors, anchors_ok,
            )
        return self._block_cache

    def access_block(self, vpns: np.ndarray) -> None:
        """Vectorised fast path (same decomposition as ``AnchorScheme``).

        The region-table lookup, page-size class, AVPN (with the
        per-region distance) and walk-time directory reads are hoisted
        into numpy, and both TLB levels run through
        :func:`repro.sim.lru.simulate_block`.  For the shared L2 each
        miss row's *main key* — huge, anchor, or small, decided purely
        by the merged directories — is promote-or-insert, so the kernel
        replays it exactly; the only cross-key coupling is the weak LRU
        touch an un-anchored miss gives a *resident* anchor entry.  Sets
        holding such a touched anchor are contaminated and every row
        landing in them replays in trace order through the scalar flow;
        see docs/api_tour.md §15.  Because every mapping update rebuilds
        the directories and flushes the L2 (`_on_mapping_update`), no
        resident entry can ever disagree with the merged directories, so
        unlike ``AnchorScheme`` there is no stale-survivor machinery.
        """
        if vpns.shape[0] == 0:
            return
        starts, ends, dlogs, hg, sm, an, huge_d, small_d, anchors, ok = (
            self._merged_arrays())
        if not ok or starts.size == 0:
            return super().access_block(vpns)
        heads = collapse_runs(vpns)
        n = vpns.shape[0]
        ridx = np.searchsorted(starts, heads, side="right") - 1
        if int(ridx.min()) < 0 or not bool((heads < ends[ridx]).all()):
            # A page outside every region: the scalar loop faults there.
            return super().access_block(vpns)
        hvpn = heads >> _HUGE_SHIFT
        hbase, is_huge = hg.lookup(hvpn << _HUGE_SHIFT)
        is_small = ~is_huge
        small_heads = heads[is_small]
        pfn_sm, found = sm.lookup(small_heads)
        if not found.all():
            return super().access_block(vpns)

        small_value = small_d.__getitem__
        huge_value = lambda h: huge_d[h << _HUGE_SHIFT]  # noqa: E731
        hit1 = np.empty(heads.shape[0], dtype=bool)
        hit1[is_small] = simulate_block(
            self.l1.small, small_heads, small_heads, small_value)
        hv = hvpn[is_huge]
        hit1[is_huge] = simulate_block(self.l1.huge, hv, hv, huge_value)

        miss = ~hit1
        imask = self.l2.index_mask
        ways = self.l2.ways
        buckets = self.l2._sets
        mk = heads[miss]
        m = mk.shape[0]
        m_huge = is_huge[miss]
        m_hb = hbase[miss]
        dlog = dlogs[ridx[miss]]
        avpn = mk >> dlog << dlog
        an_keys = an.keys
        na = an_keys.size
        # Row of each miss's anchor in the merged plan (-1, the spare
        # last slot of the per-anchor arrays below, when it has none).
        aid = an.rows_of(avpn)
        af = aid >= 0
        cont = an.values_of(aid)
        appn, _ = sm.lookup(avpn)
        pfn_heads = np.zeros(heads.shape[0], dtype=np.int64)
        pfn_heads[is_small] = pfn_sm
        m_pfn = pfn_heads[miss]
        small_m = ~m_huge
        anchored = small_m & (mk - avpn < cont)
        unanch = small_m & ~anchored
        aidx = (avpn >> dlog) & imask
        pak = (avpn << 2) | KIND_ANCHOR

        # Main key per miss row, static given the merged directories:
        # huge pages probe their huge key, covered small pages their
        # region's anchor key, the rest their own small key.
        main_keys = np.where(
            m_huge,
            ((mk >> _HUGE_SHIFT) << 2) | KIND_HUGE,
            np.where(anchored, pak, (mk << 2) | KIND_SMALL),
        )
        main_sets = np.where(
            m_huge,
            (mk >> _HUGE_SHIFT) & imask,
            np.where(anchored, aidx, mk & imask),
        )

        # Which distinct anchors are resident right now?  Per-region
        # distances mean the same anchor VPN indexes a different set
        # under a different shift, so probe once per distinct distance.
        probe = af & small_m
        resident = np.zeros(m, dtype=bool)
        rf = np.zeros(na + 1, dtype=bool)
        for d in sorted(set(self._dlogs)):
            dmask = probe & (dlog == d)
            if not bool(dmask.any()):
                continue
            touched = np.zeros(na + 1, dtype=bool)
            touched[aid[dmask]] = True
            rf[:] = False
            for j in np.flatnonzero(touched[:na]).tolist():
                av = int(an_keys[j])
                bucket = buckets[(av >> d) & imask]
                if bucket.get((av << 2) | KIND_ANCHOR) is not None:
                    rf[j] = True
            resident[dmask] = rf[aid[dmask]]

        # Un-anchored misses give a resident anchor a weak LRU touch
        # (probe hits, contiguity never covers — resident entries match
        # the directories exactly, see the docstring).  Contaminate the
        # sets those anchors live in; an anchor inserted mid-block by an
        # anchored row counts as resident for later rows.
        inblk = np.zeros(na + 1, dtype=bool)
        inblk[aid[anchored]] = True
        cand = unanch & (resident | (probe & inblk[aid]))
        if bool(cand.any()):
            bad_sets = np.unique(aidx[cand])
            row_bad = isin_sorted(bad_sets, main_sets)
        else:
            row_bad = np.zeros(m, dtype=bool)
        weak_only = cand & ~row_bad
        clean = ~row_bad

        anchors_d = anchors
        def value_of(key: int):
            kind = key & 3
            base = key >> 2
            if kind == KIND_ANCHOR:
                return (small_d[base], anchors_d[base])
            if kind == KIND_HUGE:
                return huge_d[base << _HUGE_SHIFT]
            return small_d[base]

        hit2 = np.zeros(m, dtype=bool)
        hit2[clean] = simulate_block(
            self.l2, main_sets[clean], main_keys[clean], value_of)
        walk_mask = clean & ~hit2
        ch = clean & hit2
        l2_huge = int(np.count_nonzero(ch & m_huge))
        coalesced = int(np.count_nonzero(ch & anchored))
        l2_small = int(np.count_nonzero(ch & unanch))

        for i in np.flatnonzero(row_bad | weak_only).tolist():
            if weak_only[i]:
                # Clean main set (kernel already replayed the small-key
                # walk/insert); only the anchor touch remains.
                if hit2[i]:
                    continue
                abucket = buckets[int(aidx[i])]
                akey = int(pak[i])
                entry = abucket.get(akey)
                if entry is not None:
                    del abucket[akey]
                    abucket[akey] = entry
                continue
            vpn = int(mk[i])
            if m_huge[i]:
                bucket = buckets[int(main_sets[i])]
                key = int(main_keys[i])
                value = bucket.get(key)
                if value is not None:
                    del bucket[key]
                    bucket[key] = value
                    l2_huge += 1
                else:
                    walk_mask[i] = True
                    if len(bucket) >= ways:
                        del bucket[next(iter(bucket))]
                    bucket[key] = int(m_hb[i])
                continue
            bucket = buckets[vpn & imask]
            skey = (vpn << 2) | KIND_SMALL
            value = bucket.get(skey)
            if value is not None:
                del bucket[skey]
                bucket[skey] = value
                l2_small += 1
                continue
            abucket = buckets[int(aidx[i])]
            akey = int(pak[i])
            entry = abucket.get(akey)
            av = int(avpn[i])
            if entry is not None:
                # The probe touches LRU even when contiguity misses.
                del abucket[akey]
                abucket[akey] = entry
                if vpn - av < entry[1]:
                    coalesced += 1
                    continue
            walk_mask[i] = True
            if vpn - av < int(cont[i]):
                if akey in abucket:
                    del abucket[akey]
                elif len(abucket) >= ways:
                    del abucket[next(iter(abucket))]
                abucket[akey] = (int(appn[i]), int(cont[i]))
            else:
                if len(bucket) >= ways:
                    del bucket[next(iter(bucket))]
                bucket[skey] = int(m_pfn[i])

        walks = int(np.count_nonzero(walk_mask))
        walk_pt = 0
        if self.pwc is not None:
            walk_pt = self._block_walk_accesses(
                mk[walk_mask], m_huge[walk_mask])
        self.stats.bulk_update(
            accesses=n,
            l1_hits=n - heads.shape[0] + int(np.count_nonzero(hit1)),
            l2_small_hits=l2_small,
            l2_huge_hits=l2_huge,
            coalesced_hits=coalesced,
            walks=walks,
            walk_pt_accesses=walk_pt,
        )

    def _translate(self, vpn: int) -> int:
        index = self._region_index(vpn)
        if index is None:
            raise PageFaultError(f"vpn {vpn:#x} outside every region")
        directory = self._directories[index]
        huge_base = directory.huge.get((vpn >> _HUGE_SHIFT) << _HUGE_SHIFT)
        if huge_base is not None:
            return huge_base + (vpn & ((1 << _HUGE_SHIFT) - 1))
        via = directory.translate_via_anchor(vpn)
        if via is not None:
            return via
        pfn = directory.small.get(vpn)
        if pfn is None:
            raise PageFaultError(f"vpn {vpn:#x} not mapped")
        return pfn

    def flush(self) -> None:
        super().flush()
        self.l2.flush()

    @property
    def region_distances(self) -> list[int]:
        return [region.distance for region in self.regions]
