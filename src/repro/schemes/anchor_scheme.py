"""``Anchor``: the paper's hybrid TLB coalescing scheme (§3).

The shared L2 holds 4 KiB, 2 MiB and anchor entries (Table 3, Anchor
row).  The OS plans coverage with :class:`AnchorDirectory` — anchors at
every distance-aligned 4 KiB leaf, plus 2 MiB promotion where that beats
anchors — and the hardware follows the lookup flow of Fig. 5 / Table 2:

====================  ============  ===========  =======================
regular entry         anchor entry  contiguity   action
====================  ============  ===========  =======================
hit                   —             —            done (7 cycles)
miss                  hit           match        done (8 cycles)
miss                  hit           no match     walk, fill regular
miss                  miss          match        walk, fill *anchor only*
miss                  miss          no match     walk, fill regular only
====================  ============  ===========  =======================

The distance comes from a region table of ``(start, end, distance)``
rows held by the L2 (§4.2), with one plan per row; every anchor takes
its shift from its own row.  The single process-wide distance of §3.1
is the one-row table spanning the address space.  Two variants use
it: ``dynamic`` picks the distance with Algorithm 1 (and may re-pick at
epoch boundaries, paying the §3.3 distance-change cost), and
fixed-distance instances are used by the ``static-ideal`` exhaustive
search.  :class:`~repro.schemes.region_anchor_scheme.RegionAnchorScheme`
is the multi-row case.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PageFaultError
from repro.hw.tlb import KEY_MASK
from repro.params import DEFAULT_MACHINE, MachineConfig
from repro.hw.anchor_tlb import (
    KIND_ANCHOR,
    KIND_HUGE,
    KIND_SMALL,
    AnchorL2TLB,
)
from repro.schemes.base import TranslationScheme
from repro.sim.lru import isin_sorted, simulate_block
from repro.vmos.anchor import AnchorDirectory
from repro.vmos.contiguity import contiguity_histogram
from repro.vmos.distance import select_distance
from repro.vmos.mapping import KeyIndex, MemoryMapping, sorted_arrays
from repro.vmos.regions import AnchorRegion, RegionTable
from repro.vmos.shootdown import ShootdownLog

_HUGE_SHIFT = 9


def _merged(plans: list[dict[int, int]]) -> dict[int, int]:
    """One dict over every row's plan (the row's own dict for one row)."""
    if len(plans) == 1:
        return plans[0]
    merged: dict[int, int] = {}
    for plan in plans:
        merged.update(plan)
    return merged


class AnchorScheme(TranslationScheme):
    """Hybrid coalescing over a region table of anchor distances."""

    name = "anchor"
    supports_reselection = True

    def __init__(
        self,
        mapping: MemoryMapping,
        config: MachineConfig = DEFAULT_MACHINE,
        distance: int | None = None,
        enable_thp: bool = True,
    ) -> None:
        """``distance=None`` selects dynamically via Algorithm 1."""
        super().__init__(mapping, config)
        self.dynamic = distance is None
        self.name = "anchor-dyn" if self.dynamic else f"anchor-d{distance}"
        if distance is None:
            distance = select_distance(contiguity_histogram(mapping))
        self._install(distance, enable_thp)

    def _install(self, distance: int | RegionTable, enable_thp: bool) -> None:
        """Load ``distance`` — one distance or a whole region table — into
        the L2 and plan coverage for each of its rows."""
        self.enable_thp = enable_thp
        self.shootdowns = ShootdownLog()
        self.l2 = AnchorL2TLB(self.config, distance)
        # Resident-state caches for the block fast path: sets holding a
        # same-tenant entry whose value drifted from the directory, the
        # drifted anchor entries themselves, and resident small keys
        # whose VPN the current plan classifies as anchored.  Rebuilt by
        # a full array scan only after a directory (or tag) change —
        # while no other live tenant shares the tag, stale survivors
        # can appear at no other time — and shrunk by a cheap per-entry
        # re-probe between scans.
        self._stale_sets: set[int] = set()
        self._stale_anchors: dict[int, tuple[int, int]] = {}
        self._anch_smalls: set[int] = set()
        self._scan_tag = -1
        self._build_directories()

    def _build_directories(self) -> None:
        """One coverage plan per region row, over the current mapping."""
        self._directories = AnchorDirectory.build_regions(
            self.mapping,
            [(r.start_vpn, r.end_vpn, r.distance) for r in self.regions],
            self.enable_thp)
        # Copy-on-write guard for the shared coverage plans: set on both
        # sides of clone_fresh, cleared whenever the plans are rebuilt
        # or privatised by _own_directory_of.
        self._dir_shared = False
        self._invalidate_block_cache()

    # ------------------------------------------------------------------
    # Prototype cloning (share-don't-rebuild)
    # ------------------------------------------------------------------

    def _prepare_share(self) -> None:
        super()._prepare_share()
        self._directory_arrays()
        # The incremental note_* paths mutate the directories in place;
        # once any clone shares them, both prototype and clones must
        # privatise before their first in-place mutation.
        self._dir_shared = True

    def _reset_clone(self) -> None:
        super()._reset_clone()
        self.l2 = AnchorL2TLB(self.config, self.l2.table)
        self.shootdowns = ShootdownLog()
        self._stale_sets = set()
        self._stale_anchors = {}
        self._anch_smalls = set()
        self._scan_needed = True
        self._scan_tag = -1

    def _own_directory_of(self, vpn: int) -> AnchorDirectory:
        """The plan of ``vpn``'s row, privatised (with every other row's
        plan) if a clone shares them, ready for in-place mutation."""
        row = self.l2.table.row_of(vpn)
        if self._dir_shared:
            self._directories = [
                AnchorDirectory(
                    distance=shared.distance,
                    huge=dict(shared.huge),
                    anchor_contiguity=dict(shared.anchor_contiguity),
                    small=dict(shared.small),
                    protections=dict(shared.protections),
                )
                for shared in self._directories
            ]
            self._dir_shared = False
        return self._directories[row]

    # ------------------------------------------------------------------

    @property
    def distance(self) -> int | None:
        return self.l2.distance

    @property
    def regions(self) -> list[AnchorRegion]:
        """The region table's rows, sorted by start VPN."""
        return self.l2.table.regions

    @property
    def region_distances(self) -> list[int]:
        return [region.distance for region in self.regions]

    @property
    def directory(self) -> AnchorDirectory:
        """The coverage plan of a one-row table."""
        (directory,) = self._directories
        return directory

    def access(self, vpn: int) -> int:
        stats = self.stats
        stats.accesses += 1
        latency = self.config.latency
        table = self.l2.table
        row = table.row_of(vpn)
        directory = self._directories[row]
        hvpn = vpn >> _HUGE_SHIFT
        huge_base = directory.huge.get(hvpn << _HUGE_SHIFT)
        if huge_base is not None:
            if self.l1.huge.lookup(hvpn, hvpn) is not None:
                stats.l1_hits += 1
                return 0
            if self.l2.lookup_huge(hvpn) is not None:
                stats.l2_huge_hits += 1
                self.l1.fill_huge(hvpn, huge_base)
                return latency.l2_hit
            stats.walks += 1
            self.l2.fill_huge(hvpn, huge_base)
            self.l1.fill_huge(hvpn, huge_base)
            return self._walk_cycles(vpn, huge=True)
        if self.l1.small.lookup(vpn, vpn) is not None:
            stats.l1_hits += 1
            return 0
        pfn = self.l2.lookup_small(vpn)
        if pfn is not None:
            stats.l2_small_hits += 1
            self.l1.fill_small(vpn, pfn)
            return latency.l2_hit
        pfn = self.l2.lookup_anchor(vpn)
        if pfn is not None:
            stats.coalesced_hits += 1
            self.l1.fill_small(vpn, pfn)
            return latency.coalesced_hit
        # Walk: fetch the regular PTE (critical path), then the anchor
        # PTE; fill exactly one of the two (Table 2, rows 3-5).
        pfn = directory.small.get(vpn)
        if pfn is None:
            raise PageFaultError(f"vpn {vpn:#x} not mapped")
        stats.walks += 1
        dlog = table.shifts[row]
        avpn = vpn >> dlog << dlog
        contiguity = directory.anchor_contiguity.get(avpn, 0)
        if vpn - avpn < contiguity:
            self.l2.fill_anchor(avpn, directory.small[avpn], contiguity)
        else:
            self.l2.fill_small(vpn, pfn)
        self.l1.fill_small(vpn, pfn)
        return self._walk_cycles(vpn)

    # ------------------------------------------------------------------
    # Batched fast path
    # ------------------------------------------------------------------

    def _directory_arrays(self):
        """Indexes over the coverage plans, rebuilt lazily after any
        OS-side update (reselect, map/unmap/protect, rebuild).

        The rows' plans merge losslessly: regions are disjoint and each
        plan keys only VPNs of its own region.  An anchor of one region
        can still be a row of another region's anchor window (when a
        region starts off its distance alignment), but its contiguity
        stops at its own region's end, so it never covers that row —
        the merged lookup reaches the same walk decision as the row's
        own plan.
        """
        if self._block_cache is None:
            plans = self._directories
            huge = _merged([plan.huge for plan in plans])
            small = _merged([plan.small for plan in plans])
            anchors = _merged([plan.anchor_contiguity for plan in plans])
            hg = sorted_arrays(huge)
            sm = sorted_arrays(small)
            an = sorted_arrays(anchors)
            # Every anchor sits on a 4 KiB leaf by construction; if that
            # ever broke, the block path could not resolve APPNs safely.
            anchors_ok = sm.contains_all(an.keys)
            self._block_cache = (hg, sm, an, huge, small, anchors, anchors_ok)
        return self._block_cache

    def _invalidate_block_cache(self) -> None:
        self._block_cache = None
        self._scan_needed = True

    def _rescan_residents(self, tbase: int) -> None:
        """Full array scan rebuilding the resident-state caches."""
        _, _, _, huge, small_dir, anchor_cont, _ = self._directory_arrays()
        table = self.l2.table
        stale_sets: set[int] = set()
        stale_anchors: dict[int, tuple[int, int]] = {}
        anch_smalls: set[int] = set()
        for index, bucket in enumerate(self.l2.array._sets):
            for key, value in bucket.items():
                if (key & ~KEY_MASK) != tbase:
                    continue          # another tenant's entry
                kind = key & 3
                base = (key & KEY_MASK) >> 2
                if kind == KIND_ANCHOR:
                    if value != (small_dir.get(base),
                                 anchor_cont.get(base)):
                        stale_sets.add(index)
                        stale_anchors[key] = value
                elif kind == KIND_SMALL:
                    pfn = small_dir.get(base)
                    if value != pfn:
                        stale_sets.add(index)
                    # Only a 4 KiB leaf of the plan can sit in an anchor's
                    # run.  The test also skips entries of another
                    # address space sharing this tag, whose VPNs may lie
                    # outside every region.
                    if pfn is not None:
                        dlog = table.shift_of(base)
                        avpn = base >> dlog << dlog
                        if base - avpn < anchor_cont.get(avpn, 0):
                            anch_smalls.add(key)
                else:
                    if value != huge.get(base << _HUGE_SHIFT):
                        stale_sets.add(index)
        self._stale_sets = stale_sets
        self._stale_anchors = stale_anchors
        self._anch_smalls = anch_smalls
        self._scan_needed = False
        self._scan_tag = tbase

    def _prune_residents(self, tbase: int) -> None:
        """Re-probe the cached drifted entries; they can only go away
        (replay or other-tenant pressure evicting them, a replayed walk
        re-filling an anchor with current values) — never appear —
        between directory changes."""
        if not (self._stale_sets or self._anch_smalls):
            return
        array = self.l2.array
        buckets = array._sets
        _, _, _, huge, small_dir, anchor_cont, _ = self._directory_arrays()
        stale_anchors: dict[int, tuple[int, int]] = {}
        for index in sorted(self._stale_sets):
            drifted = False
            for key, value in buckets[index].items():
                if (key & ~KEY_MASK) != tbase:
                    continue
                kind = key & 3
                base = (key & KEY_MASK) >> 2
                if kind == KIND_ANCHOR:
                    if value != (small_dir.get(base),
                                 anchor_cont.get(base)):
                        drifted = True
                        stale_anchors[key] = value
                elif kind == KIND_SMALL:
                    if value != small_dir.get(base):
                        drifted = True
                elif value != huge.get(base << _HUGE_SHIFT):
                    drifted = True
            if not drifted:
                self._stale_sets.discard(index)
        self._stale_anchors = stale_anchors
        imask = array.index_mask
        for key in list(self._anch_smalls):
            if buckets[((key & KEY_MASK) >> 2) & imask].get(key) is None:
                self._anch_smalls.discard(key)

    def access_block(self, vpns: np.ndarray) -> None:
        """Vectorised fast path.

        The L1 arrays are promote-or-insert LRU (every head is filled
        with its directory translation whatever the L2 outcome), so both
        resolve with :func:`simulate_block`.  The shared L2 decomposes
        the same way the cluster schemes do (docs/api_tour.md §15):
        each L1-miss row's probe/fill flow touches exactly one *main*
        key chosen by a static property of the directory (huge rows
        their huge key, anchored rows their anchor key, the rest their
        small key — Table 2), so the main stream batches through
        :func:`simulate_block`; the residual coupling — weak anchor
        promotions by unanchored misses, and stale entries surviving
        the incremental OS-update paths — is confined to the few sets
        it can touch, which replay exactly in trace order.  Each row
        carries its region's shift (``dlog``) into every anchor key and
        set it builds.
        """
        if vpns.shape[0] == 0:
            return
        hg, sm, an, huge, small_dir, anchor_cont, ok = self._directory_arrays()
        stage = self._l1_stage(vpns, sm, hg, small_dir, huge) if ok else None
        if stage is None:
            return super().access_block(vpns)
        heads, is_huge, pfn_heads, hbase, hit1 = stage
        n = vpns.shape[0]

        # Per-L1-miss precomputation for the shared L2.  Each miss row's
        # probe/fill flow touches exactly one *main* key, chosen by a
        # static property of the directory (Table 2): huge rows their
        # huge key, anchored rows (vpn - avpn < contiguity) their anchor
        # key, the rest their small key.  That makes the main stream
        # promote-or-insert, so it batches through simulate_block; the
        # residual coupling — an unanchored miss *promoting* a resident
        # anchor entry it doesn't cover, and stale entries surviving the
        # incremental OS-update paths — is confined to the few sets it
        # can touch, which replay exactly in trace order below (the same
        # decomposition the cluster schemes use, docs/api_tour.md §15).
        miss = ~hit1
        table = self.l2.table
        array = self.l2.array
        imask = array.index_mask
        ways = array.ways
        buckets = array._sets
        # The replay builds raw keys, bypassing the array's tag packing;
        # OR the active tenant's tag base in explicitly (0 when untagged)
        # so tagged entries of other tenants never alias but still
        # contend for ways.  simulate_block packs the same bits itself.
        tbase = array._tag_base
        mk = heads[miss]
        m = mk.shape[0]
        m_huge = is_huge[miss]
        m_hb = hbase[miss]
        # Every mapped page lies in a region: its row's shift.
        dlog = table.dlogs[table.rows_of(mk)]
        avpn = mk >> dlog << dlog
        an_keys = an.keys
        na = an_keys.size
        # Row of each miss's anchor in the plan (-1, the spare last slot
        # of the per-anchor arrays below, when it has none).
        aid = an.rows_of(avpn)
        af = aid >= 0
        cont = an.values_of(aid)
        appn, _ = sm.lookup(avpn)
        m_pfn = pfn_heads[miss]
        small_m = ~m_huge
        anchored = small_m & (mk - avpn < cont)
        unanch = small_m & ~anchored
        aidx = (mk >> dlog) & imask
        pak = ((avpn << 2) | KIND_ANCHOR) | np.int64(tbase)

        main_keys = np.where(
            m_huge, ((mk >> _HUGE_SHIFT) << 2) | KIND_HUGE,
            np.where(anchored, (avpn << 2) | KIND_ANCHOR, mk << 2))
        main_sets = np.where(
            m_huge, (mk >> _HUGE_SHIFT) & imask,
            np.where(anchored, aidx, mk & imask))

        # Refresh the resident-state caches: full array scan only after
        # a directory (or tag) change, cheap shrink-only re-probe of
        # the cached entries otherwise.
        if self._scan_needed or self._scan_tag != tbase:
            self._rescan_residents(tbase)
        else:
            self._prune_residents(tbase)
        stale_anchors = self._stale_anchors
        anch_smalls = self._anch_smalls

        # Anchor residency by direct probe: a block touches few
        # distinct anchors, so probing their buckets beats snapshotting
        # the whole array.  The same anchor VPN indexes a different set
        # under a different shift, so probe once per distinct shift in
        # the table (once for a one-row table).  Values are block-start
        # state; rows whose outcome depends on mid-block changes are
        # forced into the replay, which re-checks live state.
        probe = af & small_m
        resident = np.zeros(m, dtype=bool)
        r_ap = np.zeros(m, dtype=np.int64)
        r_ct = np.zeros(m, dtype=np.int64)
        for shift in sorted(set(table.shifts)):
            rows = probe & (dlog == shift)
            touched = np.zeros(na + 1, dtype=bool)
            touched[aid[rows]] = True
            rf = np.zeros(na + 1, dtype=bool)
            ra = np.zeros(na + 1, dtype=np.int64)
            rc = np.zeros(na + 1, dtype=np.int64)
            for j in np.flatnonzero(touched[:na]).tolist():
                av = int(an_keys[j])
                entry = buckets[(av >> shift) & imask].get(
                    ((av << 2) | KIND_ANCHOR) | tbase)
                if entry is not None:
                    rf[j] = True
                    ra[j] = entry[0]
                    rc[j] = entry[1]
            found = rows & rf[aid]
            resident |= found
            r_ap = np.where(found, ra[aid], r_ap)
            r_ct = np.where(found, rc[aid], r_ct)
        # Anchors the directory dropped can survive as resident
        # entries; their keys and values come from the drift cache.  A
        # match may sit in another set than the row probes (a row of a
        # region starting off its alignment); treating it as resident
        # only sends the row to the exact replay.
        if stale_anchors:
            items = sorted(stale_anchors.items())
            sa_keys = np.array([k for k, _ in items], dtype=np.int64)
            sa_ap = np.array([v[0] for _, v in items], dtype=np.int64)
            sa_ct = np.array([v[1] for _, v in items], dtype=np.int64)
            s_row = KeyIndex(sa_keys, sa_ap).rows_of(pak)
            s_found = (s_row >= 0) & small_m
            resident |= s_found
            r_ap = np.where(s_found, sa_ap[s_row], r_ap)
            r_ct = np.where(s_found, sa_ct[s_row], r_ct)
        stale = resident & ((r_ap != appn) | (r_ct != cont))
        sk_res = np.zeros(m, dtype=bool)
        if anch_smalls and bool(anchored.any()):
            sk_res = anchored & isin_sorted(
                np.sort(np.fromiter(anch_smalls, dtype=np.int64,
                                    count=len(anch_smalls))),
                (mk << 2) | np.int64(tbase))

        # Candidate weak touches: an unanchored miss probes its anchor
        # key and promotes it if resident — possible only if that key
        # was resident at block start or an in-block anchored row
        # inserts it.
        inblk = np.zeros(na + 1, dtype=bool)
        inblk[aid[anchored]] = True
        cand = unanch & (resident | (probe & inblk[aid]))
        forced = (stale & (anchored | (unanch & (mk - avpn < r_ct)))) | sk_res
        # A forced row replays its full scalar flow, which can touch
        # both its anchor set and its small-key set — contaminate both.
        # Sets holding drifted entries always replay: the kernel stores
        # value_of — the *current* value — for every key it accesses,
        # hits included, while the scalar machine keeps a hit's stale
        # value.
        bad_sets = np.unique(np.concatenate([
            aidx[cand | (forced & small_m)],
            (mk & imask)[forced & small_m],
            main_sets[forced],
            np.fromiter(self._stale_sets, dtype=np.int64,
                        count=len(self._stale_sets)),
        ]))
        if bad_sets.size:
            row_bad = isin_sorted(bad_sets, main_sets)
            weak_only = cand & ~row_bad
        else:
            row_bad = np.zeros(m, dtype=bool)
            weak_only = row_bad

        # Batched main stream over the clean sets only.  The kernel
        # asks value_of about each accessed key that survives into the
        # final state, once per key rather than per row; the drift
        # check above guarantees a key that hits a resident entry
        # resolves to that entry's value.
        clean = ~row_bad

        def value_of(key: int):
            kind = key & 3
            base = key >> 2
            if kind == KIND_ANCHOR:
                return (small_dir[base], anchor_cont[base])
            if kind == KIND_HUGE:
                return huge[base << _HUGE_SHIFT]
            return small_dir[base]

        hit2 = np.zeros(m, dtype=bool)
        hit2[clean] = simulate_block(
            array, main_sets[clean], main_keys[clean], value_of)
        walk_mask = clean & ~hit2
        ch = clean & hit2
        l2_huge = int(np.count_nonzero(ch & m_huge))
        coalesced = int(np.count_nonzero(ch & anchored))
        l2_small = int(np.count_nonzero(ch & unanch))

        # Exact replay of the contaminated sets, plus the weak anchor
        # promotions of clean unanchored misses, in trace order.
        for i in np.flatnonzero(row_bad | weak_only).tolist():
            if weak_only[i]:
                if hit2[i]:  # main probe hit: the anchor is never probed
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
                key = int(main_keys[i]) | tbase
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
            skey = (vpn << 2) | tbase  # | KIND_SMALL
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

    # ------------------------------------------------------------------
    # Dynamic distance management (epoch boundary hook)
    # ------------------------------------------------------------------

    def reselect_distance(self) -> tuple[int, bool]:
        """Re-run Algorithm 1 (an OS epoch tick, §4.1).

        Re-plans the one-row table and flushes the TLBs when the pick
        changes; the OS-side cost lands in :attr:`shootdowns`.  Returns
        ``(distance, changed)``.
        """
        if not self.dynamic:
            return self.distance, False
        picked = select_distance(contiguity_histogram(self.mapping))
        if picked == self.distance:
            return picked, False
        self.shootdowns.record_distance_change(self.mapping.mapped_pages, picked)
        self.l2.set_distance(picked)
        self._build_directories()
        self.l1.flush()
        return picked, True

    # ------------------------------------------------------------------
    # OS mapping updates (§3.3): incremental anchor maintenance plus the
    # targeted TLB shootdown of the page and every anchor spanning it.
    # ------------------------------------------------------------------

    def _shootdown_page(
        self, vpn: int, directory: AnchorDirectory, anchors: list[int]
    ) -> None:
        self._invalidate_block_cache()
        self.l1.small.invalidate(vpn, vpn)
        self.l2.invalidate_small(vpn)
        for avpn in anchors:
            self.l2.invalidate_anchor(avpn)
        self.shootdowns.record_unmap(1, directory.distance)

    def unmap_page(self, vpn: int) -> int:
        """Unmap one 4 KiB page: page table, anchors, and TLBs."""
        directory = self._own_directory_of(vpn)
        anchors = directory.anchors_spanning(vpn)
        pfn = directory.note_unmap(vpn)
        self.mapping.unmap_page(vpn)
        # Incremental maintenance stands in for the default full flush.
        self._synced_version = self.mapping.version
        self._shootdown_page(vpn, directory, anchors)
        return pfn

    def map_page(self, vpn: int, pfn: int) -> None:
        """Map one 4 KiB page, merging it into surrounding anchor runs."""
        directory = self._own_directory_of(vpn)
        directory.note_map(vpn, pfn)
        self.mapping.map_page(vpn, pfn)
        self._synced_version = self.mapping.version
        # Stale anchors around the new page now under-report contiguity;
        # invalidate them so refills pick up the merged runs.
        self._shootdown_page(vpn, directory, directory.anchors_spanning(vpn))

    def protect_page(self, vpn: int, prot: int) -> None:
        """Change one page's protection, splitting coalesced coverage."""
        directory = self._own_directory_of(vpn)
        anchors = directory.anchors_spanning(vpn)
        directory.note_protect(vpn, prot)
        self.mapping.set_protection(vpn, 1, prot)
        self._synced_version = self.mapping.version
        self._shootdown_page(vpn, directory, anchors)

    def rebuild(self, mapping: MemoryMapping) -> None:
        """Adopt an updated mapping (allocation/relocation), flushing TLBs."""
        self.mapping = mapping
        self._synced_version = mapping.version
        self._build_directories()
        self.flush()

    def _on_mapping_update(self, frozen) -> None:
        """External mapping mutation: replan coverage, then flush."""
        self._build_directories()
        self.flush()

    def _translate(self, vpn: int) -> int:
        directory = self._directories[self.l2.table.row_of(vpn)]
        huge_base = directory.huge.get((vpn >> _HUGE_SHIFT) << _HUGE_SHIFT)
        if huge_base is not None:
            return huge_base + (vpn & ((1 << _HUGE_SHIFT) - 1))
        via_anchor = directory.translate_via_anchor(vpn)
        if via_anchor is not None:
            return via_anchor
        pfn = directory.small.get(vpn)
        if pfn is None:
            raise PageFaultError(f"vpn {vpn:#x} not mapped")
        return pfn

    def flush(self) -> None:
        super().flush()
        self.l2.flush()
