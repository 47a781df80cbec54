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

from itertools import chain

import numpy as np

from repro.errors import PageFaultError
from repro.params import DEFAULT_MACHINE, MachineConfig
from repro.hw.anchor_tlb import KIND_ANCHOR, KIND_HUGE, AnchorL2TLB
from repro.hw.tlb import KEY_MASK, TAG_SHIFT
from repro.schemes.base import TranslationScheme
from repro.sim.lru import isin_sorted, simulate_block
from repro.vmos.anchor import AnchorDirectory
from repro.vmos.contiguity import contiguity_histogram
from repro.vmos.distance import select_distance
from repro.vmos.mapping import KeyIndex, MemoryMapping
from repro.vmos.regions import AnchorRegion, RegionTable
from repro.vmos.shootdown import ShootdownLog

_HUGE_SHIFT = 9

# A miss row's L2 outcome, the column of its tenant's stats row.
_WALK, _SMALL_HIT, _HUGE_HIT, _COALESCED = range(4)


class AnchorScheme(TranslationScheme):
    """Hybrid coalescing over a region table of anchor distances."""

    name = "anchor"
    supports_reselection = True
    hardware = TranslationScheme.hardware + ("l2",)

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
        self._build_directories()

    def _build_directories(self) -> None:
        """One coverage plan per region row, over the current mapping.

        Every caller empties the scheme's L2 entries around the replan
        (a new L2 or a flush), so afterwards each entry under the
        scheme's tag is again what this plan would fill: the invariant
        :meth:`access_block` batches on.
        """
        self._directories = AnchorDirectory.build_regions(
            self.mapping,
            [(r.start_vpn, r.end_vpn, r.distance) for r in self.regions],
            self.enable_thp)
        # Copy-on-write guard for the shared coverage plans: set on both
        # sides of clone_fresh, cleared whenever the plans are rebuilt
        # or privatised by _own_directory_of.
        self._dir_shared = False
        self._block_cache = None
        self._drifted = False

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
        self.shootdowns = ShootdownLog()
        # The clone's fresh L2 holds nothing the plan disagrees with.
        self._drifted = False

    def flush(self) -> None:
        super().flush()
        # The tenant's L2 entries are gone, so none can disagree with
        # the plan: the block path batches again.
        self._drifted = False

    def _own_directory_of(self, vpn: int) -> AnchorDirectory:
        """The plan of ``vpn``'s row, privatised (with every other row's
        plan) if a clone shares them, ready for in-place mutation."""
        row = self.l2.table.row_of(vpn)
        if self._dir_shared:
            self._directories = [shared.copy() for shared in self._directories]
            self._dir_shared = False
        return self._directories[row]

    # ------------------------------------------------------------------

    @property
    def distance(self) -> int | None:
        return self.l2.distance

    def restore_distance(self, distance: int) -> None:
        """Reload the anchor-distance register on a context switch
        (§3.1), flushing nothing: see ``AnchorL2TLB.restore_distance``."""
        self.l2.restore_distance(distance)

    @property
    def regions(self) -> tuple[AnchorRegion, ...]:
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

        The rows' plans concatenate losslessly: regions are disjoint and
        sorted, and each plan keys only VPNs of its own region.  An
        anchor of one region can still be a row of another region's
        anchor window (when a region starts off its distance alignment),
        but its contiguity stops at its own region's end, so it never
        covers that row — the merged lookup reaches the same walk
        decision as the row's own plan.
        """
        if self._block_cache is None:
            rows = [plan.indexes() for plan in self._directories]
            hg, sm, an = rows[0] if len(rows) == 1 else (
                KeyIndex(np.concatenate([index.keys for index in column]),
                         np.concatenate([index.values for index in column]))
                for column in zip(*rows))
            # Every anchor sits on a 4 KiB leaf by construction; if that
            # ever broke, the block path could not resolve APPNs safely.
            self._block_cache = (hg, sm, an, sm.contains_all(an.keys))
        return self._block_cache

    def access_block(self, vpns: np.ndarray) -> None:
        """Vectorised fast path, for one tenant's block or a fleet round.

        The L1 arrays are promote-or-insert LRU (every head is filled
        with its directory translation whatever the L2 outcome), so both
        resolve with :func:`simulate_block`.  The shared L2 decomposes
        the same way the cluster schemes do (docs/api_tour.md §15):
        each L1-miss row's probe/fill flow touches exactly one *main*
        key chosen by a static property of the directory (huge rows
        their huge key, anchored rows their anchor key, the rest their
        small key — Table 2), so the main stream batches through
        :func:`simulate_block`; the residual coupling — weak anchor
        promotions by unanchored misses — is confined to the sets it
        can touch, which replay exactly in trace order.  Those sets are
        not few: on perfbench's engine-churn input they hold 44% of the
        rows that reach anchor-dyn's L2 and 49% of anchor-region's.
        Touches reach most sets, and cutting them into rounds
        (:func:`~repro.sim.lru.simulate_touched`, as the cluster schemes
        do) would take 300–3,600 rounds a block there, so the replay
        stays (docs/api_tour.md §15).  Each row carries its region's
        shift (``dlog``) into every anchor key and set it builds.

        A fleet round's rows carry their tenants' tags (see
        :meth:`TranslationScheme.access_block`).  Each tenant's run is
        looked up in that tenant's own plan; then every shared structure
        — both L1 arrays, the L2 and each page-walk-cache level — takes
        one :func:`simulate_block` call over rows keyed with their own
        tag, and one ``bincount`` splits the outcomes into per-tenant
        stats.  A block of one tenant's untagged rows is the one-run
        case under the scheme's current tag.

        The batching rests on one invariant: every L2 entry under a
        tenant's tag is what its current plan would fill.  Only the
        §3.3 incremental updates break it; until the next replan or
        flush restores it, that tenant's blocks run the scalar loop, and
        a round holding it runs the base loop.
        """
        n = vpns.shape[0]
        if n == 0:
            return
        runs = self._tenant_runs(vpns)
        rows = vpns & KEY_MASK
        if runs is None:
            runs = [(self, self.l2.array.tag, 0, n)]
        # Each run's plan; each tenant's anchors numbered from its own
        # offset, one id space for every anchor the block can touch.
        stage_runs = []
        numbered: dict[AnchorScheme, tuple[int, KeyIndex]] = {}
        anchor_ids = 0
        for tenant, tag, _, stop in runs:
            if tenant._drifted:
                return TranslationScheme.access_block(self, vpns)
            hg, sm, an, ok = tenant._directory_arrays()
            if not ok:
                return TranslationScheme.access_block(self, vpns)
            if tenant not in numbered:
                numbered[tenant] = (anchor_ids, an)
                anchor_ids += an.keys.size
            stage_runs.append((tag << TAG_SHIFT, stop, sm, hg))
        stage = self._l1_stage(rows, stage_runs)
        if stage is None:
            return TranslationScheme.access_block(self, vpns)
        heads, owner, is_huge, pfn_heads, hbase, hit1 = stage

        miss = ~hit1
        array = self.l2.array
        imask = array.index_mask
        ways = array.ways
        buckets = array._sets
        mk = heads[miss]
        m = mk.shape[0]
        m_owner = owner[miss]
        m_huge = is_huge[miss]
        # The value a walk fills for each row's own entry.
        m_fill = np.where(m_huge, hbase[miss], pfn_heads[miss])
        # Each tenant's misses in its own plan: the run's shift (every
        # mapped page lies in a region), and the anchor it would use
        # (-1, the spare last slot of the per-anchor arrays below, when
        # it has none).
        dlog = np.empty(m, dtype=np.int64)
        aid = np.empty(m, dtype=np.int64)
        cont = np.empty(m, dtype=np.int64)
        appn = np.empty(m, dtype=np.int64)
        p = len(runs)
        misses = np.bincount(m_owner, minlength=p)
        start = 0
        stops = np.cumsum(misses).tolist()
        for (tenant, *_), (_, _, sm, *_), stop in zip(runs, stage_runs, stops):
            offset, an = numbered[tenant]
            table = tenant.l2.table
            seg = mk[start:stop]
            d = table.dlogs[table.rows_of(seg)]
            seg_avpn = seg >> d << d
            rows_in_plan = an.rows_of(seg_avpn)
            dlog[start:stop] = d
            aid[start:stop] = np.where(
                rows_in_plan >= 0, rows_in_plan + offset, -1)
            cont[start:stop] = an.values_of(rows_in_plan)
            appn[start:stop] = sm.lookup(seg_avpn)[0]
            start = stop
        # The replay builds raw keys, bypassing the array's tag packing:
        # every row ORs in its own tenant's tag base, so entries of
        # different tenants never alias but still contend for ways.
        tb = np.array([run[0] for run in stage_runs], dtype=np.int64)[m_owner]
        avpn = mk >> dlog << dlog
        small_m = ~m_huge
        anchored = small_m & (mk - avpn < cont)
        unanch = small_m & ~anchored
        aidx = (mk >> dlog) & imask
        pak = ((avpn << 2) | KIND_ANCHOR) | tb

        main_keys = np.where(
            m_huge, ((mk >> _HUGE_SHIFT) << 2) | KIND_HUGE,
            np.where(anchored, (avpn << 2) | KIND_ANCHOR, mk << 2)) | tb
        main_sets = np.where(
            m_huge, (mk >> _HUGE_SHIFT) & imask,
            np.where(anchored, aidx, mk & imask))

        # Candidate weak touches: an unanchored miss probes its anchor
        # key and promotes it if resident — possible only if that key
        # was resident at block start or an in-block anchored row
        # inserts it.  Their sets replay exactly.  Residency at block
        # start comes from one sorted snapshot of the L2's keys: a
        # tagged anchor key sits only in the set its own region's shift
        # picks, so membership anywhere is membership there — except
        # for a row that reaches, off its region's alignment, an anchor
        # of a neighbouring region, where the snapshot only adds a
        # candidate for the replay to resolve.
        touching = np.flatnonzero(unanch & (aid >= 0))
        snapshot = np.fromiter(chain.from_iterable(buckets), dtype=np.int64)
        snapshot.sort()
        inblk = np.zeros(anchor_ids + 1, dtype=bool)
        inblk[aid[anchored]] = True
        cand = np.zeros(m, dtype=bool)
        cand[touching] = (isin_sorted(snapshot, pak[touching])
                          | inblk[aid[touching]])
        bad_sets = np.unique(aidx[cand])
        if bad_sets.size:
            row_bad = isin_sorted(bad_sets, main_sets)
            weak_only = cand & ~row_bad
        else:
            row_bad = np.zeros(m, dtype=bool)
            weak_only = row_bad

        # Batched main stream over the clean sets only.  Each row fills
        # its main entry: the anchor's (APPN, contiguity), else its own
        # value.  The kernel reads them only at the rows that leave a key
        # resident; the invariant guarantees a row that hits a resident
        # entry would fill that entry's value.
        clean = np.flatnonzero(~row_bad)

        def main_fills(rows: np.ndarray) -> list:
            rows = clean[rows]
            return [
                (anchor_pfn, contiguity) if is_anchor else value
                for is_anchor, anchor_pfn, contiguity, value in zip(
                    anchored[rows].tolist(), appn[rows].tolist(),
                    cont[rows].tolist(), m_fill[rows].tolist())]

        hit2 = np.zeros(m, dtype=bool)
        hit2[clean] = simulate_block(
            array, main_sets[clean], main_keys[clean], main_fills)
        # Each miss row's L2 outcome; the exact replay below overwrites
        # the contaminated rows'.
        outcome = np.where(hit2, np.where(
            m_huge, _HUGE_HIT, np.where(anchored, _COALESCED, _SMALL_HIT)),
            _WALK)

        # Exact replay of the contaminated sets, plus the weak anchor
        # promotions of clean unanchored misses whose main probe missed,
        # in trace order, over plain lists of the replayed rows' columns.
        # A row first probes its own entry: its huge entry, or its small
        # entry under the row's own tag.
        replay = np.flatnonzero(row_bad | (weak_only & ~hit2))
        codes = outcome[replay].tolist()
        small_keys = (mk << 2) | tb  # | KIND_SMALL
        columns = [column[replay].tolist() for column in (
            weak_only, m_huge, np.where(m_huge, main_sets, mk & imask),
            np.where(m_huge, main_keys, small_keys), aidx, pak, mk - avpn,
            cont, appn, m_fill)]
        for j, (weak, huge_row, own_set, own_key, aset, akey, offset,
                contiguity, anchor_pfn, value) in enumerate(zip(*columns)):
            if weak:
                abucket = buckets[aset]
                entry = abucket.get(akey)
                if entry is not None:
                    del abucket[akey]
                    abucket[akey] = entry
                continue
            bucket = buckets[own_set]
            entry = bucket.get(own_key)
            if entry is not None:
                del bucket[own_key]
                bucket[own_key] = entry
                codes[j] = _HUGE_HIT if huge_row else _SMALL_HIT
                continue
            if not huge_row:
                abucket = buckets[aset]
                entry = abucket.get(akey)
                if entry is not None:
                    # The probe touches LRU even when contiguity misses.
                    del abucket[akey]
                    abucket[akey] = entry
                    if offset < entry[1]:
                        codes[j] = _COALESCED
                        continue
                if offset < contiguity:
                    if akey in abucket:
                        del abucket[akey]
                    elif len(abucket) >= ways:
                        del abucket[next(iter(abucket))]
                    abucket[akey] = (anchor_pfn, contiguity)
                    continue
            if len(bucket) >= ways:
                del bucket[next(iter(bucket))]
            bucket[own_key] = value
        outcome[replay] = codes

        walked = outcome == _WALK
        walk_pt = [0] * p
        if self.pwc is not None and walked.any():
            accesses = self.pwc.accesses_for_block(
                mk[walked] | tb[walked], m_huge[walked])
            walk_pt = np.bincount(
                m_owner[walked], weights=accesses, minlength=p
            ).astype(np.int64).tolist()
        l2 = np.bincount(m_owner * 4 + outcome, minlength=4 * p).reshape(p, 4)
        for r, (tenant, _, start, stop) in enumerate(runs):
            walks, small_hits, huge_hits, coalesced = l2[r].tolist()
            tenant.stats.bulk_update(
                accesses=stop - start,
                l1_hits=stop - start - int(misses[r]),
                l2_small_hits=small_hits,
                l2_huge_hits=huge_hits,
                coalesced_hits=coalesced,
                walks=walks,
                walk_pt_accesses=walk_pt[r],
            )

    # ------------------------------------------------------------------
    # Dynamic distance management (epoch boundary hook)
    # ------------------------------------------------------------------

    def reselect_distance(self) -> tuple[int, bool]:
        """Re-run Algorithm 1 (an OS epoch tick, §4.1).

        Re-plans the one-row table and flushes the scheme's L1 and L2
        entries, under its own ASID, when the pick changes; the OS-side
        cost lands in :attr:`shootdowns`.  Returns ``(distance,
        changed)``.
        """
        if not self.dynamic:
            return self.distance, False
        picked = select_distance(contiguity_histogram(self.mapping))
        if picked == self.distance:
            return picked, False
        self.shootdowns.record_distance_change(self.mapping.mapped_pages, picked)
        self.l2.restore_distance(picked)
        self._build_directories()
        self._flush_own(self.l1, self.l2)
        return picked, True

    # ------------------------------------------------------------------
    # OS mapping updates (§3.3): incremental anchor maintenance plus the
    # targeted TLB shootdown of the page and every anchor spanning it.
    # ------------------------------------------------------------------

    def _shootdown_page(
        self, vpn: int, directory: AnchorDirectory, anchors: list[int]
    ) -> None:
        # The plan changed in place, so its block indexes go.  The
        # shootdown reaches the page and its spanning anchors only:
        # other resident entries may now disagree with the edited plan
        # (a merge anchoring a resident small page), so the block path
        # stays scalar until the next replan or flush.
        self._block_cache = None
        self._drifted = True
        # Under its own ASID: the tag register may hold another tenant's.
        self.l1.small.invalidate(vpn, vpn, self.asid)
        self.l2.invalidate_small(vpn, self.asid)
        for avpn in anchors:
            self.l2.invalidate_anchor(avpn, self.asid)
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
