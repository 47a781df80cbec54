"""``RMM``: redundant memory mappings (Karakostas et al., ISCA'15).

The baseline L2 (4 KiB + 2 MiB with THP) is backed by a 32-entry fully
associative range TLB.  After an L2 miss the range TLB is probed; a hit
translates with the range's base PPN plus offset (8 cycles).  A miss
walks the page table and refills both the L2 and — from the OS's
redundant range table — the range TLB.

With a handful of huge ranges (the ``max`` scenario) RMM practically
eliminates walks; with many small chunks the 32 entries thrash and RMM
degenerates to THP (Fig. 2), which is the paper's core motivation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PageFaultError
from repro.params import DEFAULT_MACHINE, MachineConfig
from repro.hw.range_tlb import RangeTable, RangeTLB
from repro.hw.tlb import SetAssociativeTLB
from repro.schemes.base import TranslationScheme, promote_huge_pages
from repro.vmos.mapping import KeyIndex, MemoryMapping, sorted_arrays

_HUGE_SHIFT = 9
_KIND_SMALL = 0
_KIND_HUGE = 1


class RMMScheme(TranslationScheme):
    """Baseline L2 (with THP) + 32-entry range TLB."""

    name = "rmm"
    hardware = TranslationScheme.hardware + ("l2", "range_tlb")

    def __init__(
        self,
        mapping: MemoryMapping,
        config: MachineConfig = DEFAULT_MACHINE,
    ) -> None:
        super().__init__(mapping, config)
        self.l2 = SetAssociativeTLB(config.l2.entries, config.l2.ways)
        self.range_tlb = RangeTLB()
        self._build_os_views()

    def _build_os_views(self) -> None:
        """(Re-)derive the OS-side structures from the current mapping."""
        self.range_table = RangeTable(self.mapping)
        self._huge, self._small = promote_huge_pages(self.mapping)
        self._arrays: tuple[KeyIndex, KeyIndex] | None = None

    def _on_mapping_update(self, frozen) -> None:
        self._build_os_views()
        self.flush()

    def _sorted_views(self) -> tuple[KeyIndex, KeyIndex]:
        if self._arrays is None:
            self._arrays = (sorted_arrays(self._small),
                            sorted_arrays(self._huge))
        return self._arrays

    def _prepare_share(self) -> None:
        super()._prepare_share()
        self._sorted_views()

    def access(self, vpn: int) -> int:
        stats = self.stats
        stats.accesses += 1
        latency = self.config.latency
        hvpn = vpn >> _HUGE_SHIFT
        huge_base = self._huge.get(hvpn << _HUGE_SHIFT)
        if huge_base is not None:
            if self.l1.huge.lookup(hvpn, hvpn) is not None:
                stats.l1_hits += 1
                return 0
            if self.l2.lookup(hvpn, (hvpn << 1) | _KIND_HUGE) is not None:
                stats.l2_huge_hits += 1
                self.l1.fill_huge(hvpn, huge_base)
                return latency.l2_hit
            pfn = self.range_tlb.lookup(vpn)
            if pfn is not None:
                stats.coalesced_hits += 1
                self.l1.fill_huge(hvpn, huge_base)
                return latency.coalesced_hit
            stats.walks += 1
            self.l2.insert(hvpn, (hvpn << 1) | _KIND_HUGE, huge_base)
            self.l1.fill_huge(hvpn, huge_base)
            self._refill_range(vpn)
            return self._walk_cycles(vpn, huge=True)
        if self.l1.small.lookup(vpn, vpn) is not None:
            stats.l1_hits += 1
            return 0
        pfn = self.l2.lookup(vpn, (vpn << 1) | _KIND_SMALL)
        if pfn is not None:
            stats.l2_small_hits += 1
            self.l1.fill_small(vpn, pfn)  # type: ignore[arg-type]
            return latency.l2_hit
        pfn = self.range_tlb.lookup(vpn)
        if pfn is not None:
            stats.coalesced_hits += 1
            self.l1.fill_small(vpn, pfn)
            return latency.coalesced_hit
        pfn = self._small.get(vpn)
        if pfn is None:
            raise PageFaultError(f"vpn {vpn:#x} not mapped")
        stats.walks += 1
        self.l2.insert(vpn, (vpn << 1) | _KIND_SMALL, pfn)
        self.l1.fill_small(vpn, pfn)
        self._refill_range(vpn)
        return self._walk_cycles(vpn)

    def _refill_range(self, vpn: int) -> None:
        entry = self.range_table.find(vpn)
        if entry is not None:
            self.range_tlb.insert(entry)

    def access_block(self, vpns: np.ndarray) -> None:
        """Vectorised fast path.

        The L1 arrays resolve with :func:`simulate_block`; the L2 and
        the range TLB do not — they are *interlocked* (a range hit
        suppresses the L2 refill, and only walks refill the range TLB),
        so neither is promote-or-insert over its own probe stream.  The
        L1 misses replay through an exact Python loop with the
        per-reference lookups (page-size class, PFN, covering chunk)
        hoisted into numpy.  The range-TLB scan reduces to one dict
        probe: resident same-tag ranges are disjoint chunks of the
        current mapping keyed by their (tagged) start VPN, so the only
        entry that can cover a VPN is its own chunk's — foreign-tag
        entries never match an associative lookup by construction.
        """
        if vpns.shape[0] == 0:
            return
        frozen = self.mapping.frozen()
        small_index, huge_index = self._sorted_views()
        stage = self._l1_stage(
            vpns, small_index, huge_index, self._small, self._huge)
        if stage is None:
            return super().access_block(vpns)
        heads, is_huge, pfn_heads, hbase, hit1 = stage
        n = vpns.shape[0]

        miss = ~hit1
        mk = heads[miss]
        cid = frozen.chunk_of(mk)
        cstart = frozen.chunk_vpn[cid] if cid.size else cid
        ranges = self.range_table.ranges()
        rentries = self.range_tlb._entries
        rbase = self.range_tlb._tag_base
        r_cap = self.range_tlb.capacity
        ways = self.l2.ways
        imask = self.l2.index_mask
        buckets = self.l2._sets
        tbase = self.l2._tag_base
        l2_small = l2_huge = coalesced = walks = 0
        walk_vpns: list[int] = []
        walk_huge: list[bool] = []
        rows = zip(
            mk.tolist(),
            is_huge[miss].tolist(),
            ((mk >> _HUGE_SHIFT) & imask).tolist(),
            hbase[miss].tolist(),
            pfn_heads[miss].tolist(),
            cstart.tolist(),
            cid.tolist(),
        )
        for vpn, huge_row, hidx, hb, pfn_row, cs, ci in rows:
            rkey = cs | rbase
            if huge_row:
                bucket = buckets[hidx]
                key = (((vpn >> _HUGE_SHIFT) << 1) | _KIND_HUGE) | tbase
                value = bucket.get(key)
                if value is not None:
                    del bucket[key]
                    bucket[key] = value
                    l2_huge += 1
                    continue
                entry = rentries.get(rkey)
                if entry is not None:
                    del rentries[rkey]
                    rentries[rkey] = entry
                    coalesced += 1
                    continue
                walks += 1
                walk_vpns.append(vpn)
                walk_huge.append(True)
                if len(bucket) >= ways:
                    del bucket[next(iter(bucket))]
                bucket[key] = hb
            else:
                bucket = buckets[vpn & imask]
                skey = (vpn << 1) | tbase  # kind bits: _KIND_SMALL == 0
                value = bucket.get(skey)
                if value is not None:
                    del bucket[skey]
                    bucket[skey] = value
                    l2_small += 1
                    continue
                entry = rentries.get(rkey)
                if entry is not None:
                    del rentries[rkey]
                    rentries[rkey] = entry
                    coalesced += 1
                    continue
                walks += 1
                walk_vpns.append(vpn)
                walk_huge.append(False)
                if len(bucket) >= ways:
                    del bucket[next(iter(bucket))]
                bucket[skey] = pfn_row
            # Walk completed: refill the range TLB from the OS table.
            if rkey in rentries:
                del rentries[rkey]
            elif len(rentries) >= r_cap:
                del rentries[next(iter(rentries))]
            rentries[rkey] = ranges[ci]
        walk_pt = 0
        if self.pwc is not None:
            walk_pt = self._block_walk_accesses(
                np.asarray(walk_vpns, dtype=np.int64),
                np.asarray(walk_huge, dtype=bool))
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
        base = self._huge.get((vpn >> _HUGE_SHIFT) << _HUGE_SHIFT)
        if base is not None:
            return base + (vpn & ((1 << _HUGE_SHIFT) - 1))
        pfn = self._small.get(vpn)
        if pfn is None:
            raise PageFaultError(f"vpn {vpn:#x} not mapped")
        return pfn
