"""``prefetch``: distance-based TLB prefetching (§6 related work).

Implements the classic distance prefetcher (Kandiraju &
Sivasubramaniam, ISCA'02) on top of the 4 KiB baseline: on every L2
miss the predictor records the stride between consecutive miss VPNs in
a small table indexed by the previous stride, and prefetches the
translation one predicted stride ahead into the L2 (off the critical
path — the PTE fetch rides the same cache line or a spare walk slot, so
no cycles are charged for issuing it).

Like the page-walk caches, this is a *miss-penalty/anticipation*
technique, not a coverage technique: each prefetch still installs one
4 KiB entry, so it shines on strided sweeps and does nothing for random
access — a useful contrast to coalescing in the benches.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PageFaultError
from repro.params import DEFAULT_MACHINE, MachineConfig
from repro.hw.tlb import SetAssociativeTLB
from repro.schemes.base import TranslationScheme
from repro.sim.lru import collapse_runs, simulate_block
from repro.vmos.mapping import MemoryMapping


class DistancePredictor:
    """Stride-to-next-stride table (the paper's 'distance table')."""

    __slots__ = ("capacity", "_table", "_last_vpn", "_last_distance")

    def __init__(self, capacity: int = 64) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._table: dict[int, int] = {}
        self._last_vpn: int | None = None
        self._last_distance: int | None = None

    def observe_and_predict(self, vpn: int) -> int | None:
        """Record a miss; return the predicted next miss VPN (or None)."""
        prediction = None
        if self._last_vpn is not None:
            distance = vpn - self._last_vpn
            if self._last_distance is not None:
                if self._last_distance in self._table:
                    del self._table[self._last_distance]
                elif len(self._table) >= self.capacity:
                    del self._table[next(iter(self._table))]
                self._table[self._last_distance] = distance
            next_distance = self._table.get(distance)
            if next_distance:
                prediction = vpn + next_distance
            self._last_distance = distance
        self._last_vpn = vpn
        return prediction

    def flush(self) -> None:
        self._table.clear()
        self._last_vpn = None
        self._last_distance = None


class PrefetchScheme(TranslationScheme):
    """4 KiB baseline + distance prefetching into the L2."""

    name = "prefetch"
    hardware = TranslationScheme.hardware + ("l2",)

    def __init__(
        self,
        mapping: MemoryMapping,
        config: MachineConfig = DEFAULT_MACHINE,
    ) -> None:
        super().__init__(mapping, config)
        self.l2 = SetAssociativeTLB(config.l2.entries, config.l2.ways)
        self.predictor = DistancePredictor()
        # Live reference to the page table — never goes stale.
        self._small = mapping.frozen().page_table
        self.prefetches_issued = 0
        self.prefetch_hits = 0
        self._prefetched: set[int] = set()

    def _reset_clone(self) -> None:
        super()._reset_clone()
        self.predictor = DistancePredictor()
        self.prefetches_issued = 0
        self.prefetch_hits = 0
        self._prefetched = set()

    def access(self, vpn: int) -> int:
        stats = self.stats
        stats.accesses += 1
        if self.l1.small.lookup(vpn, vpn) is not None:
            stats.l1_hits += 1
            return 0
        pfn = self.l2.lookup(vpn, vpn)
        if pfn is not None:
            if vpn in self._prefetched:
                self._prefetched.discard(vpn)
                self.prefetch_hits += 1
                # Chain: a hit on a prefetched entry is a miss the
                # prefetch hid — feed the predictor so the stream keeps
                # running ahead (prefetch-on-prefetch-hit).
                self._issue_prefetch(vpn)
            stats.l2_small_hits += 1
            self.l1.fill_small(vpn, pfn)  # type: ignore[arg-type]
            return self.config.latency.l2_hit
        pfn = self._small.get(vpn)
        if pfn is None:
            raise PageFaultError(f"vpn {vpn:#x} not mapped")
        stats.walks += 1
        self.l2.insert(vpn, vpn, pfn)
        self.l1.fill_small(vpn, pfn)
        self._issue_prefetch(vpn)
        return self._walk_cycles(vpn)

    def access_block(self, vpns: np.ndarray) -> None:
        """Vectorised fast path.

        The L1 resolves with :func:`simulate_block`; the L2 cannot —
        the distance predictor is inherently sequential and its
        prefetches insert keys the probe stream never touched — so the
        L1 misses replay through an exact Python loop with the PFN
        lookups hoisted into numpy.
        """
        if vpns.shape[0] == 0:
            return
        frozen = self.mapping.frozen()
        heads = collapse_runs(vpns)
        if not frozen.contains_all(heads):
            # An unmapped page in the block: the scalar loop raises the
            # page fault at exactly the right reference.
            return super().access_block(vpns)
        small = self._small
        hit1 = simulate_block(self.l1.small, heads, heads, small.__getitem__)
        mk = heads[~hit1]
        pfn_mk, _ = frozen.translate_block(mk)
        buckets = self.l2._sets
        tbase = self.l2._tag_base
        ways = self.l2.ways
        imask = self.l2.index_mask
        prefetched = self._prefetched
        predictor = self.predictor
        table = predictor._table
        pcap = predictor.capacity
        last_vpn = predictor._last_vpn
        last_distance = predictor._last_distance
        small_get = small.get
        tpop = table.pop
        tget = table.get
        l2_insert = self.l2.insert
        l2_hits = walks = 0
        pf_hits = self.prefetch_hits
        pf_issued = self.prefetches_issued
        # The PWC wants every walk VPN in trace order; with it off the
        # per-miss appends are pure overhead, so collect only the count.
        want_walks = self.pwc is not None
        walk_vpns: list[int] = []
        for vpn, pfn in zip(mk.tolist(), pfn_mk.tolist()):
            bucket = buckets[vpn & imask]
            key = vpn | tbase
            value = bucket.get(key)
            if value is not None:
                del bucket[key]
                bucket[key] = value
                l2_hits += 1
                if vpn not in prefetched:
                    continue
                prefetched.discard(vpn)
                pf_hits += 1
            else:
                walks += 1
                if want_walks:
                    walk_vpns.append(vpn)
                if len(bucket) >= ways:
                    del bucket[next(iter(bucket))]
                bucket[key] = pfn
            # DistancePredictor.observe_and_predict + _issue_prefetch,
            # inlined with the predictor state in locals (written back
            # after the loop): this runs once per real-or-hidden L2
            # miss, nearly every row on TLB-hostile traces.  Failed the
            # pay-or-go test; kept to avoid a slowdown (lru.py module doc).
            if last_vpn is not None:
                distance = vpn - last_vpn
                if last_distance is not None:
                    if (tpop(last_distance, None) is None
                            and len(table) >= pcap):
                        del table[next(iter(table))]
                    table[last_distance] = distance
                next_distance = tget(distance)
                last_distance = distance
                if next_distance:
                    predicted = vpn + next_distance
                    predicted_pfn = small_get(predicted)
                    if predicted_pfn is not None:
                        l2_insert(predicted, predicted, predicted_pfn)
                        prefetched.add(predicted)
                        pf_issued += 1
            last_vpn = vpn
        predictor._last_vpn = last_vpn
        predictor._last_distance = last_distance
        self.prefetch_hits = pf_hits
        self.prefetches_issued = pf_issued
        self.stats.bulk_update(
            accesses=vpns.shape[0],
            l1_hits=(vpns.shape[0] - heads.shape[0]
                     + int(np.count_nonzero(hit1))),
            l2_small_hits=l2_hits,
            walks=walks,
            walk_pt_accesses=self._block_walk_accesses(
                np.asarray(walk_vpns, dtype=np.int64)),
        )

    def _issue_prefetch(self, vpn: int) -> None:
        """Feed the predictor with a (real or hidden) miss at ``vpn``."""
        predicted = self.predictor.observe_and_predict(vpn)
        if predicted is None:
            return
        predicted_pfn = self._small.get(predicted)
        if predicted_pfn is not None:
            self.l2.insert(predicted, predicted, predicted_pfn)
            self._prefetched.add(predicted)
            self.prefetches_issued += 1

    @property
    def prefetch_accuracy(self) -> float:
        if not self.prefetches_issued:
            return 0.0
        return self.prefetch_hits / self.prefetches_issued

    def _translate(self, vpn: int) -> int:
        pfn = self._small.get(vpn)
        if pfn is None:
            raise PageFaultError(f"vpn {vpn:#x} not mapped")
        return pfn

    def flush(self) -> None:
        super().flush()
        self.predictor.flush()
        self._prefetched.clear()
