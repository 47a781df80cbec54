"""``CoLT``: coalesced large-reach TLB (Pham et al., MICRO'12).

An extension beyond the paper's comparison set (the paper cites CoLT as
prior work alongside cluster TLB).  CoLT-SA keeps a unified
set-associative L2 whose entries can each cover a contiguous run of up
to eight pages from one PTE cache line; the run must be contiguous in
both VA and PA, making it strictly weaker than a cluster entry but with
no partitioning of the TLB budget.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PageFaultError
from repro.params import DEFAULT_MACHINE, MachineConfig
from repro.hw.cluster import ColtEntry, build_colt_entry
from repro.hw.tlb import SetAssociativeTLB, TAG_SHIFT
from repro.schemes.base import TranslationScheme
from repro.sim.lru import collapse_runs, previous_occurrence, simulate_block
from repro.vmos.mapping import MemoryMapping

_LINE_SHIFT = 3  # 8 PTEs per cache line
_LINE_PAGES = 1 << _LINE_SHIFT


class ColtScheme(TranslationScheme):
    """Unified L2 of coalesced (up to 8-page) entries."""

    name = "colt"
    hardware = TranslationScheme.hardware + ("l2",)

    def __init__(
        self,
        mapping: MemoryMapping,
        config: MachineConfig = DEFAULT_MACHINE,
    ) -> None:
        super().__init__(mapping, config)
        self.l2 = SetAssociativeTLB(config.l2.entries, config.l2.ways)
        # Live reference to the page table (kept current by the mapping
        # itself); the compiled run arrays come from mapping.frozen().
        self._small = mapping.frozen().page_table

    def access(self, vpn: int) -> int:
        stats = self.stats
        stats.accesses += 1
        latency = self.config.latency
        if self.l1.small.lookup(vpn, vpn) is not None:
            stats.l1_hits += 1
            return 0
        line = vpn >> _LINE_SHIFT
        entry = self.l2.lookup(line, line)
        if entry is not None:
            pfn = entry.translate(vpn)  # type: ignore[union-attr]
            if pfn is not None:
                if entry.pages > 1:  # type: ignore[union-attr]
                    stats.coalesced_hits += 1
                    charged = latency.coalesced_hit
                else:
                    stats.l2_small_hits += 1
                    charged = latency.l2_hit
                self.l1.fill_small(vpn, pfn)
                return charged
        if vpn not in self._small:
            raise PageFaultError(f"vpn {vpn:#x} not mapped")
        stats.walks += 1
        new_entry = build_colt_entry(self._small, vpn)
        self.l2.insert(line, line, new_entry)
        self.l1.fill_small(vpn, self._small[vpn])
        return self._walk_cycles(vpn)

    def access_block(self, vpns: np.ndarray) -> None:
        """Vectorised fast path.

        The L2 *array* is promote-or-insert on line keys — every probe
        of a resident line promotes it (``lookup`` touches LRU even when
        the entry does not cover the VPN), and every walk (re)inserts
        the probed line — so residency resolves with
        :func:`simulate_block`.  Whether a resident entry *covers* the
        probe reduces to run identity: after any access at ``v`` the
        resident entry for ``v``'s line equals the adjacency run of
        ``v`` clipped to the line (a walk builds exactly that, and a
        covering hit implies the entry already was that run's clip), so
        a later probe ``w`` of the same line hits iff it shares the
        mapping's adjacency run with the previous access.  Only probes
        whose line was resident *before* the block (no previous access
        in the block) need an object check against a pre-simulation
        snapshot — at most one per resident line.
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
        lines = mk >> _LINE_SHIFT
        # The entry any walk at mk[i] would build: the adjacency run
        # clipped to the PTE cache line.
        run = frozen.run_of(mk)
        line_base = lines << _LINE_SHIFT
        run_start = frozen.run_vpn[run]
        ent_start = np.maximum(run_start, line_base)
        ent_end = np.minimum(
            run_start + frozen.run_pages[run], line_base + _LINE_PAGES)
        ent_pages = ent_end - ent_start
        ent_pfn = frozen.run_pfn[run] + (ent_start - run_start)

        # Entries resident before the block, for the coverage checks on
        # first probes (the kernel asks value_of only about the block's
        # own lines).  Snapshot keys are as stored — tag-packed — so
        # every lookup below packs the array's current tag.
        tag_base = self.l2.tag << TAG_SHIFT
        snapshot = {
            key: entry
            for bucket in self.l2._sets
            for key, entry in bucket.items()
        }
        built = dict(zip(
            lines.tolist(),
            zip(ent_start.tolist(), ent_pfn.tolist(), ent_pages.tolist()),
        ))

        def value_of(line: int) -> ColtEntry:
            return ColtEntry(*built[line])

        array_hit = simulate_block(self.l2, lines, lines, value_of)
        prev = previous_occurrence(lines)
        has_prev = prev >= 0
        covered = np.zeros(mk.shape[0], dtype=bool)
        covered[has_prev] = run[prev[has_prev]] == run[has_prev]
        for i in np.flatnonzero(array_hit & ~has_prev).tolist():
            entry = snapshot.get(int(lines[i]) | tag_base)
            covered[i] = (entry is not None
                          and entry.translate(int(mk[i])) is not None)
        trans_hit = array_hit & covered
        walk_vpns = mk[~trans_hit]
        self.stats.bulk_update(
            accesses=vpns.shape[0],
            l1_hits=(vpns.shape[0] - heads.shape[0]
                     + int(np.count_nonzero(hit1))),
            l2_small_hits=int(np.count_nonzero(trans_hit & (ent_pages == 1))),
            coalesced_hits=int(np.count_nonzero(trans_hit & (ent_pages > 1))),
            walks=walk_vpns.shape[0],
            walk_pt_accesses=self._block_walk_accesses(walk_vpns),
        )

    def _translate(self, vpn: int) -> int:
        pfn = self._small.get(vpn)
        if pfn is None:
            raise PageFaultError(f"vpn {vpn:#x} not mapped")
        return pfn
