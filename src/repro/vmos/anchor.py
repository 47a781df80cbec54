"""Anchored page-table maintenance: the OS half of hybrid coalescing.

Given a process mapping and an anchor distance d, the OS must decide
which parts of the address space are served by which entry type:

* **Anchor windows** — every d-aligned VPN that has a 4 KiB leaf is an
  anchor; its contiguity field counts how many following pages are
  physically contiguous (capped at the 16-bit architectural maximum).
* **Huge pages** — 2 MiB-aligned, fully contiguous windows may be
  promoted to hardware 2 MiB pages (THP), which removes their 4 KiB
  leaves entirely.
* **4 KiB pages** — everything else.

The subtlety is the interaction between the first two.  When d >= 512 an
anchor entry covers at least as much as a 2 MiB entry, so promoting
pages that anchors already cover would only *lose* coverage; the planner
therefore promotes only the chunk head that precedes the first d-aligned
anchor.  When d < 512 a 2 MiB entry covers more than an anchor, so every
eligible window is promoted and anchors pick up the unpromoted head and
tail.  This mirrors Algorithm 1's inverse-coverage weighting (see
DESIGN.md §3).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.params import (
    HUGE_PAGE_PAGES,
    MAX_CONTIGUITY,
    align_down,
    align_up,
    is_pow2,
)
from repro.errors import MappingError
from repro.vmos.mapping import DEFAULT_PROT as _DEFAULT_PROT
from repro.vmos.mapping import MemoryMapping, expand_ranges, promotion_windows
from repro.vmos.page_table import PageTable


@dataclass
class AnchorDirectory:
    """The OS's coverage plan for one process at one anchor distance."""

    distance: int
    #: 2 MiB-promoted windows: hvpn (512-aligned VPN) -> base PFN.
    huge: dict[int, int] = field(default_factory=dict)
    #: anchor VPN -> contiguity count (pages), for d-aligned 4 KiB leaves.
    anchor_contiguity: dict[int, int] = field(default_factory=dict)
    #: VPN -> PFN for pages that keep 4 KiB leaves.
    small: dict[int, int] = field(default_factory=dict)
    #: VPN -> protection for pages with non-default protection (§3.3:
    #: protection changes break coalescing runs).
    protections: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not is_pow2(self.distance):
            raise ValueError("anchor distance must be a power of two")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        mapping: MemoryMapping,
        distance: int,
        enable_thp: bool = True,
    ) -> "AnchorDirectory":
        """Plan coverage of ``mapping`` at ``distance``."""
        frozen = mapping.frozen()
        stop = int(frozen.vpns[-1]) + 1 if len(frozen) else 0
        return cls.build_regions(mapping, [(0, stop, distance)], enable_thp)[0]

    @classmethod
    def build_regions(
        cls,
        mapping: MemoryMapping,
        regions: Iterable[tuple[int, int, int]],
        enable_thp: bool = True,
    ) -> list["AnchorDirectory"]:
        """One plan per ``(start_vpn, end_vpn, distance)`` region, each
        as if the region's pages were a mapping of their own.

        Everything comes from the :class:`FrozenMapping` columns: a
        region takes a ``searchsorted`` slice of the chunk columns,
        clipped to its bounds, and of the sorted pages.
        """
        frozen = mapping.frozen()
        chunk_end = frozen.chunk_vpn + frozen.chunk_pages
        keys = sorted(frozen.page_table)
        protections = sorted(mapping._prot.items())
        directories = []
        for lo, hi, distance in regions:
            directory = cls(distance=distance)
            first = np.searchsorted(chunk_end, lo, side="right")
            last = np.searchsorted(frozen.chunk_vpn, hi)
            vpn = np.maximum(frozen.chunk_vpn[first:last], lo)
            pfn = frozen.chunk_pfn[first:last] + (vpn - frozen.chunk_vpn[first:last])
            end = np.minimum(chunk_end[first:last], hi)
            # Each chunk keeps 4 KiB leaves on [vpn, head) and [tail, end).
            head = tail = end
            windows = np.empty(0, dtype=np.int64)
            if enable_thp:
                # Anchors (coverage >= 2 MiB when d >= 512) own everything
                # from the first d-aligned VPN on; promote only the head.
                cap = (-(-vpn // distance) * distance
                       if distance >= HUGE_PAGE_PAGES else None)
                windows, window_pfns, head, tail = promotion_windows(
                    vpn, pfn, end, HUGE_PAGE_PAGES, cap)
                directory.huge = dict(zip(windows.tolist(), window_pfns.tolist()))
            # Chunks are maximal, so these pieces are the maximal leaf
            # runs.  Every d-aligned leaf of a run is an anchor; its
            # contiguity runs to the end of the run, capped at 16 bits.
            run_lo = np.stack((vpn, tail), axis=1).ravel()
            run_hi = np.stack((head, end), axis=1).ravel()
            anchors, owner = expand_ranges(
                -(-run_lo // distance) * distance, run_hi, distance)
            directory.anchor_contiguity = dict(zip(
                anchors.tolist(),
                np.minimum(run_hi[owner] - anchors, MAX_CONTIGUITY).tolist()))
            page_lo, page_hi = np.searchsorted(frozen.vpns, (lo, hi)).tolist()
            directory.small = frozen.page_dict(
                windows, HUGE_PAGE_PAGES, page_lo, page_hi, keys)
            huge = directory.huge
            directory.protections = {
                v: prot for v, prot in protections
                if lo <= v < hi and align_down(v, HUGE_PAGE_PAGES) not in huge
            }
            directories.append(directory)
        return directories

    def _protection_of(self, vpn: int) -> int:
        return self.protections.get(vpn, _DEFAULT_PROT)

    def _set_anchors_in_run(self, start: int, end: int) -> None:
        first_anchor = align_up(start, self.distance)
        for avpn in range(first_anchor, end, self.distance):
            self.anchor_contiguity[avpn] = min(end - avpn, MAX_CONTIGUITY)

    # ------------------------------------------------------------------
    # Incremental maintenance (§3.3, "Updating Memory Mapping")
    # ------------------------------------------------------------------
    #
    # When the OS maps, unmaps or mprotects a single page it updates the
    # affected anchor entries in place instead of resweeping the whole
    # page table.  Only anchors whose contiguity window touches the
    # changed page can be affected, so the work is bounded by the run
    # length around the page (itself capped by the 16-bit contiguity).

    def note_unmap(self, vpn: int) -> int:
        """A 4 KiB page was unmapped; truncate the anchors that spanned it."""
        if vpn not in self.small:
            raise MappingError(f"vpn {vpn:#x} not a 4 KiB leaf")
        pfn = self.small.pop(vpn)
        self.protections.pop(vpn, None)
        self._truncate_anchors_at(vpn)
        return pfn

    def note_map(self, vpn: int, pfn: int, prot: int = _DEFAULT_PROT) -> None:
        """A 4 KiB page was mapped; extend/merge the surrounding runs."""
        if vpn in self.small:
            raise MappingError(f"vpn {vpn:#x} already mapped")
        if align_down(vpn, HUGE_PAGE_PAGES) in self.huge:
            raise MappingError(f"vpn {vpn:#x} lies in a huge-promoted window")
        self.small[vpn] = pfn
        if prot != _DEFAULT_PROT:
            self.protections[vpn] = prot
        self._refresh_run_around(vpn)

    def note_protect(self, vpn: int, prot: int) -> None:
        """A page's protection changed; split coalescing at the boundary."""
        if vpn not in self.small:
            raise MappingError(f"vpn {vpn:#x} not a 4 KiB leaf")
        if prot == _DEFAULT_PROT:
            self.protections.pop(vpn, None)
        else:
            self.protections[vpn] = prot
        self._truncate_anchors_at(vpn)
        self._refresh_run_around(vpn)

    def anchors_spanning(self, vpn: int) -> list[int]:
        """AVPNs of resident anchors whose contiguity window covers ``vpn``.

        These are exactly the anchor entries a shootdown must invalidate
        when the page at ``vpn`` changes (§3.3).
        """
        distance = self.distance
        spanning: list[int] = []
        avpn = align_down(vpn, distance)
        while True:
            contiguity = self.anchor_contiguity.get(avpn)
            if contiguity is not None and avpn + contiguity > vpn:
                spanning.append(avpn)
            if avpn == 0:
                return spanning
            previous = avpn - distance
            reach = self.anchor_contiguity.get(previous)
            if reach is None or previous + reach <= vpn:
                return spanning
            avpn = previous

    def _truncate_anchors_at(self, vpn: int) -> None:
        """Clip every anchor whose window reached ``vpn``."""
        for avpn in self.anchors_spanning(vpn):
            if vpn > avpn:
                self.anchor_contiguity[avpn] = vpn - avpn
            else:
                del self.anchor_contiguity[avpn]

    def _refresh_run_around(self, vpn: int) -> None:
        """Recompute anchors of the maximal run containing ``vpn``."""
        small = self.small
        prot = self._protection_of(vpn)
        pfn = small.get(vpn)
        if pfn is None:
            return
        lo = vpn
        steps = 0
        while (
            steps < MAX_CONTIGUITY
            and small.get(lo - 1) == small[lo] - 1
            and self._protection_of(lo - 1) == prot
        ):
            lo -= 1
            steps += 1
        hi = vpn + 1
        steps = 0
        while (
            steps < MAX_CONTIGUITY
            and small.get(hi) == small[hi - 1] + 1
            and self._protection_of(hi) == prot
        ):
            hi += 1
            steps += 1
        self._set_anchors_in_run(lo, hi)

    # ------------------------------------------------------------------
    # Queries used by the anchor TLB model
    # ------------------------------------------------------------------

    def anchor_of(self, vpn: int) -> int:
        """The anchor VPN (AVPN) responsible for ``vpn``."""
        return align_down(vpn, self.distance)

    def anchor_covers(self, vpn: int) -> bool:
        """True if the anchor entry for ``vpn`` translates it."""
        avpn = self.anchor_of(vpn)
        return vpn - avpn < self.anchor_contiguity.get(avpn, 0)

    def translate_via_anchor(self, vpn: int) -> int | None:
        """PPN from the anchor entry, or None on contiguity miss."""
        avpn = self.anchor_of(vpn)
        contiguity = self.anchor_contiguity.get(avpn, 0)
        offset = vpn - avpn
        if offset >= contiguity:
            return None
        return self.small[avpn] + offset

    @property
    def anchor_count(self) -> int:
        return len(self.anchor_contiguity)

    @property
    def huge_count(self) -> int:
        return len(self.huge)

    # ------------------------------------------------------------------
    # Page-table materialisation
    # ------------------------------------------------------------------

    def populate_page_table(self, table: PageTable | None = None) -> PageTable:
        """Materialise the plan as a real radix page table."""
        table = table if table is not None else PageTable()
        for hvpn, pfn in self.huge.items():
            table.map_huge(hvpn, pfn)
        for vpn, pfn in self.small.items():
            table.map_page(vpn, pfn)
        for avpn, contiguity in self.anchor_contiguity.items():
            table.set_contiguity(avpn, contiguity)
        return table


# ---------------------------------------------------------------------------
# Distance-change cost model (paper §3.3)
# ---------------------------------------------------------------------------

#: Per-anchor-entry update cost, microseconds.  Calibrated to the
#: paper's measurement of 452 ms for sweeping a 30 GiB process at
#: distance 8 (983,040 anchor entries -> 0.46 us per entry).
SWEEP_US_PER_ENTRY = 0.46

#: Fixed cost of the full TLB invalidation that ends a distance change,
#: microseconds.  Comparable to a context-switch TLB flush (§3.3 argues
#: this part is minor).
TLB_FLUSH_US = 50.0


def distance_change_cost_ms(footprint_pages: int, new_distance: int) -> float:
    """Milliseconds to re-anchor a page table at ``new_distance``.

    Only distance-aligned entries are visited (§3.3), so the sweep cost
    is ``footprint / distance`` entry updates plus one TLB flush.
    """
    if footprint_pages < 0:
        raise ValueError("footprint must be non-negative")
    anchors = footprint_pages // new_distance
    return (anchors * SWEEP_US_PER_ENTRY + TLB_FLUSH_US) / 1000.0
