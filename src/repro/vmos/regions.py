"""Multi-region anchors — the paper's §4.2 future-work extension.

A single process-wide anchor distance is a compromise when different
parts of the address space have different contiguity (e.g. a hugely
contiguous heap next to a fragmented shared-library area).  The paper
sketches *regions*: a small, fully associative table of
``(start VPN, end VPN, anchor distance)`` triples, consulted in parallel
with the TLB lookup, so each region uses its own distance.

This module implements the region table plus a simple partitioner that
groups VMAs by their dominant chunk size and assigns each group the
distance Algorithm 1 picks for its own sub-histogram.  The single
distance register of §3.1 is the table's one-row case spanning the
whole address space (:meth:`RegionTable.spanning`), so one anchor
scheme serves both.  The ablation bench compares per-region distances
against the single distance on mappings with bimodal contiguity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PageFaultError
from repro.params import ANCHOR_DISTANCES, is_pow2
from repro.util.histogram import Histogram
from repro.vmos.distance import select_distance
from repro.vmos.mapping import MemoryMapping
from repro.vmos.vma import VMA


@dataclass(frozen=True)
class AnchorRegion:
    """One region: ``[start_vpn, end_vpn)`` translated at ``distance``."""

    start_vpn: int
    end_vpn: int
    distance: int

    def __contains__(self, vpn: int) -> bool:
        return self.start_vpn <= vpn < self.end_vpn


#: One past every VPN: the end of a region spanning the address space.
ADDRESS_SPACE_END = 1 << 62


class RegionTable:
    """A bounded, fully associative region table (HW model).

    Like RMM's range TLB, the parallel range compare limits how many
    regions the hardware can hold; the default of 8 keeps the lookup
    latency within an L2 TLB access (§4.2).  Rows are kept sorted by
    start VPN; ``shifts`` (and its column ``dlogs``) holds each row's
    log2 distance, the shift that turns a VPN into its anchor's index.
    An installed table is immutable — rows and shifts are tuples, the
    columns read-only — since a prototype scheme's L2 shares it with
    every clone (``AnchorL2TLB.fresh``).
    """

    def __init__(self, capacity: int = 8) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.install([])

    @classmethod
    def spanning(cls, distance: int) -> "RegionTable":
        """The one-row table over the whole address space: §3.1's
        single anchor-distance register."""
        table = cls(capacity=1)
        table.install([AnchorRegion(0, ADDRESS_SPACE_END, distance)])
        return table

    def install(self, regions: list[AnchorRegion]) -> None:
        if len(regions) > self.capacity:
            raise ValueError(
                f"{len(regions)} regions exceed table capacity {self.capacity}"
            )
        rows = sorted(regions, key=lambda r: r.start_vpn)
        for a, b in zip(rows, rows[1:]):
            if b.start_vpn < a.end_vpn:
                raise ValueError("regions overlap")
        if not all(is_pow2(r.distance) for r in rows):
            raise ValueError("distance must be a positive power of two")
        self.regions = tuple(rows)
        self.shifts = tuple(r.distance.bit_length() - 1 for r in rows)
        self.starts = np.array([r.start_vpn for r in rows], dtype=np.int64)
        self.dlogs = np.array(self.shifts, dtype=np.int64)
        self.starts.setflags(write=False)
        self.dlogs.setflags(write=False)

    @property
    def distance(self) -> int | None:
        """The one row's distance (``None`` unless exactly one row)."""
        return self.regions[0].distance if len(self.regions) == 1 else None

    def row_of(self, vpn: int) -> int:
        """The row whose region holds ``vpn``: the parallel compare."""
        for row, region in enumerate(self.regions):
            if region.start_vpn <= vpn < region.end_vpn:
                return row
        raise PageFaultError(f"vpn {vpn:#x} outside every region")

    def shift_of(self, vpn: int) -> int:
        """log2 of the distance of the row holding ``vpn``."""
        return self.shifts[self.row_of(vpn)]

    def rows_of(self, vpns: np.ndarray) -> np.ndarray:
        """:meth:`row_of` per VPN, for VPNs that some region holds."""
        return np.searchsorted(self.starts, vpns, side="right") - 1

    def distance_for(self, vpn: int, default: int) -> int:
        for region in self.regions:
            if vpn in region:
                return region.distance
        return default


def partition_regions(
    mapping: MemoryMapping,
    vmas: list[VMA],
    capacity: int = 8,
    candidates: tuple[int, ...] = ANCHOR_DISTANCES,
) -> list[AnchorRegion]:
    """Group VMAs into at most ``capacity`` regions with per-region distances.

    Adjacent VMAs whose per-VMA best distances agree are merged; if more
    groups than ``capacity`` remain, the smallest-footprint groups are
    merged into their neighbours (re-selecting the distance for the
    combined histogram).
    """
    if not vmas:
        return []
    # Per-VMA histogram and best distance.
    per_vma: list[tuple[VMA, Histogram]] = []
    for vma in sorted(vmas, key=lambda v: v.start_vpn):
        histogram = Histogram()
        for chunk in mapping.chunks():
            if chunk.vpn >= vma.start_vpn and chunk.end_vpn <= vma.end_vpn:
                histogram.add(chunk.pages)
        per_vma.append((vma, histogram))

    # Merge adjacent VMAs that agree on the selected distance.
    groups: list[tuple[int, int, Histogram]] = []  # (start, end, histogram)
    for vma, histogram in per_vma:
        distance = select_distance(histogram, candidates)
        if groups:
            g_start, g_end, g_hist = groups[-1]
            if select_distance(g_hist, candidates) == distance:
                for key, freq in histogram.items():
                    g_hist.add(key, freq)
                groups[-1] = (g_start, max(g_end, vma.end_vpn), g_hist)
                continue
        groups.append((vma.start_vpn, vma.end_vpn, histogram.copy()))

    # Respect the hardware capacity by merging smallest groups first.
    while len(groups) > capacity:
        smallest = min(range(len(groups)), key=lambda i: groups[i][2].total_weight)
        neighbour = smallest - 1 if smallest else 1
        lo, hi = sorted((smallest, neighbour))
        start = groups[lo][0]
        end = max(groups[lo][1], groups[hi][1])
        merged = groups[lo][2]
        for key, freq in groups[hi][2].items():
            merged.add(key, freq)
        groups[lo:hi + 1] = [(start, end, merged)]

    return [
        AnchorRegion(start, end, select_distance(histogram, candidates))
        for start, end, histogram in groups
    ]
