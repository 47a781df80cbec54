"""Paging policies: demand paging (with THP) and eager paging.

These reproduce the two *real mapping* collection modes of §5.1:

* **Demand paging** — pages are allocated at first touch.  With
  transparent huge pages enabled, the first touch of a fully backed
  2 MiB-aligned window tries to grab an order-9 block; when the buddy
  system cannot supply one (fragmentation), the policy falls back to a
  single 4 KiB frame.  Contiguity larger than 2 MiB emerges only by
  accident, when the buddy hands out physically adjacent blocks for
  virtually adjacent windows — exactly the skewed few-big-chunks
  distributions the paper observed.
* **Eager paging** — the whole region is allocated at request time by
  asking the buddy system for the largest blocks it still has (the
  paper's modified kernel requests pages "through the buddy allocator
  system sequentially"), yielding strictly more contiguity than demand
  paging on the same machine state.
"""

from __future__ import annotations

import numpy as np

from repro.errors import OutOfMemoryError
from repro.mem.physmem import PhysicalMemory
from repro.params import HUGE_PAGE_PAGES
from repro.vmos.mapping import MemoryMapping
from repro.vmos.vma import VMA

_HUGE_ORDER = 9  # 2 MiB / 4 KiB


def demand_paging(
    vmas: list[VMA],
    memory: PhysicalMemory,
    rng: np.random.Generator,
    thp: bool = True,
    interleave: float = 0.0,
    faultaround_pages: int = 8,
) -> MemoryMapping:
    """Fault every page of every VMA in, in first-touch order.

    ``interleave`` in [0, 1] is the probability that the touch cursor
    jumps to another VMA after each fault, modelling multi-threaded
    initialisation that interleaves allocations from several regions
    (which breaks accidental cross-window adjacency).

    ``faultaround_pages`` models Linux fault-around: a 4 KiB fault maps a
    small aligned group of pages at once from one buddy block, the
    fine-grained contiguity that CoLT/cluster were designed to exploit.
    """
    if not 0.0 <= interleave <= 1.0:
        raise ValueError("interleave must be in [0, 1]")
    if faultaround_pages < 1 or faultaround_pages & (faultaround_pages - 1):
        raise ValueError("faultaround_pages must be a positive power of two")
    around_order = faultaround_pages.bit_length() - 1
    # Each fault maps one (vpn, pfn, pages) run, handed over at the end.
    runs: list[tuple[int, int, int]] = []
    buddy = memory.buddy
    cursors = [vma.start_vpn for vma in vmas]
    active = list(range(len(vmas)))
    position = 0
    while active:
        index = active[position % len(active)]
        vma = vmas[index]
        vpn = cursors[index]
        # One fault: a whole THP window when aligned, backed and
        # allocatable; a single 4 KiB frame otherwise.
        aligned_window = (
            vpn % HUGE_PAGE_PAGES == 0 and vpn + HUGE_PAGE_PAGES <= vma.end_vpn
        )
        faulted = 0
        if thp and aligned_window:
            try:
                block = buddy.alloc_order(_HUGE_ORDER)
            except OutOfMemoryError:
                block = None
            if block is not None:
                runs.append((vpn, block.start, block.count))
                faulted = HUGE_PAGE_PAGES
        if not faulted:
            # Fault-around: map a small aligned group from one block.
            group = min(faultaround_pages, vma.end_vpn - vpn)
            if vpn % faultaround_pages or group < faultaround_pages:
                runs.append((vpn, buddy.alloc_order(0).start, 1))
                faulted = 1
            else:
                try:
                    block = buddy.alloc_order(around_order)
                except OutOfMemoryError:
                    block = None
                if block is not None:
                    runs.append((vpn, block.start, block.count))
                    faulted = group
                else:
                    runs.append((vpn, buddy.alloc_order(0).start, 1))
                    faulted = 1
        cursors[index] = vpn + faulted
        if cursors[index] >= vma.end_vpn:
            active.remove(index)
        elif len(active) > 1 and rng.random() < interleave:
            # Another thread's fault lands in a different region.
            position = int(rng.integers(len(active)))
    mapping = MemoryMapping(vmas=list(vmas))
    mapping.map_runs(runs)
    return mapping


def eager_paging(vmas: list[VMA], memory: PhysicalMemory) -> MemoryMapping:
    """Allocate every VMA in full at request time via the buddy system."""
    runs: list[tuple[int, int, int]] = []
    for vma in vmas:
        blocks = memory.buddy.alloc_pages(vma.pages)
        vpn = vma.start_vpn
        for block in blocks:
            runs.append((vpn, block.start, block.count))
            vpn += block.count
    mapping = MemoryMapping(vmas=list(vmas))
    mapping.map_runs(runs)
    return mapping
