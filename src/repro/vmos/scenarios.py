"""The six mapping scenarios of the evaluation (paper §5.1, Table 4).

Two *real* scenarios are produced by running the paging policies against
a fragmented buddy system:

* ``demand`` — demand paging with THP on a lightly fragmented machine;
* ``eager``  — eager paging on the same machine state.

Four *synthetic* scenarios place each allocation region as a sequence of
chunks whose sizes are drawn uniformly from the Table 4 ranges:

* ``low``    — 1-16 pages (4 KB - 64 KB);
* ``medium`` — 1-512 pages (4 KB - 2 MB);
* ``high``   — 512-65,536 pages (2 MB - 256 MB);
* ``max``    — every virtually contiguous region is one physical chunk.

Chunk placement for the synthetic scenarios is randomised with guard
frames so that two chunks are never accidentally adjacent in physical
memory — the chunk-size distribution, not allocator luck, defines the
scenario.
"""

from __future__ import annotations

import numpy as np

from repro.mem.frames import FrameRange
from repro.mem.physmem import PhysicalMemory
from repro.params import SCENARIO_ORDER, SCENARIO_RANGES
from repro.util.rng import spawn_rng
from repro.vmos.mapping import MemoryMapping
from repro.vmos.paging_policy import demand_paging, eager_paging
from repro.vmos.vma import VMA


def _chunk_phase(pages: int) -> int:
    """Natural buddy alignment of a chunk: its power-of-two size, <= 2 MiB.

    A chunk of n pages comes out of an order-ceil(log2 n) buddy block,
    so its physical start shares the virtual start's alignment phase up
    to that block size.  Preserving the phase is what lets THP promote
    the 2 MiB-aligned windows inside large chunks and lets cluster-8
    find whole-cluster groups, as happens on the real machines.
    """
    if pages <= 1:
        return 1
    order = (pages - 1).bit_length()
    return min(1 << order, 512)


def _place_chunk(
    mapping: MemoryMapping, vpn: int, pages: int, pfn_cursor: int
) -> int:
    """Map one chunk phase-aligned at/after ``pfn_cursor``; return new cursor."""
    phase = _chunk_phase(pages)
    pfn = pfn_cursor + ((vpn % phase) - (pfn_cursor % phase)) % phase
    mapping.map_run(vpn, FrameRange(pfn, pages))
    return pfn + pages + 1  # guard frame prevents accidental adjacency


def synthetic_mapping(
    vmas: list[VMA],
    rng: np.random.Generator,
    min_pages: int,
    max_pages: int,
) -> MemoryMapping:
    """Map every VMA with uniformly distributed chunk sizes."""
    if not 1 <= min_pages <= max_pages:
        raise ValueError("invalid chunk range")
    # First decide chunk sizes per VMA (clamped to what remains).
    placements: list[tuple[int, int]] = []  # (vpn, pages)
    for vma in vmas:
        remaining = vma.pages
        vpn = vma.start_vpn
        while remaining:
            size = int(rng.integers(min_pages, max_pages + 1))
            size = min(size, remaining)
            placements.append((vpn, size))
            vpn += size
            remaining -= size
    # Then scatter them in physical memory: random order, guard frames.
    order = rng.permutation(len(placements))
    mapping = MemoryMapping(vmas=list(vmas))
    pfn_cursor = int(rng.integers(0, 1 << 10))  # random base
    for position in order:
        vpn, pages = placements[position]
        pfn_cursor = _place_chunk(mapping, vpn, pages, pfn_cursor)
    return mapping


def max_contiguity_mapping(vmas: list[VMA], rng: np.random.Generator) -> MemoryMapping:
    """Every VMA is one fully contiguous physical chunk (ideal for RMM)."""
    mapping = MemoryMapping(vmas=list(vmas))
    pfn_cursor = int(rng.integers(0, 1 << 10))
    order = rng.permutation(len(vmas))
    for index in order:
        vma = vmas[index]
        pfn_cursor = _place_chunk(mapping, vma.start_vpn, vma.pages, pfn_cursor)
    return mapping


def _physical_memory_for(
    vmas: list[VMA], profile: str, seed: int | None
) -> PhysicalMemory:
    """Size physical memory to twice the footprint, plus pressure.

    Twice the footprint under the ``heavy`` background profile leaves
    roughly 90% of a large region 2 MiB-allocatable and scatters the
    rest — the partially-huge mixtures the paper's demand traces show.
    """
    footprint = sum(v.pages for v in vmas)
    total = 1 << max(footprint * 2 - 1, 1 << 16).bit_length()
    return PhysicalMemory(total_frames=total, profile=profile, seed=seed)


def build_mapping(
    vmas: list[VMA],
    scenario: str,
    seed: int | None = None,
    fragmentation: str = "heavy",
) -> MemoryMapping:
    """Build the VPN->PFN mapping for one scenario.

    ``fragmentation`` selects the background-pressure profile used by
    the two real scenarios (ignored by the synthetic ones).
    """
    rng = spawn_rng(seed, "scenario", scenario)
    if scenario == "demand":
        memory = _physical_memory_for(vmas, fragmentation, seed)
        return demand_paging(vmas, memory, rng, thp=True, interleave=0.3)
    if scenario == "eager":
        # Eager allocation happens at request time, early in process
        # life, before background churn shatters the buddy lists —
        # demand faults spread over the whole run.  That is why the
        # paper's eager mappings are consistently more contiguous than
        # its demand mappings; model it by pairing eager paging with the
        # next lighter fragmentation profile.
        lighter = {"heavy": "moderate", "moderate": "light",
                   "light": "pristine", "pristine": "pristine"}
        memory = _physical_memory_for(vmas, lighter[fragmentation], seed)
        return eager_paging(vmas, memory)
    if scenario == "max":
        return max_contiguity_mapping(vmas, rng)
    if scenario in SCENARIO_RANGES:
        bounds = SCENARIO_RANGES[scenario]
        return synthetic_mapping(vmas, rng, bounds.min_pages, bounds.max_pages)
    raise ValueError(
        f"unknown scenario {scenario!r}; expected one of {SCENARIO_ORDER}"
    )
