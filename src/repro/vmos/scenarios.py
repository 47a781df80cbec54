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

from repro.mem.physmem import PhysicalMemory
from repro.params import SCENARIO_ORDER, SCENARIO_RANGES
from repro.util.rng import BatchedDraws, spawn_rng
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


def _placed(
    vmas: list[VMA], chunks: list[tuple[int, int]], pfn_cursor: int
) -> MemoryMapping:
    """Map the ``(vpn, pages)`` chunks in order, each phase-aligned at
    or after the cursor, one guard frame apart."""
    runs = []
    for vpn, pages in chunks:
        phase = _chunk_phase(pages)
        pfn = pfn_cursor + ((vpn % phase) - (pfn_cursor % phase)) % phase
        runs.append((vpn, pfn, pages))
        pfn_cursor = pfn + pages + 1  # guard frame prevents accidental adjacency
    mapping = MemoryMapping(vmas=list(vmas))
    mapping.map_runs(runs)
    return mapping


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
    with BatchedDraws(rng, "integers", min_pages, max_pages + 1) as chunk_size:
        for vma in vmas:
            remaining = vma.pages
            vpn = vma.start_vpn
            while remaining:
                size = min(chunk_size(), remaining)
                placements.append((vpn, size))
                vpn += size
                remaining -= size
    # Then scatter them in physical memory: random order, guard frames.
    order = rng.permutation(len(placements))
    pfn_cursor = int(rng.integers(0, 1 << 10))  # random base
    return _placed(vmas, [placements[i] for i in order.tolist()], pfn_cursor)


def max_contiguity_mapping(vmas: list[VMA], rng: np.random.Generator) -> MemoryMapping:
    """Every VMA is one fully contiguous physical chunk (ideal for RMM)."""
    pfn_cursor = int(rng.integers(0, 1 << 10))
    order = rng.permutation(len(vmas))
    return _placed(vmas, [(vmas[i].start_vpn, vmas[i].pages)
                          for i in order.tolist()], pfn_cursor)


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
