"""``anchor-region``: multi-region anchors as a real scheme (paper §4.2).

The paper sketches the extension: a small fully associative *region
table* holds ``(start VPN, end VPN, anchor distance)`` triples, looked
up in parallel with the TLB; an L2 miss then probes the anchor entry
computed with the matching region's distance, so differently fragmented
parts of the address space each get the distance that suits them.

:class:`AnchorScheme` already runs over such a table — its single
distance is the one-row case — so this scheme is only a constructor:
it partitions the address space with
:func:`repro.vmos.regions.partition_regions` (per-region Algorithm 1)
and installs the rows in the region table.  All regions' anchor entries
share the one L2; each is indexed with its own region's distance shift,
exactly as the §4.2 hardware would.
"""

from __future__ import annotations

from repro.params import DEFAULT_MACHINE, MachineConfig
from repro.schemes.anchor_scheme import AnchorScheme
from repro.schemes.base import TranslationScheme
from repro.vmos.contiguity import contiguity_histogram
from repro.vmos.distance import select_distance
from repro.vmos.mapping import MemoryMapping
from repro.vmos.regions import AnchorRegion, RegionTable, partition_regions


class RegionAnchorScheme(AnchorScheme):
    """Hybrid coalescing with per-region anchor distances."""

    name = "anchor-region"
    #: No single process-wide distance: nothing for the §3.1 register
    #: to save, and no Algorithm 1 re-pick at epoch boundaries.
    distance = None  # type: ignore[assignment]
    supports_reselection = False
    dynamic = False

    def __init__(
        self,
        mapping: MemoryMapping,
        config: MachineConfig = DEFAULT_MACHINE,
        capacity: int = 8,
        regions: list[AnchorRegion] | None = None,
    ) -> None:
        TranslationScheme.__init__(self, mapping, config)
        if regions is None:
            regions = partition_regions(mapping, mapping.vmas, capacity)
            if not regions and len(mapping):
                # No VMA metadata: fall back to one region spanning the
                # whole mapping with the process-wide distance.
                vpns = mapping.frozen().vpns
                regions = [AnchorRegion(
                    int(vpns[0]), int(vpns[-1]) + 1,
                    select_distance(contiguity_histogram(mapping)),
                )]
        # The table rejects overlapping and over-capacity rows.
        table = RegionTable(capacity)
        table.install(regions)
        self._install(table, enable_thp=True)
