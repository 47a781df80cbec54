"""Hardware translation structures: TLBs, coalescing logic, page walker."""

from repro.hw.tlb import SetAssociativeTLB, Structure
from repro.hw.l1 import L1TLB
from repro.hw.cluster import ClusterTLB, build_cluster_entry, build_colt_entry
from repro.hw.range_tlb import RangeTLB, RangeTable
from repro.hw.anchor_tlb import AnchorL2TLB
from repro.hw.walker import PageWalker

__all__ = [
    "SetAssociativeTLB",
    "Structure",
    "L1TLB",
    "ClusterTLB",
    "build_cluster_entry",
    "build_colt_entry",
    "RangeTLB",
    "RangeTable",
    "AnchorL2TLB",
    "PageWalker",
]
