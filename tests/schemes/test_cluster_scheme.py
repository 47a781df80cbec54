"""Tests for the cluster and cluster-2MB schemes."""

import dataclasses

import numpy as np
import pytest

from repro.mem.frames import FrameRange
from repro.params import DEFAULT_MACHINE, TLBGeometry
from repro.schemes.cluster_scheme import ClusterScheme
from repro.sim.trace import Trace
from repro.vmos.mapping import MemoryMapping


@pytest.fixture
def clustered_mapping():
    """Aligned 8-page groups: ideal for cluster-8 coalescing."""
    mapping = MemoryMapping()
    for group in range(16):
        mapping.map_run(group * 16, FrameRange(1024 + group * 64, 8))
    return mapping


class TestClusterScheme:
    def test_one_walk_serves_whole_cluster(self, clustered_mapping):
        scheme = ClusterScheme(clustered_mapping)
        assert scheme.access(0) == 50
        # The other 7 pages of the cluster hit the cluster TLB after
        # their L1 misses — cold L1 means first touch per page goes to L2.
        cycles = [scheme.access(vpn) for vpn in range(1, 8)]
        assert all(c == scheme.config.latency.coalesced_hit for c in cycles)
        assert scheme.stats.walks == 1
        assert scheme.stats.coalesced_hits == 7

    def test_singleton_goes_to_regular_side(self):
        mapping = MemoryMapping()
        mapping.map_page(5, 999)      # no coalescible neighbours
        mapping.map_page(6, 2000)     # different physical cluster
        scheme = ClusterScheme(mapping)
        scheme.access(5)
        assert scheme.clustered.array.occupancy == 0
        assert scheme.regular.occupancy == 1

    def test_name_variants(self, clustered_mapping):
        assert ClusterScheme(clustered_mapping).name == "cluster"
        assert ClusterScheme(clustered_mapping, use_thp=True).name == "cluster2mb"

    def test_cluster_plain_ignores_huge_mappings(self):
        mapping = MemoryMapping()
        mapping.map_run(512, FrameRange(4096, 512))
        plain = ClusterScheme(mapping, use_thp=False)
        with_thp = ClusterScheme(mapping, use_thp=True)
        plain.access(512)
        with_thp.access(512)
        # THP variant covers the whole window with one walk.
        assert with_thp.access(900) == 0
        # Plain variant needs more translation work for a far page.
        assert plain.access(900) > 0

    def test_2mb_variant_l2_huge_hits(self, tiny_machine):
        mapping = MemoryMapping()
        mapping.map_run(512, FrameRange(4096, 1024))
        scheme = ClusterScheme(mapping, tiny_machine, use_thp=True)
        scheme.access(512)
        scheme.access(1024)
        scheme.stats.check_conservation()
        assert scheme.stats.walks == 2

    def test_flush(self, clustered_mapping):
        scheme = ClusterScheme(clustered_mapping)
        scheme.access(0)
        scheme.flush()
        assert scheme.access(0) == 50


#: Seven vclusters on clustered set 0 (vcluster j * 64, for a 64-set,
#: 5-way array): pages 0-6 of each map into one physical cluster
#: (C-class), page 7 into another (R-class), and every page 7 indexes
#: regular set 7.
SET0 = [j * 64 for j in range(7)]
A, B, C, D, E, F, G = SET0
#: R-class singletons in regular set 7 whose vclusters hold nothing else:
#: six of them push any page 7 out of the 6-way regular set, and their
#: own touches reach clustered sets other than 0.
FILLERS = [16, 32, 48, 80, 96, 112]


def touch_heavy_mapping() -> MemoryMapping:
    mapping = MemoryMapping()
    for j, vc in enumerate(SET0):
        mapping.map_run(vc * 8, FrameRange(8 * (1000 + j), 7))
        mapping.map_page(vc * 8 + 7, 8 * (3000 + j) + 3)
    for vc in FILLERS:
        mapping.map_page(vc * 8 + 7, 8 * (5000 + vc))
    return mapping


class _Stream:
    """Builds a trace from clustered-set events.  With a one-entry L1,
    every reference that differs from the one before it misses the L1."""

    def __init__(self) -> None:
        self.vpns: list[int] = []
        self.turn = 0

    def c(self, *vcs: int) -> "_Stream":
        """C-class accesses: a different covered page each time."""
        for vc in vcs:
            self.vpns.append(vc * 8 + self.turn % 7)
            self.turn += 1
        return self

    def t(self, vc: int) -> "_Stream":
        """A weak touch: the R-class page misses the regular side."""
        self.vpns += [filler * 8 + 7 for filler in FILLERS]
        self.vpns.append(vc * 8 + 7)
        return self

    def alternate(self) -> "_Stream":
        """Five rows over two keys, B and C."""
        return self.c(B, C, B, C, B)

    def pad(self, length: int) -> "_Stream":
        """R-class filler references up to ``length`` (no set-0 rows)."""
        while len(self.vpns) < length:
            self.vpns.append(FILLERS[len(self.vpns) % 6] * 8 + 7)
        return self


def touch_heavy_trace(epoch: int) -> list[int]:
    """Epoch 1 leaves A..E resident in set 0 (A at LRU).  Epochs 2 and
    3 each drive set 0 through every certificate: a sure hit by depth
    (A), a no-op before its key's first insert (F), an uncertain touch
    of a key the round's rows evict (B), four uncertain touches that
    each follow five rows over two keys, a sure hit two rows after its
    key's access (G) and a no-op after five distinct keys (A)."""
    warm = _Stream()
    warm.pad(epoch - 5).c(A, B, C, D, E)
    stream = warm
    for _ in range(2):
        (stream.t(A).t(F).c(F).t(B)
         .c(A).alternate().t(A)
         .c(D).alternate().t(D)
         .c(E).alternate().t(E)
         .c(F).alternate().t(F)
         .c(G, B).t(G)
         .c(A, B, C, D, E, F).t(A)
         .c(G, B))
        stream.pad(-(-len(stream.vpns) // epoch) * epoch)
    return stream.vpns


def clustered_calls(monkeypatch, scheme: ClusterScheme) -> list[int]:
    """Spy on the kernel: the list fills with one count per
    ``access_block`` call of ``scheme``, its clustered-array calls."""
    from repro.sim import lru

    per_block: list[int] = []
    kernel = lru.simulate_block
    block_path = scheme.access_block

    def spy(tlb, *args):
        if tlb is scheme.clustered.array:
            per_block[-1] += 1
        return kernel(tlb, *args)

    def counted(vpns):
        per_block.append(0)
        block_path(vpns)

    monkeypatch.setattr(lru, "simulate_block", spy)
    scheme.access_block = counted
    return per_block


class TestClusteredRounds:
    """The clustered array's weak touches, certified and cut into
    rounds, against the scalar ``access`` loop."""

    def test_touch_heavy_trace_matches_scalar(self, monkeypatch):
        from repro.sim.engine import run_trace

        epoch = 150
        machine = dataclasses.replace(DEFAULT_MACHINE, l1_4k=TLBGeometry(1, 1))
        trace = Trace(np.asarray(touch_heavy_trace(epoch), dtype=np.int64),
                      instructions=10_000)
        assert len(trace) == 3 * epoch
        scalar = ClusterScheme(touch_heavy_mapping(), machine)
        run_trace(scalar, trace, epoch_references=epoch, engine="scalar")

        batched = ClusterScheme(touch_heavy_mapping(), machine)
        per_block = clustered_calls(monkeypatch, batched)
        run_trace(batched, trace, epoch_references=epoch)

        assert batched.stats.snapshot() == scalar.stats.snapshot()
        for name, structure in scalar.structures().items():
            assert batched.structures()[name].state() == structure.state()
        # One call for the warm-up; five uncertain touches in set 0 cut
        # the first designed block into six rounds.  The second starts
        # from another state and still takes at least four.
        assert per_block[:2] == [1, 6]
        assert per_block[2] >= 4
        assert scalar.stats.coalesced_hits > 0

    @pytest.mark.parametrize("use_thp", [False, True],
                             ids=["cluster", "cluster2mb"])
    def test_rounds_stay_few_on_soplex_low(self, monkeypatch, use_thp):
        """soplex_pds under the ``low`` scenario is the census's worst
        cell: 3,807 candidate touches at 100k references, seed 3, which
        cuts at every candidate would spread over up to 276 rounds a
        block.  Certified, no block takes more than five."""
        from repro.sim.engine import run_trace
        from repro.sim.workloads import get_workload
        from repro.vmos.scenarios import build_mapping

        workload = get_workload("soplex_pds")
        scheme = ClusterScheme(
            build_mapping(workload.vmas(), "low", seed=3), use_thp=use_thp)
        per_block = clustered_calls(monkeypatch, scheme)
        run_trace(scheme, workload.make_trace(100_000, seed=3),
                  epoch_references=50_000)
        assert len(per_block) == 2
        assert max(per_block) <= 5
