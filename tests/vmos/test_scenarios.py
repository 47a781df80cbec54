"""Tests for the six mapping scenario generators (Table 4)."""

import pytest

from repro.params import SCENARIO_ORDER
from repro.sim.runner import mapping_digest
from repro.sim.workloads import get_workload
from repro.util.rng import make_rng
from repro.vmos.contiguity import contiguity_histogram, mean_chunk_pages
from repro.vmos.mapping import MemoryMapping
from repro.vmos.scenarios import (
    build_mapping,
    max_contiguity_mapping,
    synthetic_mapping,
)
from repro.vmos.vma import AllocationSite, layout_vmas


@pytest.fixture
def vmas():
    return layout_vmas([AllocationSite(2048, 1), AllocationSite(32, 4)])


class TestSynthetic:
    def test_chunk_sizes_within_range(self, vmas):
        mapping = synthetic_mapping(vmas, make_rng(1), 4, 64)
        for chunk in mapping.chunks():
            assert chunk.pages <= 64

    def test_all_pages_mapped_uniquely(self, vmas):
        mapping = synthetic_mapping(vmas, make_rng(1), 1, 16)
        assert mapping.mapped_pages == sum(v.pages for v in vmas)
        frames = [pfn for _, pfn in mapping.items()]
        assert len(set(frames)) == len(frames)

    def test_guard_frames_prevent_merging(self, vmas):
        mapping = synthetic_mapping(vmas, make_rng(2), 8, 8)
        sizes = {c.pages for c in mapping.chunks()}
        # Chunks of exactly 8 must not merge into 16+ accidentally.
        assert max(sizes) <= 8

    def test_phase_alignment_for_large_chunks(self, vmas):
        mapping = synthetic_mapping(vmas, make_rng(3), 512, 1024)
        big = [c for c in mapping.chunks() if c.pages >= 512]
        assert big
        for chunk in big:
            assert (chunk.pfn - chunk.vpn) % 512 == 0

    def test_invalid_range(self, vmas):
        with pytest.raises(ValueError):
            synthetic_mapping(vmas, make_rng(0), 0, 4)
        with pytest.raises(ValueError):
            synthetic_mapping(vmas, make_rng(0), 8, 4)


class TestMaxContiguity:
    def test_one_chunk_per_vma(self, vmas):
        mapping = max_contiguity_mapping(vmas, make_rng(1))
        assert len(mapping.chunks()) == len(vmas)

    def test_chunks_match_vmas(self, vmas):
        mapping = max_contiguity_mapping(vmas, make_rng(1))
        sizes = sorted(c.pages for c in mapping.chunks())
        assert sizes == sorted(v.pages for v in vmas)


class TestBuildMapping:
    @pytest.mark.parametrize("scenario", SCENARIO_ORDER)
    def test_every_scenario_maps_everything(self, vmas, scenario):
        mapping = build_mapping(vmas, scenario, seed=5)
        assert mapping.mapped_pages == sum(v.pages for v in vmas)

    def test_unknown_scenario(self, vmas):
        with pytest.raises(ValueError):
            build_mapping(vmas, "bogus")

    def test_deterministic_in_seed(self, vmas):
        a = build_mapping(vmas, "medium", seed=3)
        b = build_mapping(vmas, "medium", seed=3)
        assert dict(a.items()) == dict(b.items())

    def test_seed_changes_mapping(self, vmas):
        a = build_mapping(vmas, "medium", seed=3)
        b = build_mapping(vmas, "medium", seed=4)
        assert dict(a.items()) != dict(b.items())

    def test_contiguity_ordering_across_scenarios(self, vmas):
        means = {
            scenario: mean_chunk_pages(build_mapping(vmas, scenario, seed=7))
            for scenario in ("low", "medium", "high")
        }
        assert means["low"] < means["medium"] < means["high"]

    def test_eager_at_least_as_contiguous_as_demand(self, vmas):
        demand = build_mapping(vmas, "demand", seed=7)
        eager = build_mapping(vmas, "eager", seed=7)
        assert mean_chunk_pages(eager) >= mean_chunk_pages(demand)

    def test_low_scenario_histogram_bounded(self, vmas):
        histogram = contiguity_histogram(build_mapping(vmas, "low", seed=1))
        assert max(size for size, _ in histogram.items()) <= 16


#: ``mapping_digest`` of the two real scenarios, taken before the buddy
#: allocator's heaps and batched fragmentation.  Eager paging takes the
#: largest blocks, which the low-first background leaves untouched at
#: these footprints, so its mapping is the same at both seeds.
REAL_SCENARIO_DIGESTS = {
    ("gups", "demand", 1): (
        "b61e7e831a066f42d6a97f4c7d6bf89120b6b9c3a0000bab59b7f66b6a89dfd7"),
    ("gups", "demand", 2): (
        "4860dc9db7ecdaf415f930da98bc940fc21ca37cce0448b381206b82ba0512fd"),
    ("gups", "eager", 1): (
        "794286b4e16c708389c7e9aa190512e2ebf55562920d6a528a1781e31489d107"),
    ("gups", "eager", 2): (
        "794286b4e16c708389c7e9aa190512e2ebf55562920d6a528a1781e31489d107"),
    ("mcf", "demand", 1): (
        "618d26555d394fc225f66e93df9b07f2e4ce422f47056fc713f39de496edc984"),
    ("mcf", "demand", 2): (
        "dcea0927e6c91f4c9089217b3ba04fc4a66cd42c6cc3c0200bdd7c9d0db42855"),
    ("mcf", "eager", 1): (
        "dc3eb5da1947a1dc070faa0ad3ba26c33063d239a8e11dd869182b19c30eb26e"),
    ("mcf", "eager", 2): (
        "dc3eb5da1947a1dc070faa0ad3ba26c33063d239a8e11dd869182b19c30eb26e"),
    ("omnetpp", "demand", 1): (
        "4036f9e7be8740dbd08c4bea7e349ea1bbab14b375889e2707189eeaa91cf100"),
    ("omnetpp", "demand", 2): (
        "7e41553d70411b8e44e1dc39c3391a5e1ceeaab9679d4d87394bc1f61be88221"),
    ("omnetpp", "eager", 1): (
        "5380b95b156d5b82be91228354e959606613bd6917dfa977abad37ead550dda5"),
    ("omnetpp", "eager", 2): (
        "5380b95b156d5b82be91228354e959606613bd6917dfa977abad37ead550dda5"),
}


class TestPinnedRealScenarios:
    @pytest.mark.parametrize("key", sorted(REAL_SCENARIO_DIGESTS))
    def test_mapping_digest(self, key):
        workload, scenario, seed = key
        mapping = build_mapping(
            get_workload(workload).vmas(), scenario, seed=seed)
        assert mapping_digest(mapping) == REAL_SCENARIO_DIGESTS[key]
