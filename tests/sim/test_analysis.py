"""Tests for the trace-analysis toolkit."""

import numpy as np
import pytest

from repro.sim.analysis import (
    estimated_miss_ratio,
    footprint_curve,
    page_popularity,
    profile,
    reuse_cdf,
    reuse_distances,
    working_set_size,
)
from repro.sim.engine import run_trace
from repro.sim.trace import Trace
from repro.sim.workloads import get_workload


def trace_of(vpns):
    return Trace(np.asarray(vpns, dtype=np.int64), max(1, len(vpns) * 3))


class TestReuseDistances:
    def test_cold_misses_are_minus_one(self):
        distances = reuse_distances(trace_of([1, 2, 3]))
        assert distances.tolist() == [-1, -1, -1]

    def test_immediate_reuse_is_zero(self):
        distances = reuse_distances(trace_of([7, 7]))
        assert distances.tolist() == [-1, 0]

    def test_classic_example(self):
        # a b c b a: b reused over {c}=1 distinct, a over {b, c}=2.
        distances = reuse_distances(trace_of([1, 2, 3, 2, 1]))
        assert distances.tolist() == [-1, -1, -1, 1, 2]

    def test_repeated_scan(self):
        # Scanning N pages twice: every warm reuse distance is N-1.
        n = 50
        distances = reuse_distances(trace_of(list(range(n)) * 2))
        warm = distances[n:]
        assert (warm == n - 1).all()

    def test_matches_naive_model(self):
        rng = np.random.default_rng(5)
        vpns = rng.integers(0, 30, 300).tolist()
        fast = reuse_distances(trace_of(vpns)).tolist()
        # Naive O(N^2) reference: distinct pages since last access.
        slow = []
        for i, vpn in enumerate(vpns):
            prior = [j for j in range(i) if vpns[j] == vpn]
            if not prior:
                slow.append(-1)
            else:
                last = prior[-1]
                slow.append(len(set(vpns[last + 1:i])))
        assert fast == slow


class TestMissEstimation:
    def test_reuse_cdf_monotone(self):
        rng = np.random.default_rng(1)
        trace = trace_of(rng.integers(0, 500, 3000).tolist())
        cdf = reuse_cdf(trace, [16, 64, 256, 1024])
        values = list(cdf.values())
        assert values == sorted(values)

    def test_sequential_scan_always_misses(self):
        trace = trace_of(list(range(200)) * 3)
        assert estimated_miss_ratio(trace, 64) == pytest.approx(1.0)

    def test_small_loop_always_hits_after_warmup(self):
        trace = trace_of(list(range(16)) * 50)
        assert estimated_miss_ratio(trace, 64) == pytest.approx(16 / 800)

    def test_validation(self):
        with pytest.raises(ValueError):
            estimated_miss_ratio(trace_of([1]), 0)

    def test_estimator_lower_bounds_simulated_misses(self):
        """Ideal fully associative LRU >= real set-associative TLB."""
        from repro.mem.frames import FrameRange
        from repro.schemes.baseline import BaselineScheme
        from repro.vmos.mapping import MemoryMapping

        workload = get_workload("sphinx3")
        trace = workload.make_trace(8000, seed=2)
        mapping = MemoryMapping()
        base = 0
        for vma in workload.vmas():
            mapping.map_run(vma.start_vpn, FrameRange((1 << 20) + base, vma.pages))
            base += vma.pages + 1
        scheme = BaselineScheme(mapping)
        simulated = run_trace(scheme, trace).stats.miss_ratio()
        # L1 (64) + L2 (1024) hierarchy: compare against ideal 1024+64.
        ideal = estimated_miss_ratio(trace, 1024 + 64)
        assert simulated >= ideal - 0.01


class TestFootprintAndWorkingSet:
    def test_footprint_curve_monotone(self):
        rng = np.random.default_rng(2)
        trace = trace_of(rng.integers(0, 400, 2000).tolist())
        curve = footprint_curve(trace, points=10)
        pages = [p for _, p in curve]
        assert pages == sorted(pages)
        assert pages[-1] == trace.unique_pages()

    def test_working_set_bounded_by_window_and_footprint(self):
        rng = np.random.default_rng(3)
        trace = trace_of(rng.integers(0, 100, 1000).tolist())
        ws = working_set_size(trace, 50)
        assert 1 <= ws <= 50

    def test_validation(self):
        with pytest.raises(ValueError):
            footprint_curve(trace_of([1]), points=0)
        with pytest.raises(ValueError):
            working_set_size(trace_of([1]), 0)


class TestProfile:
    def test_profile_fields(self):
        workload = get_workload("omnetpp")
        prof = profile(workload.make_trace(4000, seed=1))
        assert prof.references == 4000
        assert 0 < prof.distinct_pages <= workload.footprint_pages
        assert 0 < prof.cold_fraction <= 1
        assert prof.hit_at_l1_reach <= prof.hit_at_l2_reach
        assert "refs" in prof.summary()

    def test_gups_has_less_locality_than_omnetpp(self):
        gups = profile(get_workload("gups").make_trace(4000, seed=1))
        omnetpp = profile(get_workload("omnetpp").make_trace(4000, seed=1))
        assert gups.hit_at_l2_reach < omnetpp.hit_at_l2_reach

    def test_page_popularity_total(self):
        histogram = page_popularity(trace_of([1, 1, 2, 3, 3, 3]))
        assert histogram.total_weight == 6
        assert histogram[1] == 1  # page 2 touched once
        assert histogram[2] == 1  # page 1 touched twice
        assert histogram[3] == 1  # page 3 touched thrice
