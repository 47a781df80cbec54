"""Orchestrator + TraceStore integration: generate each trace once.

The acceptance property of the shared pipeline: an orchestrated run
generates each distinct (workload, references, seed) trace exactly
once — however many schemes consume it and however many worker
processes run them — and the generation log under the store root is the
cross-process evidence.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.api import SimRequest
from repro.sim.runner import (
    Orchestrator,
    ResultStore,
    RunSummary,
    TraceStore,
    combine_summaries,
)

REFERENCES = 2000
SEED = 5
SCHEMES = ("base", "thp", "anchor-dyn")


def specs_for(workload="gups", schemes=SCHEMES):
    return [
        SimRequest(workload=workload, scenario="demand", scheme=scheme,
                   references=REFERENCES, seed=SEED, epoch_references=500)
        for scheme in schemes
    ]


class TestExactlyOnceSerial:
    def test_one_generation_for_many_schemes(self, tmp_path):
        store = TraceStore(tmp_path / "traces")
        orch = Orchestrator(workers=0, trace_store=store)
        results, summary = orch.run(specs_for())
        assert summary.computed == len(SCHEMES)
        assert summary.failed == 0
        key = store.key("gups", REFERENCES, SEED)
        assert store.generation_count(key) == 1
        assert store.generation_count() == 1
        assert summary.traces_generated == 1
        assert summary.trace_generation_seconds > 0.0
        assert summary.peak_rss_bytes > 0

    def test_second_run_generates_nothing(self, tmp_path):
        store = TraceStore(tmp_path / "traces")
        Orchestrator(workers=0, trace_store=store).run(specs_for())
        _, summary = Orchestrator(workers=0, trace_store=store).run(
            specs_for(schemes=("cluster", "rmm")))
        assert summary.computed == 2
        assert summary.traces_generated == 0
        assert store.generation_count() == 1

    def test_store_accepts_a_path(self, tmp_path):
        orch = Orchestrator(workers=0, trace_store=tmp_path / "traces")
        assert isinstance(orch.trace_store, TraceStore)
        _, summary = orch.run(specs_for(schemes=("base",)))
        assert summary.computed == 1
        assert orch.trace_store.generation_count() == 1

    def test_distinct_workloads_generate_distinctly(self, tmp_path):
        store = TraceStore(tmp_path / "traces")
        specs = specs_for("gups", ("base",)) + specs_for("mcf", ("base",))
        _, summary = Orchestrator(workers=0, trace_store=store).run(specs)
        assert summary.traces_generated == 2
        assert store.generation_count() == 2

    def test_results_match_storeless_run(self, tmp_path):
        with_store, _ = Orchestrator(
            workers=0, trace_store=tmp_path / "traces").run(specs_for())
        without_store, _ = Orchestrator(workers=0).run(specs_for())
        assert with_store == without_store


class TestExactlyOnceParallel:
    def test_two_workers_many_schemes_one_generation(self, tmp_path):
        store = TraceStore(tmp_path / "traces")
        orch = Orchestrator(
            workers=2,
            store=ResultStore(tmp_path / "results"),
            trace_store=store,
        )
        results, summary = orch.run(specs_for())
        assert summary.computed == len(SCHEMES)
        assert summary.failed == 0
        # Exactly one generation event across parent + both workers.
        key = store.key("gups", REFERENCES, SEED)
        assert store.generation_count(key) == 1
        assert store.generation_count() == 1
        assert summary.traces_generated == 1

    def test_parallel_matches_serial(self, tmp_path):
        parallel, _ = Orchestrator(
            workers=2, trace_store=tmp_path / "a").run(specs_for())
        serial, _ = Orchestrator(
            workers=0, trace_store=tmp_path / "b").run(specs_for())
        assert parallel == serial


class TestSummaryFields:
    def test_to_dict_round_trips_new_fields(self):
        summary = RunSummary(
            total=3, computed=3, traces_generated=2,
            trace_generation_seconds=1.5, peak_rss_bytes=1 << 30)
        payload = summary.to_dict()
        assert payload["traces_generated"] == 2
        assert payload["trace_generation_seconds"] == 1.5
        assert payload["peak_rss_bytes"] == 1 << 30

    def test_render_mentions_traces_and_rss(self):
        summary = RunSummary(
            total=1, computed=1, traces_generated=4,
            trace_generation_seconds=0.25, peak_rss_bytes=256 << 20)
        text = summary.render()
        assert "4 generated" in text
        assert "256.0 MiB" in text

    def test_combine_sums_generation_and_maxes_rss(self):
        combined = combine_summaries([
            RunSummary(total=1, traces_generated=1,
                       trace_generation_seconds=0.5, peak_rss_bytes=100),
            RunSummary(total=1, traces_generated=2,
                       trace_generation_seconds=0.25, peak_rss_bytes=300),
        ])
        assert combined.traces_generated == 3
        assert combined.trace_generation_seconds == 0.75
        assert combined.peak_rss_bytes == 300


class TestFleetTracePreparation:
    def test_fleet_request_pregenerates_bounded_pool(self, tmp_path):
        """A bounded-pool fleet request primes the store in the parent:
        every distinct (workload, seed) of the fleet exists before any
        shard runs, each generated exactly once."""
        from repro.sim.api import SimRequest, TenancyConfig, fleet_for

        store = TraceStore(tmp_path / "traces")
        request = SimRequest(
            workload="gups", scenario="medium", scheme="base",
            references=600, seed=9, kind="fleet",
            tenancy=TenancyConfig(tenants=30, quantum=200, active_pool=4,
                                  trace_variants=2),
        )
        results, summary = Orchestrator(
            workers=0, trace_store=store
        ).run([request])
        assert len(results) == 1
        distinct = fleet_for(request).distinct_traces()
        assert 0 < len(distinct) <= 2
        assert store.generation_count() == len(distinct)
        assert len(store) == len(distinct)

    def test_shard_requests_prepare_their_fleet_once(
        self, tmp_path, monkeypatch
    ):
        """Every shard request names the same fleet: the parent must
        sample and prepare it once, not once per shard."""
        from repro.sim import tenants

        prepared = []
        real = tenants.prepare_fleet_traces
        monkeypatch.setattr(
            tenants, "prepare_fleet_traces",
            lambda fleet, store: prepared.append(fleet) or real(fleet, store))
        fleet = tenants.TenantFleet(size=12, workloads=("gups",),
                                    references=400, seed=9, trace_variants=2)
        result = tenants.simulate_fleet(fleet, quantum=200, active_pool=2,
                                        shards=4,
                                        trace_store=str(tmp_path / "traces"))
        assert result.executed == 12 * 400
        assert prepared == [fleet]

    def test_unbounded_fleet_skips_the_store(self, tmp_path):
        """trace_variants=0 means one seed per tenant — pre-generating
        would write a file per tenant, so the store must stay empty."""
        from repro.sim.api import SimRequest, TenancyConfig

        store = TraceStore(tmp_path / "traces")
        request = SimRequest(
            workload="gups", scenario="medium", scheme="base",
            references=400, seed=9, kind="fleet",
            tenancy=TenancyConfig(tenants=6, quantum=200, active_pool=2),
        )
        results, _ = Orchestrator(workers=0, trace_store=store).run([request])
        assert len(results) == 1
        assert len(store) == 0
        assert store.generation_count() == 0
