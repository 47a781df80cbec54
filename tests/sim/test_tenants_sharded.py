"""Sharded fleet simulation: partitioning, parallel identity, caching.

The contract under test (docs/api_tour.md §16): a fleet splits into
deterministic shards — each an independent subfleet — and the merged
``FleetResult.to_dict()`` is byte-identical whether shards run serially
(``workers=0``) or across a process pool (``workers>0``), at any shard
count, from any process, with traces generated inline or mmap-served
by a :class:`TraceStore`.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.errors import OrchestrationError
from repro.sim import tenants
from repro.sim.runner import ResultStore
from repro.sim.tenants import (
    TenantFleet,
    prepare_fleet_traces,
    shard_assignments,
    simulate_fleet,
)
from repro.sim.trace_store import TraceStore

#: Environment variable naming the flag file that makes an injected
#: fault fire once across processes.
FLAG_ENV = "REPRO_TEST_FAULT_FLAG"

_SIMULATE_SHARD = tenants.simulate_shard


def fleet_of(size=24, references=1500, seed=11, **overrides):
    defaults = dict(
        size=size,
        workloads=("gups", "omnetpp"),
        scenarios=("medium", "high"),
        references=references,
        seed=seed,
        mapping_variants=2,
    )
    defaults.update(overrides)
    return TenantFleet(**defaults)


def payload_bytes(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


class TestShardAssignments:
    def test_deterministic_and_stable(self):
        fleet = fleet_of()
        a = shard_assignments(fleet, 4)
        b = shard_assignments(fleet, 4)
        np.testing.assert_array_equal(a, b)
        assert a.dtype == np.int64
        assert a.shape == (fleet.size,)
        assert a.min() >= 0 and a.max() < 4

    def test_single_shard_collapses_to_zero(self):
        fleet = fleet_of(size=8)
        assert shard_assignments(fleet, 1).tolist() == [0] * 8

    def test_partition_is_reasonably_balanced(self):
        fleet = fleet_of(size=4000, references=100)
        counts = np.bincount(shard_assignments(fleet, 8), minlength=8)
        assert counts.sum() == 4000
        # splitmix64 is uniform; 8 bins of 500 expected, allow wide slack.
        assert counts.min() > 300 and counts.max() < 700

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ValueError):
            shard_assignments(fleet_of(size=4), 0)

    def test_trace_variants_bounds_distinct_traces(self):
        fleet = fleet_of(size=200, references=100, trace_variants=3)
        distinct = fleet.distinct_traces()
        assert 0 < len(distinct) <= len(fleet.workloads) * 3
        # Unbounded sampling: ~one distinct seed per tenant.
        unbounded = fleet_of(size=200, references=100).distinct_traces()
        assert len(unbounded) > len(distinct)

    def test_trace_variants_zero_keeps_legacy_sampling(self):
        """trace_variants=0 must not perturb the frozen draw order."""
        base = fleet_of(size=50, references=100)
        explicit = fleet_of(size=50, references=100, trace_variants=0)
        for a, b in zip(base.tenants(), explicit.tenants()):
            assert a == b


class TestShardedIdentity:
    @pytest.mark.parametrize("shards", [1, 2, 4, 7])
    def test_serial_vs_parallel_byte_identity(self, shards):
        """The acceptance bar: workers=0 and workers=N merge to the
        same bytes at every shard count."""
        fleet = fleet_of()
        serial = simulate_fleet(fleet, scheme="anchor-dyn",
                                quantum=400, active_pool=4,
                                shards=shards, workers=0)
        pooled = simulate_fleet(fleet, scheme="anchor-dyn",
                                quantum=400, active_pool=4,
                                shards=shards, workers=3)
        assert payload_bytes(serial) == payload_bytes(pooled)
        assert serial.shards == shards
        assert serial.executed == fleet.size * fleet.references

    def test_single_shard_serial_is_legacy_path(self):
        """shards=1/workers=0 must reproduce the pre-sharding scheduler
        exactly: one subfleet holding every tenant in fleet order."""
        fleet = fleet_of(size=10)
        legacy = simulate_fleet(fleet, scheme="base", quantum=500,
                                active_pool=4)
        sharded = simulate_fleet(fleet, scheme="base", quantum=500,
                                 active_pool=4, shards=1, workers=2)
        assert payload_bytes(legacy) == payload_bytes(sharded)

    def test_more_shards_than_tenants(self):
        """Empty shards contribute nothing and break nothing."""
        fleet = fleet_of(size=3, references=400)
        result = simulate_fleet(fleet, scheme="base", quantum=200,
                                active_pool=2, shards=16, workers=2)
        assert result.executed == 3 * 400
        assert result.per_tenant is not None
        assert [row["name"] for row in result.per_tenant] == [
            "t000000", "t000001", "t000002"
        ]

    def test_trace_store_path_matches_generated(self, tmp_path):
        """mmap-served traces must be invisible to the result bytes."""
        fleet = fleet_of(trace_variants=2)
        store = TraceStore(tmp_path / "traces")
        generated = prepare_fleet_traces(fleet, store)
        assert generated == len(fleet.distinct_traces())
        inline = simulate_fleet(fleet, scheme="anchor-dyn", quantum=400,
                                active_pool=4, shards=3, workers=0)
        mmapped = simulate_fleet(fleet, scheme="anchor-dyn", quantum=400,
                                 active_pool=4, shards=3, workers=2,
                                 trace_store=store)
        assert payload_bytes(inline) == payload_bytes(mmapped)
        # Every trace was served from the store, none regenerated.
        assert store.generation_count() == generated

    def test_storms_run_per_shard(self):
        fleet = fleet_of(size=12)
        serial = simulate_fleet(fleet, scheme="base", quantum=300,
                                active_pool=3, storm_every=2,
                                storm_quantum=50, shards=3, workers=0)
        pooled = simulate_fleet(fleet, scheme="base", quantum=300,
                                active_pool=3, storm_every=2,
                                storm_quantum=50, shards=3, workers=2)
        assert serial.storm_rounds > 0
        assert payload_bytes(serial) == payload_bytes(pooled)

    def test_validation(self):
        fleet = fleet_of(size=4)
        with pytest.raises(ValueError):
            simulate_fleet(fleet, shards=0)
        with pytest.raises(ValueError):
            simulate_fleet(fleet, workers=-1)


class TestShardResultCache:
    def test_outcomes_persist_and_short_circuit(self, tmp_path):
        fleet = fleet_of(size=12)
        store = ResultStore(tmp_path / "shards")
        first = simulate_fleet(fleet, scheme="base", quantum=400,
                               active_pool=4, shards=4, workers=0,
                               result_store=store)
        assert len(list(store.root.glob("*/*.json"))) == 4
        # A warm rerun must not simulate anything: poison the shard
        # runner and rely purely on the cache.
        import repro.sim.tenants as tenants_mod

        def boom(request, trace_store):
            raise AssertionError("shard recomputed despite warm cache")

        original = tenants_mod.simulate_shard
        tenants_mod.simulate_shard = boom
        try:
            warm = simulate_fleet(fleet, scheme="base", quantum=400,
                                  active_pool=4, shards=4, workers=0,
                                  result_store=store)
        finally:
            tenants_mod.simulate_shard = original
        assert payload_bytes(first) == payload_bytes(warm)

    def test_cache_key_separates_configs(self, tmp_path):
        fleet = fleet_of(size=8)
        store = ResultStore(tmp_path / "shards")
        simulate_fleet(fleet, scheme="base", quantum=400, active_pool=4,
                       shards=2, workers=0, result_store=store)
        simulate_fleet(fleet, scheme="thp", quantum=400, active_pool=4,
                       shards=2, workers=0, result_store=store)
        assert len(list(store.root.glob("*/*.json"))) == 4

    def test_corrupt_cache_entry_recomputes(self, tmp_path):
        fleet = fleet_of(size=8)
        store = ResultStore(tmp_path / "shards")
        first = simulate_fleet(fleet, scheme="base", quantum=400,
                               active_pool=4, shards=2, workers=0,
                               result_store=store)
        for path in store.root.glob("*/*.json"):
            path.write_text("{not json", encoding="utf-8")
        again = simulate_fleet(fleet, scheme="base", quantum=400,
                               active_pool=4, shards=2, workers=0,
                               result_store=store)
        assert payload_bytes(first) == payload_bytes(again)


def _no_shard_may_run(request, trace_store):
    raise AssertionError("a shard ran")


def _die_on_first_attempt_of_shard_one(request, trace_store):
    """Kill the worker running shard 1, once (the flag file remembers
    across processes); every other call simulates normally."""
    flag = Path(os.environ[FLAG_ENV])
    if request.tenancy.shard == 1 and not flag.exists():
        flag.touch()
        os._exit(17)
    return _SIMULATE_SHARD(request, trace_store)


class TestFailFast:
    @pytest.mark.parametrize("knobs, message", [
        (dict(quantum=0), "quantum"),
        (dict(storm_every=-1), "storm_every"),
        (dict(storm_every=2, storm_quantum=0), "storm_quantum"),
        (dict(asid_bits=0), "asid bits"),
        (dict(scheme="no-such-scheme"), "unknown scheme"),
    ], ids=["quantum", "storm-every", "storm-quantum", "asid-bits",
            "unknown-scheme"])
    def test_bad_knobs_raise_before_any_shard_runs(
        self, knobs, message, monkeypatch
    ):
        """Each error is a ValueError from the caller's process, not an
        OrchestrationError after retried shards."""
        monkeypatch.setattr(tenants, "simulate_shard", _no_shard_may_run)
        call = dict(scheme="base", policy="tagged", quantum=200,
                    active_pool=2, shards=2, workers=0)
        call.update(knobs)
        with pytest.raises(ValueError, match=message):
            simulate_fleet(fleet_of(size=4, references=400), **call)

    def test_failed_shard_raises_with_its_label(self, monkeypatch):
        monkeypatch.setattr(tenants, "simulate_shard", _no_shard_may_run)
        with pytest.raises(OrchestrationError, match="shard0of2.*a shard ran"):
            simulate_fleet(fleet_of(size=4, references=400), scheme="base",
                           quantum=200, active_pool=2, shards=2, workers=0)


class TestShardFaults:
    def test_killed_worker_is_recovered(self, tmp_path, monkeypatch):
        """A shard worker that dies mid-shard is retried on a rebuilt
        pool: the run returns the serial bytes and stores every shard."""
        fleet = fleet_of(size=12, references=600)
        knobs = dict(scheme="base", quantum=300, active_pool=3, shards=3)
        serial = simulate_fleet(fleet, workers=0, **knobs)
        monkeypatch.setenv(FLAG_ENV, str(tmp_path / "flag"))
        # Patched before the pool forks, so the workers inherit it.
        monkeypatch.setattr(tenants, "simulate_shard",
                            _die_on_first_attempt_of_shard_one)
        store = ResultStore(tmp_path / "shards")
        pooled = simulate_fleet(fleet, workers=2, result_store=store, **knobs)
        assert (tmp_path / "flag").exists()
        assert payload_bytes(pooled) == payload_bytes(serial)
        assert len(store) == 3


#: sha256 over ``payload_bytes`` of the 1k gate recipe below, pinned
#: when the sharded engine landed and re-verified by the
#: prototype-clone rewrite.  Any behavioural drift in the fleet path —
#: cloning, dispatch amortisation, stats folding, merge order — flips
#: this constant and fails the gate.
FLEET_1K_DIGEST = (
    "2c0f9ae8f0627da1147fa8d7ca23cbe18bd8f32b9019c4e611120937dd15a13a"
)


@pytest.mark.skipif(
    not os.environ.get("ANCHOR_TLB_FLEET_1K"),
    reason="CI identity gate; set ANCHOR_TLB_FLEET_1K=1 to run",
)
def test_thousand_tenant_serial_vs_sharded_identity():
    """The gating CI step: a 1k-tenant fleet, serial vs sharded pool,
    byte-identical payloads, pinned across PRs by the digest constant."""
    fleet = TenantFleet(
        size=1000,
        workloads=("gups", "omnetpp", "sphinx3"),
        references=500,
        seed=20170624,
        mapping_variants=2,
        trace_variants=4,
    )
    serial = simulate_fleet(fleet, scheme="anchor-dyn", quantum=250,
                            active_pool=8, shards=8, workers=0)
    pooled = simulate_fleet(fleet, scheme="anchor-dyn", quantum=250,
                            active_pool=8, shards=8, workers=4)
    serial_payload = payload_bytes(serial)
    assert serial_payload == payload_bytes(pooled)
    assert hashlib.sha256(
        serial_payload.encode("utf-8")).hexdigest() == FLEET_1K_DIGEST
