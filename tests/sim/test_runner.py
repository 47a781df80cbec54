"""Tests for the orchestration subsystem: specs, store, orchestrator.

The fault-injection companion lives in ``test_runner_faults.py``; the
matrix-level determinism parity tests in
``tests/experiments/test_parallel_matrix.py``.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CellFailedError, OrchestrationError
from repro.params import DEFAULT_MACHINE, MachineConfig, TLBGeometry
from repro.sim.api import SimRequest, execute_request
from repro.sim.runner import (
    STATIC_IDEAL,
    Orchestrator,
    ResultStore,
    combine_summaries,
    mapping_digest,
    trace_digest,
)
from repro.sim.stats import canonical_json


def spec_of(**overrides) -> SimRequest:
    defaults = dict(
        workload="sphinx3", scenario="medium", scheme="base",
        references=500, seed=3,
    )
    defaults.update(overrides)
    return SimRequest(**defaults)


# ---------------------------------------------------------------------------
# Cache keys
# ---------------------------------------------------------------------------


SMALL_MACHINE = MachineConfig(l2=TLBGeometry(512, 8))

#: One perturbation per SimRequest field that must change the key.
PERTURBATIONS = {
    "workload": "gups",
    "scenario": "low",
    "scheme": "anchor-dyn",
    "references": 501,
    "seed": 4,
    "epoch_references": 123,
    "ideal_subsample": 2,
    "machine": SMALL_MACHINE,
    "kind": "distances",
}


class TestJobSpecKeys:
    def test_equal_specs_collide(self):
        assert spec_of().key() == spec_of().key()
        assert spec_of() == spec_of()

    def test_key_is_hex_sha256(self):
        key = spec_of().key()
        assert len(key) == 64
        int(key, 16)

    @pytest.mark.parametrize("field", sorted(PERTURBATIONS))
    def test_each_field_perturbs_key(self, field):
        base = spec_of()
        changed = spec_of(**{field: PERTURBATIONS[field]})
        assert getattr(base, field) != getattr(changed, field)
        assert base.key() != changed.key()

    @given(
        workload=st.sampled_from(["sphinx3", "gups", "mcf"]),
        scenario=st.sampled_from(["low", "medium", "high"]),
        scheme=st.sampled_from(["base", "thp", "anchor-dyn", STATIC_IDEAL]),
        references=st.integers(min_value=1, max_value=10**6),
        seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2**31)),
        perturb=st.sampled_from(sorted(PERTURBATIONS)),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_keys(self, workload, scenario, scheme, references,
                           seed, perturb):
        spec = spec_of(workload=workload, scenario=scenario, scheme=scheme,
                       references=references, seed=seed)
        # Equal specs always collide...
        twin = spec_of(workload=workload, scenario=scenario, scheme=scheme,
                       references=references, seed=seed)
        assert spec.key() == twin.key()
        # ...and perturbing any single field always changes the key.
        value = PERTURBATIONS[perturb]
        if getattr(spec, perturb) == value:
            return  # the drawn spec already holds the perturbed value
        assert dataclasses.replace(spec, **{perturb: value}).key() != spec.key()

    def test_seed_none_vs_zero_differ(self):
        assert spec_of(seed=None).key() != spec_of(seed=0).key()

    def test_label(self):
        assert spec_of().label() == "sphinx3/medium/base"
        assert spec_of(kind="distances").label() == "sphinx3/medium/distances"


# ---------------------------------------------------------------------------
# Result store
# ---------------------------------------------------------------------------


class TestResultStore:
    def test_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        key = spec_of().key()
        store.put(key, {"walks": 5})
        assert key in store
        assert store.get(key) == {"walks": 5}
        assert store.hits == 1
        assert len(store) == 1

    def test_missing_is_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get("0" * 64) is None
        assert store.misses == 1
        assert store.corrupt == 0

    def test_garbage_file_is_miss_not_error(self, tmp_path):
        store = ResultStore(tmp_path)
        key = spec_of().key()
        path = store.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"\x00\xffnot json at all")
        assert store.get(key) is None
        assert store.corrupt == 1

    def test_truncated_file_is_miss_not_error(self, tmp_path):
        store = ResultStore(tmp_path)
        key = spec_of().key()
        path = store.put(key, {"walks": 5, "accesses": 100})
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert store.get(key) is None
        assert store.corrupt == 1

    def test_wrong_format_version_is_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = spec_of().key()
        path = store.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"format": -1, "key": key, "payload": {"walks": 5}}
        ))
        assert store.get(key) is None
        assert store.corrupt == 1

    def test_key_mismatch_is_miss(self, tmp_path):
        """A file copied under the wrong name must not serve its payload."""
        store = ResultStore(tmp_path)
        key, other = spec_of().key(), spec_of(seed=9).key()
        path = store.put(key, {"walks": 5})
        target = store.path_for(other)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(path.read_text())
        assert store.get(other) is None
        assert store.corrupt == 1


# ---------------------------------------------------------------------------
# Job execution + orchestrator (serial; parallel paths in the fault file)
# ---------------------------------------------------------------------------


class TestExecuteJob:
    def test_simulate_payload_roundtrips(self):
        payload = execute_request(spec_of())
        assert payload["scheme"] == "base"
        assert payload["stats"]["accesses"] == 500
        json.dumps(payload)  # JSON-safe

    def test_distances_kind(self):
        payload = execute_request(spec_of(kind="distances", scheme="-"))
        assert isinstance(payload["distance"], int)
        assert payload["distance"] >= 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(OrchestrationError):
            execute_request(spec_of(kind="nope"))


class TestOrchestratorSerial:
    def test_computes_and_caches(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = [spec_of(), spec_of(scheme="thp")]
        orch = Orchestrator(workers=0, store=store)
        results, summary = orch.run(specs)
        assert summary.computed == 2 and summary.cached == 0
        assert set(results) == {s.key() for s in specs}

        results2, summary2 = Orchestrator(workers=0, store=store).run(specs)
        assert summary2.computed == 0 and summary2.cached == 2
        for spec in specs:
            assert canonical_json(results[spec.key()]) == canonical_json(
                results2[spec.key()]
            )

    def test_duplicate_specs_deduped(self):
        results, summary = Orchestrator(workers=0).run([spec_of(), spec_of()])
        assert summary.total == 1
        assert summary.computed == 1

    def test_progress_lines(self):
        lines: list[str] = []
        Orchestrator(workers=0, progress=lines.append).run([spec_of()])
        assert len(lines) == 1
        assert "sphinx3/medium/base" in lines[0]
        assert "computed" in lines[0]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(OrchestrationError):
            Orchestrator(workers=-1)
        with pytest.raises(OrchestrationError):
            Orchestrator(retries=-1)
        with pytest.raises(OrchestrationError):
            Orchestrator(timeout=0)


class TestSummaries:
    def test_combine(self):
        from repro.sim.runner import JobFailure, RunSummary

        a = RunSummary(total=2, computed=1, cached=1, wall_seconds=1.0)
        b = RunSummary(total=1, failed=1, retried=2, wall_seconds=0.5,
                       failures=[JobFailure("k", "l", "e", 3)])
        combined = combine_summaries([a, b])
        assert combined.total == 3
        assert combined.computed == 1 and combined.cached == 1
        assert combined.retried == 2 and combined.failed == 1
        assert len(combined.failures) == 1
        assert "1 failed" in combined.render()


# ---------------------------------------------------------------------------
# Digest guards (the cross-scheme aliasing fix)
# ---------------------------------------------------------------------------


class TestDigestGuards:
    def test_mapping_digest_tracks_content(self, medium_mapping):
        before = mapping_digest(medium_mapping)
        assert before == mapping_digest(medium_mapping)
        vpn = next(iter(medium_mapping.items()))[0]
        medium_mapping.unmap_page(vpn)
        assert mapping_digest(medium_mapping) != before

    def test_trace_digest_tracks_content(self, make_trace):
        trace = make_trace([1, 2, 3, 4])
        before = trace_digest(trace)
        assert before == trace_digest(make_trace([1, 2, 3, 4]))
        assert trace_digest(make_trace([1, 2, 3, 5])) != before

    def test_runner_refuses_mutated_mapping(self):
        from repro.experiments.common import ExperimentConfig, MatrixRunner

        runner = MatrixRunner(ExperimentConfig(references=300, seed=5))
        mapping = runner.mapping("sphinx3", "medium")
        vpn = next(iter(mapping.items()))[0]
        mapping.unmap_page(vpn)
        with pytest.raises(CellFailedError):
            runner.mapping("sphinx3", "medium")

    def test_runner_refuses_mutated_trace(self):
        from repro.experiments.common import ExperimentConfig, MatrixRunner

        runner = MatrixRunner(ExperimentConfig(references=300, seed=5))
        trace = runner.trace("sphinx3")
        trace.vpns[0] += 1
        with pytest.raises(CellFailedError):
            runner.trace("sphinx3")

    def test_worker_caches_key_on_seed_and_references(self):
        """Two configs differing only in seed never alias a trace."""
        a = execute_request(spec_of(seed=1))
        b = execute_request(spec_of(seed=2))
        assert a["stats"] != b["stats"]


class TestCanonicalJson:
    def test_numpy_scalars_unboxed(self):
        assert canonical_json({"a": np.int64(3)}) == '{"a":3}'
        assert canonical_json([np.float64(0.5)]) == "[0.5]"

    def test_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'
