"""Fault injection for the orchestrator.

A worker that raises, hangs past its timeout, or dies mid-job must be
retried up to the bound and then land in the failure ledger; the report
must render the resulting gap instead of crashing.

The injected job functions are module-level so the process pool can
pickle them by reference; cross-process "fail once, then succeed" state
goes through a flag file whose path workers inherit via the
environment.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro.sim import runner
from repro.sim.api import SimRequest
from repro.sim.runner import Orchestrator, ResultStore

FLAG_ENV = "REPRO_TEST_FAULT_FLAG"

#: Where the orchestrator tests drop their failure-ledger artifact (CI
#: sets this and uploads the directory).
LEDGER_ENV = "ANCHOR_TLB_LEDGER_DIR"


def spec_of(scheme: str = "base") -> SimRequest:
    return SimRequest(workload="sphinx3", scenario="medium", scheme=scheme,
                      references=100, seed=1)


def _ok_job(spec: SimRequest) -> dict:
    return {"ok": spec.scheme}


def _raise_job(spec: SimRequest) -> dict:
    raise ValueError(f"injected fault for {spec.scheme}")


def _flaky_job(spec: SimRequest) -> dict:
    flag = Path(os.environ[FLAG_ENV])
    if flag.exists():
        return {"ok": spec.scheme}
    flag.touch()
    raise ValueError("injected first-attempt fault")


def _die_job(spec: SimRequest) -> dict:
    flag = Path(os.environ[FLAG_ENV])
    if flag.exists():
        return {"ok": spec.scheme}
    flag.touch()
    os._exit(17)  # kill the worker without cleanup


def _hang_job(spec: SimRequest) -> dict:
    time.sleep(8)  # far past every timeout used below
    return {"ok": spec.scheme}


def _maybe_write_ledger(summary) -> None:
    ledger_dir = os.environ.get(LEDGER_ENV)
    if ledger_dir:
        summary.write_ledger(Path(ledger_dir) / "failure_ledger.json")


class TestSerialFaults:
    def test_raising_job_is_retried_then_ledgered(self):
        orch = Orchestrator(workers=0, retries=2, job_fn=_raise_job)
        results, summary = orch.run([spec_of()])
        assert results == {}
        assert summary.retried == 2
        assert summary.failed == 1
        [failure] = summary.failures
        assert failure.attempts == 3
        assert "injected fault" in failure.error
        _maybe_write_ledger(summary)

    def test_flaky_job_recovers_within_bound(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FLAG_ENV, str(tmp_path / "flag"))
        orch = Orchestrator(workers=0, retries=1, job_fn=_flaky_job)
        results, summary = orch.run([spec_of()])
        assert summary.computed == 1
        assert summary.retried == 1
        assert summary.failed == 0
        assert list(results.values()) == [{"ok": "base"}]

    def test_failure_does_not_poison_other_jobs(self):
        def one_bad(spec: SimRequest) -> dict:
            if spec.scheme == "bad":
                raise ValueError("injected")
            return {"ok": spec.scheme}

        orch = Orchestrator(workers=0, retries=0, job_fn=one_bad)
        results, summary = orch.run([spec_of("bad"), spec_of("good")])
        assert summary.failed == 1 and summary.computed == 1
        assert [p["ok"] for p in results.values()] == ["good"]


class TestPoolFaults:
    def test_raising_job_lands_in_ledger(self):
        orch = Orchestrator(workers=1, retries=1, job_fn=_raise_job)
        results, summary = orch.run([spec_of()])
        assert results == {}
        assert summary.failed == 1 and summary.retried == 1
        assert summary.failures[0].attempts == 2
        _maybe_write_ledger(summary)

    def test_dead_worker_is_retried_on_fresh_pool(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FLAG_ENV, str(tmp_path / "flag"))
        orch = Orchestrator(workers=1, retries=1, job_fn=_die_job)
        results, summary = orch.run([spec_of()])
        assert summary.computed == 1
        assert summary.retried == 1
        assert list(results.values()) == [{"ok": "base"}]

    def test_dead_worker_exhausts_retries(self):
        orch = Orchestrator(workers=1, retries=1, job_fn=_always_die)
        results, summary = orch.run([spec_of()])
        assert results == {}
        assert summary.failed == 1
        assert "died" in summary.failures[0].error

    def test_hung_job_times_out_into_ledger(self):
        orch = Orchestrator(workers=1, retries=0, timeout=0.75,
                            job_fn=_hang_job)
        started = time.monotonic()
        results, summary = orch.run([spec_of()])
        elapsed = time.monotonic() - started
        assert results == {}
        assert summary.failed == 1
        assert "timed out" in summary.failures[0].error
        assert elapsed < 6  # did not wait for the 8s sleep
        _maybe_write_ledger(summary)

    def test_hung_job_does_not_block_store_of_others(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        orch = Orchestrator(workers=1, retries=0, timeout=0.75,
                            store=store, job_fn=_hang_one)
        results, summary = orch.run([spec_of("good"), spec_of("hang")])
        assert summary.computed == 1 and summary.failed == 1
        assert [p["ok"] for p in results.values()] == ["good"]
        assert store.get(spec_of("good").key()) == {"ok": "good"}


class TestPoolShutdown:
    def test_clean_run_lets_idle_workers_exit(self, monkeypatch):
        """A drained pool is shut down, not killed: every worker exits 0."""
        workers = {}
        kills = []
        make_pool = runner.new_pool
        kill = Orchestrator._kill_executor

        def recording_pool(*args, **kwargs):
            executor = make_pool(*args, **kwargs)
            submit = executor.submit

            def recording_submit(*submit_args, **submit_kwargs):
                future = submit(*submit_args, **submit_kwargs)
                workers.update(executor._processes)
                return future

            executor.submit = recording_submit
            return executor

        def recording_kill(executor):
            kills.append(executor)
            kill(executor)

        monkeypatch.setattr(runner, "new_pool", recording_pool)
        monkeypatch.setattr(
            Orchestrator, "_kill_executor", staticmethod(recording_kill))
        orch = Orchestrator(workers=2, retries=0, job_fn=_ok_job)
        results, summary = orch.run(
            [spec_of("a"), spec_of("b"), spec_of("c")])
        assert summary.computed == 3 and summary.failed == 0
        assert kills == []
        assert len(workers) == 2
        assert [p.exitcode for p in workers.values()] == [0, 0]


# Pool job functions must be module-level for pickling; the closures in
# the tests above are rebound here under stable names.
def _always_die(spec: SimRequest) -> dict:
    os._exit(17)


def _hang_one(spec: SimRequest) -> dict:
    if spec.scheme == "hang":
        time.sleep(8)
    return {"ok": spec.scheme}


class TestReportRendersGaps:
    def test_scenario_rows_render_failed_cells_as_gaps(self):
        from repro.experiments.common import ExperimentConfig, MatrixRunner
        from repro.util.tables import format_table

        runner = MatrixRunner(ExperimentConfig(references=200, seed=4),
                              retries=0)
        rows = runner.scenario_rows("medium", ("base", "not-a-scheme"),
                                    workloads=("sphinx3",))
        headers = ["workload", "base", "not-a-scheme"]
        assert rows[0][2] is None          # the gap
        assert rows[0][1] == pytest.approx(100.0)
        assert rows[-1][2] is None         # gapped column has no mean
        text = format_table(headers, rows)
        assert "-" in text                 # rendered, not crashed

    def test_ledger_reported_in_summary(self):
        from repro.experiments.common import ExperimentConfig, MatrixRunner

        runner = MatrixRunner(ExperimentConfig(references=200, seed=4),
                              retries=0)
        runner.scenario_rows("medium", ("base", "not-a-scheme"),
                             workloads=("sphinx3",))
        summary = runner.summaries[-1]
        assert summary.failed == 1
        assert "not-a-scheme" in summary.failures[0].label
        _maybe_write_ledger(summary)

    def test_unprefetched_run_follows_the_ledger(self):
        """An un-prefetched ``run`` is retried, ledgered once and
        summarised like any prefetched cell, and never re-attempted."""
        from repro.errors import CellFailedError
        from repro.experiments.common import ExperimentConfig, MatrixRunner

        runner = MatrixRunner(ExperimentConfig(references=200, seed=4),
                              retries=1)
        with pytest.raises(CellFailedError, match="after 2 attempts"):
            runner.run("sphinx3", "medium", "not-a-scheme")
        assert len(runner.summaries) == 1
        summary = runner.summaries[0]
        assert (summary.retried, summary.failed) == (1, 1)
        assert [f.attempts for f in summary.failures] == [2]
        with pytest.raises(CellFailedError, match="after 2 attempts"):
            runner.run("sphinx3", "medium", "not-a-scheme")
        assert runner.maybe_run("sphinx3", "medium", "not-a-scheme") is None
        assert len(runner.summaries) == 1  # no further attempt

    def test_ledger_artifact_roundtrip(self, tmp_path):
        import json

        orch = Orchestrator(workers=0, retries=0, job_fn=_raise_job)
        _, summary = orch.run([spec_of()])
        path = summary.write_ledger(tmp_path / "artifacts" / "ledger.json")
        payload = json.loads(path.read_text())
        assert payload["failed"] == 1
        assert payload["failures"][0]["label"] == "sphinx3/medium/base"
