"""MatrixRunner + TraceStore wiring: one cache dir, one generation."""

from __future__ import annotations

import numpy as np

from repro.experiments.common import ExperimentConfig, MatrixRunner
from repro.sim import runner as runner_module
from repro.sim.runner import InputMemo, trace_for
from repro.sim.trace_store import TraceStore
from repro.sim.workloads import get_workload

CONFIG = ExperimentConfig(references=2000, seed=5, epoch_references=500)


class TestMatrixRunnerTraceStore:
    def test_cache_dir_implies_trace_store(self, tmp_path):
        store = MatrixRunner(CONFIG, cache_dir=tmp_path).orchestrator.trace_store
        assert isinstance(store, TraceStore)
        assert store.root == tmp_path / "traces"

    def test_no_cache_dir_no_store(self):
        assert MatrixRunner(CONFIG).orchestrator.trace_store is None

    def test_trace_served_from_store_is_mmap(self, tmp_path, monkeypatch):
        """With a trace store configured, the memo serves its read-only
        map, equal to the eagerly generated trace."""
        monkeypatch.setattr(runner_module, "_WORKER_TRACE_STORE",
                            TraceStore(tmp_path / "traces"))
        request = MatrixRunner(CONFIG).spec("gups", "demand", "base")
        trace = trace_for(request, InputMemo())
        assert isinstance(trace.vpns, np.memmap)
        assert not trace.vpns.flags.writeable
        eager = get_workload("gups").make_trace(CONFIG.references,
                                                seed=CONFIG.seed)
        np.testing.assert_array_equal(np.asarray(trace.vpns), eager.vpns)

    def test_two_runners_share_one_generation(self, tmp_path):
        first = MatrixRunner(CONFIG, cache_dir=tmp_path)
        first.run("gups", "demand", "base")
        second = MatrixRunner(CONFIG, cache_dir=tmp_path)
        second.run("gups", "demand", "thp")
        assert second.orchestrator.trace_store.generation_count() == 1

    def test_prefetch_records_generation_in_summary(self, tmp_path):
        runner = MatrixRunner(CONFIG, cache_dir=tmp_path)
        summary = runner.prefetch(("gups",), ("demand",), ("base", "thp"))
        assert summary is not None
        assert summary.traces_generated == 1
        assert summary.peak_rss_bytes > 0
        assert runner.orchestrator.trace_store.generation_count() == 1

    def test_store_backed_results_match_eager(self, tmp_path):
        stored = MatrixRunner(CONFIG, cache_dir=tmp_path).run(
            "gups", "demand", "anchor-dyn")
        eager = MatrixRunner(CONFIG).run("gups", "demand", "anchor-dyn")
        assert stored.to_dict() == eager.to_dict()
