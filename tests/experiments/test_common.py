"""Tests for the experiment matrix runner."""

from dataclasses import replace

import pytest

from repro.experiments.common import (
    STATIC_IDEAL,
    ExperimentConfig,
    MatrixRunner,
    figure_schemes,
)
from repro.sim import runner as runner_module
from repro.sim.runner import InputMemo, mapping_for, trace_for


@pytest.fixture(scope="module")
def runner():
    return MatrixRunner(ExperimentConfig(references=3000, seed=2,
                                         ideal_subsample=8))


class TestRunner:
    """The memo the runner's cells read mappings and traces through."""

    def test_mapping_cached(self, runner):
        memo = InputMemo()
        request = runner.spec("sphinx3", "medium", "base")
        mapping = mapping_for(request, memo)
        assert mapping_for(request, memo) is mapping
        # Every scheme of a column shares the build; a seed does not.
        assert mapping_for(replace(request, scheme="thp"), memo) is mapping
        assert mapping_for(replace(request, seed=3), memo) is not mapping

    def test_trace_cached(self, runner, monkeypatch):
        monkeypatch.setattr(runner_module, "_WORKER_TRACE_STORE", None)
        memo = InputMemo()
        request = runner.spec("sphinx3", "medium", "base")
        trace = trace_for(request, memo)
        assert trace_for(request, memo) is trace
        assert trace_for(replace(request, seed=3), memo) is not trace
        assert trace_for(replace(request, references=2000), memo) is not trace

    def test_run_cell_and_cache(self, runner):
        r1 = runner.run("sphinx3", "medium", "base")
        r2 = runner.run("sphinx3", "medium", "base")
        assert r1 is r2
        assert r1.stats.accesses == 3000

    def test_relative_misses_base_is_100(self, runner):
        assert runner.relative_misses("sphinx3", "medium", "base") == 100.0

    def test_static_ideal_cell(self, runner):
        result = runner.run("sphinx3", "medium", STATIC_IDEAL)
        assert result.scheme == "anchor-ideal"
        assert "ideal_distance" in result.extras

    def test_ideal_not_worse_than_dynamic(self, runner):
        dynamic = runner.run("sphinx3", "medium", "anchor-dyn")
        ideal = runner.run("sphinx3", "medium", STATIC_IDEAL)
        assert ideal.stats.walks <= dynamic.stats.walks * 1.05

    def test_scenario_rows_shape(self, runner):
        rows = runner.scenario_rows("medium", ("base", "thp"),
                                    workloads=("sphinx3", "omnetpp"))
        assert len(rows) == 3  # two workloads + mean
        assert rows[-1][0] == "mean"
        assert rows[-1][1] == pytest.approx(100.0)


class TestFigureSchemes:
    def test_with_and_without_ideal(self):
        assert figure_schemes(True)[-1] == STATIC_IDEAL
        assert STATIC_IDEAL not in figure_schemes(False)
