"""The workloads on tiny inputs: metrics, oracles, and tracer hygiene."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import child
import run
import spans
import workloads
from metrics import load_spec, metric_table

SPEC = load_spec()

TINY = {
    "engine-gups": workloads.EngineSizes(
        "gups", "high", 4_000, epoch_references=1_000, schemes=("base", "thp"),
        min_passes=2, oracle_epoch=500),
    "engine-churn": workloads.EngineSizes(
        "omnetpp", "medium", 4_000, epoch_references=1_000, pwc=(False,),
        schemes=("base", "anchor-dyn"), migrations_per_epoch=4, min_passes=2,
        oracle_epoch=500),
    "fleet-sharded": workloads.FleetSizes(
        tenants=12, references=600, workloads=("omnetpp", "sphinx3"),
        scenarios=("medium",), trace_variants=2, min_calls=2),
    "service-mix": workloads.ServiceSizes(
        references=2_000, workloads=("omnetpp", "sphinx3"),
        scenarios=("medium",), schemes=("base", "anchor-dyn"), trace_seeds=2,
        fleet_frac=0.15, distances_frac=0.15, requests=40, oracle_keys=2,
        setups=2),
}


def tiny(name, tmp_path, traced=False, seed=5):
    # The service loop ends when its short sequence runs out.
    seconds = 60.0 if name == "service-mix" else 0.01
    return workloads.run_workload(name, seed, seconds, traced, tmp_path,
                                  sizes=TINY[name])


def binding_snapshot():
    """Every attribute of every loaded program module and scheme class."""
    owners = [m for n, m in sys.modules.items() if n.startswith("repro")]
    owners += [c for m in list(owners) for c in vars(m).values()
               if isinstance(c, type) and c.__module__.startswith("repro")]
    return {(id(o), attr): value for o in owners for attr, value in vars(o).items()}


@pytest.mark.parametrize("name", list(TINY))
def test_untraced_run_emits_every_metric_and_installs_nothing(
        name, tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("an untraced run installed wrappers")

    monkeypatch.setattr(spans.Tracer, "install", refuse)
    outcome = tiny(name, tmp_path)
    assert outcome.correct, outcome.checks
    assert outcome.attempted > 0 and outcome.failed == 0
    lines = run.metric_lines(
        child.result_record(outcome, metric_table(SPEC, traced=False)))
    for metric in SPEC["end_to_end"]:
        [line] = [x for x in lines if x.startswith(f"{name} {metric['name']} ")]
        value, unit = line.split()[2:]
        assert unit == metric["unit"] and float(value) > 0


@pytest.mark.parametrize("name", ["engine-churn", "fleet-sharded"])
def test_traced_run_restores_every_binding(name, tmp_path):
    import repro.schemes.registry  # noqa: F401 — load every scheme class

    before = binding_snapshot()
    untraced = tiny(name, tmp_path / "plain")
    outcome = tiny(name, tmp_path / "traced", traced=True)
    assert outcome.correct, outcome.checks
    assert outcome.digest == untraced.digest
    assert outcome.metrics["lru.simulate_block.calls"] > 0
    assert outcome.metrics["schemes.access_block.refs"] > 0
    after = binding_snapshot()
    assert {k for k in before if before[k] is not after.get(k)} == set()
    record = child.result_record(outcome, metric_table(SPEC, traced=True))
    assert set(record["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_traced_service_reports_its_store(tmp_path):
    outcome = tiny("service-mix", tmp_path, traced=True)
    assert outcome.correct, outcome.checks
    assert outcome.metrics["runner.result_store.put.calls"] == \
        outcome.metrics["service.computed.count"]
    assert outcome.metrics["runner.result_store.get.hits"] == \
        outcome.metrics["service.cached.count"]


def test_host_speed_scales_a_region_by_the_samples_near_it():
    speed = workloads.HostSpeed()
    reference = workloads.REFERENCE_KERNEL_S
    speed.samples = [(t, reference) for t in (0.0, 1.0, 2.0, 3.0)]
    speed.samples += [(t, 2 * reference) for t in (10.0, 11.0, 12.0, 13.0)]
    assert speed.scaled(1.5, 2.5) == pytest.approx(1.0)
    # At half the reference speed a measured second counts half.
    assert speed.scaled(11.5, 12.5) == pytest.approx(0.5)
    # A region holding enough samples uses all of them.
    assert speed.scaled(0.0, 13.0) == pytest.approx(13.0 / 1.5)
    speed.sample()
    assert len(speed.samples) == 10 and speed.samples[-1][1] > 0


def test_injected_stats_mismatch_exits_nonzero(tmp_path, monkeypatch, capsys):
    real = workloads.engine.run_trace

    def skewed(*args, **kwargs):
        result = real(*args, **kwargs)
        if kwargs.get("engine") == "scalar":
            result.stats.walks += 1
        return result

    monkeypatch.setattr(workloads.engine, "run_trace", skewed)
    outcome = tiny("engine-churn", tmp_path)
    assert not outcome.correct
    record = child.result_record(outcome, metric_table(SPEC, traced=False))
    record["hostmeta"] = {}
    monkeypatch.setattr(run, "run_child", lambda workload, args: record)
    assert run.main(["--workload", "engine-churn", "--seconds", "1"]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False


def test_fails_without_the_program(tmp_path):
    bench = Path(run.__file__).resolve().parent
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "engine-gups",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
