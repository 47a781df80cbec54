"""``anchor-tlb fleet``: a rerun with the same cache is free and identical.

With ``--cache-dir`` every shard's outcome is stored under its
``kind="fleet-shard"`` request key, so the second invocation of the
same command must simulate nothing and write the same ``--out`` bytes.
"""

from __future__ import annotations

from repro.experiments.fleet import fleet_main
from repro.sim import tenants
from repro.sim.runner import ResultStore


def _no_shard_may_run(request, trace_store):
    raise AssertionError("shard recomputed despite a warm cache")


def test_rerun_is_served_from_the_shard_cache(tmp_path, monkeypatch, capsys):
    cache = tmp_path / "cache"
    argv = ["--tenants", "24", "--references", "400", "--trace-variants", "2",
            "--shards", "3", "--workers", "2", "--cache-dir", str(cache)]
    first, second = tmp_path / "first.json", tmp_path / "second.json"

    assert fleet_main(argv + ["--out", str(first)]) == 0
    monkeypatch.setattr(tenants, "simulate_shard", _no_shard_may_run)
    assert fleet_main(argv + ["--out", str(second)]) == 0

    assert first.read_bytes() == second.read_bytes()
    assert len(ResultStore(cache / "fleet-shards")) == 3
    assert '"event": "fleet"' in capsys.readouterr().out
