"""The benchmark's four workloads.

Each workload builds its inputs from the run's seed, runs a *unit* of
work — set-up followed by simulation — as many times as the time budget
allows, checks the program's outputs against an oracle, and reports
the end-to-end metrics (untraced) or the per-layer metrics (traced, see
:mod:`spans`).  Sizes are parameters, so tests run the same code on
tiny inputs.

* ``engine-gups`` and ``engine-churn`` drive :func:`run_trace` over
  every scheme (× page-walk caches) cell;
* ``fleet-sharded`` drives :func:`simulate_fleet` across a process pool;
* ``service-mix`` drives ``anchor-tlb serve`` with a closed loop of
  blocking clients.

The program is always called through its module attributes
(``scenarios.build_mapping``, ``registry.make_scheme``, ...), so a
traced run sees the calls the tracer wrapped.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro
from repro.params import DEFAULT_MACHINE
from repro.schemes import registry
from repro.service import client
from repro.sim import engine, tenants
from repro.sim.api import DISTANCE_SELECT, SimRequest, TenancyConfig, execute_request
from repro.sim.stats import COUNTER_FIELDS, canonical_json
from repro.sim.trace_store import TraceStore
from repro.sim.workloads import get_workload
from repro.vmos import scenarios

from metrics import median, quantile
from spans import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
SRC = Path(repro.__file__).resolve().parent.parent

#: Every registered scheme, the engine workloads' cell columns.
SCHEMES = registry.scheme_names(include_extras=True)

#: Migrated pages land on fresh frames far above anything the scenarios
#: allocate, two apart so no two migrated pages become contiguous.
FRESH_FRAME_BASE = 1 << 30

now = time.perf_counter


def digest(payload: object) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def derived_seeds(seed: int, count: int) -> list[int]:
    """Independent 31-bit seeds for each input of one run."""
    state = np.random.SeedSequence(seed).generate_state(count)
    return [int(value) >> 1 for value in state]


def peak_rss_mb() -> float:
    """Peak RSS of this process or of any waited-for descendant, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


#: The reference kernel's CPU time at the speed every timing is reported
#: at (about the reference host's own speed).
REFERENCE_KERNEL_S = 0.004
_REFERENCE_KEYS = np.random.default_rng(0).integers(0, 1 << 20, size=100_000)


class HostSpeed:
    """How fast this host runs, sampled with a fixed reference kernel.

    The reference host's per-instruction speed swings by up to 40%
    within a minute with nothing else running in it, and a pure-Python
    loop and a numpy sort swing largely in step with the workloads.  So a
    workload samples the kernel — a Python loop and a sort, timed on the
    sampling thread's CPU clock so that waiting for a CPU does not count
    — next to each region it measures, never inside one, and
    :meth:`scaled` reports a region's time as if the kernel had taken
    :data:`REFERENCE_KERNEL_S` around it.
    """

    #: Samples a region is scaled by when fewer fall inside it.
    NEAREST = 4

    def __init__(self) -> None:
        #: ``(perf_counter at the sample's end, kernel CPU seconds)``
        self.samples: list[tuple[float, float]] = []

    def sample(self, count: int = 2) -> None:
        for _ in range(count):
            started = time.thread_time()
            total = 0
            for i in range(50_000):
                total += i
            np.sort(_REFERENCE_KEYS)
            self.samples.append((now(), time.thread_time() - started))

    @contextmanager
    def sampling(self, every_s: float = 0.25) -> Iterator[None]:
        """Sample from a background thread, for regions with no gaps
        (the service's request loop)."""
        stop = threading.Event()

        def loop() -> None:
            while not stop.wait(every_s):
                self.sample(1)

        thread = threading.Thread(target=loop, name="host-speed", daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def scaled(self, start: float, end: float) -> float:
        """The region's length at reference speed: scaled by the median
        of the samples inside it, or of the nearest ones."""
        inside = [k for t, k in self.samples if start <= t <= end]
        if len(inside) < self.NEAREST:
            nearest = sorted(self.samples, key=lambda s: max(start - s[0], s[0] - end))
            inside = [k for _, k in nearest[:self.NEAREST]]
        return (end - start) * REFERENCE_KERNEL_S / median(inside)

    def to_dict(self) -> dict:
        kernel = median(k for _, k in self.samples)
        return {"samples": len(self.samples), "kernel_ms_median": kernel * 1e3,
                "factor_median": REFERENCE_KERNEL_S / kernel}


def span_length(start: float, end: float) -> float:
    return end - start


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    workload: str
    seed: int
    traced: bool
    metrics: dict[str, float] = field(default_factory=dict)
    checks: list[dict] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    #: A traced run's whole tracer summary, root ``wall`` included, so
    #: a layer's share of the traced unit can be read off ``--output``.
    trace_summary: dict[str, float] = field(default_factory=dict)
    #: An untraced run's :meth:`HostSpeed.to_dict`, and its timing
    #: metrics unscaled, as the wall clock read them.
    host_speed: dict[str, float] = field(default_factory=dict)
    raw_metrics: dict[str, float] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        self.check(what, False, repr(exc))

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(c["ok"] for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "traced": self.traced,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "digest": self.digest,
            "checks": self.checks,
            "metrics": dict(self.metrics),
            "trace_summary": dict(self.trace_summary),
            "host_speed": dict(self.host_speed),
            "raw_metrics": dict(self.raw_metrics),
        }


def cell_label(scheme: str, pwc: bool) -> str:
    return f"{scheme}.pwc" if pwc else scheme


def empty_layer_metrics() -> dict[str, float]:
    """Every per-layer metric at zero: a workload that bypasses a layer
    reports it as such."""
    out: dict[str, float] = dict.fromkeys(Tracer(LAYERS).summary(), 0.0)
    for key in ("wall", "self_sum", "coverage_frac"):
        out.pop(key)
    out["lru.keys_per_call"] = 0.0
    for scheme in SCHEMES:
        for pwc in (False, True):
            out[f"cell.{cell_label(scheme, pwc)}.refs_per_s"] = 0.0
    for kind in ("cached", "joined", "computed"):
        out[f"service.{kind}.count"] = 0
    out["service.cached.latency_p50_ms"] = 0.0
    out["service.computed.latency_p50_ms"] = 0.0
    out["service.computed.latency_p95_ms"] = 0.0
    out["service.reply_bytes"] = 0
    for counter in COUNTER_FIELDS:
        out[f"sim.{counter}"] = 0
    out["trace.overhead_frac"] = 0.0
    out["trace.coverage_frac"] = 0.0
    return out


def add_layers(out: Outcome, summary: dict, untraced_s: float,
               traced_s: float) -> None:
    """Fold a tracer summary into a traced run's per-layer metrics."""
    metrics = empty_layer_metrics()
    metrics.update(
        (k, v) for k, v in summary.items() if k in metrics
    )
    calls = metrics["lru.simulate_block.calls"]
    metrics["lru.keys_per_call"] = (
        metrics["lru.simulate_block.keys"] / calls if calls else 0.0
    )
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    metrics["trace.coverage_frac"] = summary["coverage_frac"]
    out.metrics.update(metrics)
    out.trace_summary = dict(summary)
    wall, self_sum = summary["wall"], summary["self_sum"]
    out.check(
        "trace: self times sum to the traced wall within 5%",
        wall > 0 and abs(self_sum - wall) <= 0.05 * wall,
        f"self {self_sum:.4f}s vs wall {wall:.4f}s",
    )


def add_modelled(out: Outcome, snapshots) -> None:
    """``sim.*``: the modelled hardware counters of one unit of work."""
    for counter in COUNTER_FIELDS:
        out.metrics[f"sim.{counter}"] = sum(int(s[counter]) for s in snapshots)


def add_timings(out: Outcome, speed: HostSpeed, timings) -> None:
    """The timing metrics at reference speed, and raw.

    ``timings(length)`` gives ``latency_metrics`` arguments with every
    measured ``(start, end)`` region turned into seconds by ``length``.
    """
    out.metrics.update(latency_metrics(*timings(speed.scaled)))
    out.raw_metrics.update(latency_metrics(*timings(span_length)))
    out.host_speed = speed.to_dict()


def latency_metrics(latencies_s, setups_s, refs: float, requests: float,
                    seconds: float) -> dict[str, float]:
    return {
        "refs_per_s": refs / seconds,
        "req_per_s": requests / seconds,
        "latency_p50_ms": median(latencies_s) * 1e3,
        "latency_p95_ms": quantile(latencies_s, 0.95) * 1e3,
        "setup_s": median(setups_s),
    }


# ---------------------------------------------------------------------------
# Engine workloads: run_trace over every scheme cell
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EngineSizes:
    workload: str
    scenario: str
    references: int
    epoch_references: int = 50_000
    pwc: tuple[bool, ...] = (False, True)
    schemes: tuple[str, ...] = SCHEMES
    #: Pages migrated (unmapped, remapped to a fresh frame) at every
    #: epoch boundary, through ``MemoryMapping`` in ``on_epoch``.
    migrations_per_epoch: int = 0
    min_passes: int = 3
    #: Epoch length of the scalar-vs-batched oracle's 2-epoch prefix.
    oracle_epoch: int = 5_000

    @property
    def cells(self) -> list[tuple[str, bool]]:
        return [(s, p) for s in self.schemes for p in self.pwc]


Region = tuple[float, float]


@dataclass
class _Pass:
    #: Measured ``(start, end)`` regions: the whole pass, its set-up
    #: pieces and its cell runs.
    region: Region = (0.0, 0.0)
    setup: list[Region] = field(default_factory=list)
    cells: dict[str, Region] = field(default_factory=dict)
    records: dict[str, dict] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return span_length(*self.region)


class _EngineBench:
    def __init__(self, sizes: EngineSizes, seed: int) -> None:
        self.sizes = sizes
        self.mapping_seed, self.trace_seed, churn_seed = derived_seeds(seed, 3)
        self.workload = get_workload(sizes.workload)
        self.plan = self._migration_plan(churn_seed)

    def _migration_plan(self, seed: int) -> list[list[tuple[int, int]]]:
        """Per epoch boundary, the pages to migrate and their new frames."""
        sizes = self.sizes
        if not sizes.migrations_per_epoch:
            return []
        rng = np.random.default_rng(seed)
        vpns = np.concatenate([
            np.arange(v.start_vpn, v.end_vpn, dtype=np.int64)
            for v in self.workload.vmas()
        ])
        boundaries = max(1, -(-sizes.references // sizes.epoch_references) - 1)
        plan, frame = [], FRESH_FRAME_BASE
        for _ in range(boundaries):
            picked = rng.choice(vpns, size=sizes.migrations_per_epoch, replace=False)
            plan.append([(int(v), frame + 2 * i) for i, v in enumerate(picked)])
            frame += 2 * len(picked)
        return plan

    def _mapping(self):
        return scenarios.build_mapping(
            self.workload.vmas(), self.sizes.scenario, seed=self.mapping_seed)

    def _churn(self, mapping):
        if not self.plan:
            return None
        plan = self.plan

        def on_epoch(epoch: int, _scheme) -> None:
            for vpn, pfn in plan[epoch - 1]:
                mapping.unmap_page(vpn)
                mapping.map_page(vpn, pfn)

        return on_epoch

    def run_pass(self, store_root: Path, out: Outcome,
                 speed: HostSpeed | None = None) -> _Pass:
        """Set up and simulate every cell once, sampling ``speed``
        before each cell.

        Set-up is the trace generated into a fresh trace store, the
        mapping, and each cell's ``make_scheme`` (churned cells get
        their own mapping, since migrations mutate it).
        """
        sizes, result = self.sizes, _Pass()
        started = now()
        store = TraceStore(store_root)
        trace = store.get_or_create(
            TraceStore.key(sizes.workload, sizes.references, self.trace_seed),
            lambda: self.workload.trace_source(sizes.references, seed=self.trace_seed),
        )
        shared = None if self.plan else self._mapping()
        result.setup.append((started, now()))
        for scheme, pwc in sizes.cells:
            label = cell_label(scheme, pwc)
            out.attempted += 1
            if speed is not None:
                speed.sample()
            try:
                t0 = now()
                mapping = shared if shared is not None else self._mapping()
                machine = dataclasses.replace(DEFAULT_MACHINE, pwc=pwc)
                obj = registry.make_scheme(scheme, mapping, machine)
                t1 = now()
                sim = engine.run_trace(
                    obj, trace, epoch_references=sizes.epoch_references,
                    on_epoch=self._churn(mapping),
                )
                t2 = now()
            except Exception as exc:  # noqa: BLE001 — counted, reported
                out.fail(f"{label}: run", exc)
                continue
            result.setup.append((t0, t1))
            result.cells[label] = (t1, t2)
            result.records[label] = {
                "stats": sim.stats.snapshot(),
                "epoch_stats": sim.epoch_stats,
                "distance_changes": sim.distance_changes,
            }
        result.region = (started, now())
        del trace
        shutil.rmtree(store_root, ignore_errors=True)
        return result

    def oracle(self) -> list[str]:
        """Cells whose scalar ``access`` loop and batched engine disagree
        on a 2-epoch prefix of the trace, churn included."""
        sizes = self.sizes
        trace = self.workload.make_trace(sizes.references, seed=self.trace_seed)
        prefix = trace.prefix(2 * sizes.oracle_epoch)
        shared = None if self.plan else self._mapping()
        mismatched = []
        for scheme, pwc in sizes.cells:
            machine = dataclasses.replace(DEFAULT_MACHINE, pwc=pwc)
            if shared is None:
                mappings = [self._mapping(), self._mapping()]
                runs = [(m, registry.make_scheme(scheme, m, machine)) for m in mappings]
            else:
                # Clone before either runs: the clone is a fresh-state
                # twin sharing the prototype's read-only plan.
                proto = registry.make_scheme(scheme, shared, machine)
                runs = [(shared, proto.clone_fresh()), (shared, proto)]
            seen = []
            for (mapping, obj), mode in zip(runs, ("scalar", "batched")):
                sim = engine.run_trace(
                    obj, prefix, epoch_references=sizes.oracle_epoch,
                    on_epoch=self._churn(mapping), engine=mode,
                )
                seen.append((sim.stats.snapshot(), sim.epoch_stats))
            if seen[0] != seen[1]:
                mismatched.append(cell_label(scheme, pwc))
        return mismatched


def run_engine(sizes: EngineSizes, name: str, seed: int, seconds: float,
               traced: bool, scratch: Path) -> Outcome:
    bench = _EngineBench(sizes, seed)
    out = Outcome(name, seed, traced)
    deadline = now() + seconds
    passes: list[_Pass] = []
    if traced:
        # A warm-up pass first: the first pass of a process runs slower,
        # which would read as negative tracing overhead.
        bench.run_pass(scratch / "warmup", out)
        speed = HostSpeed()
        speed.sample()
        passes.append(bench.run_pass(scratch / "untraced", out))
        speed.sample()
        tracer = Tracer()
        with tracer.installed(), tracer.span("bench.pass"):
            traced_pass = bench.run_pass(scratch / "traced", out)
        speed.sample()
        add_layers(out, tracer.summary(), speed.scaled(*passes[0].region),
                   speed.scaled(*traced_pass.region))
        add_modelled(out, [r["stats"] for r in traced_pass.records.values()])
        for label, region in passes[0].cells.items():
            out.metrics[f"cell.{label}.refs_per_s"] = (
                sizes.references / span_length(*region))
        out.check(
            "traced pass reproduces the untraced pass",
            digest(traced_pass.records) == digest(passes[0].records),
        )
    else:
        speed = HostSpeed()
        while True:
            passes.append(bench.run_pass(scratch / f"pass{len(passes)}", out, speed))
            if (len(passes) >= sizes.min_passes
                    and now() + passes[-1].wall_s > deadline):
                break
        speed.sample()
        cells = [c for c in passes[0].cells if all(c in p.cells for p in passes)]

        def timings(length):
            # Per cell, the median over passes.
            cell_s = [median(length(*p.cells[c]) for p in passes) for c in cells]
            setups = [sum(length(*r) for r in p.setup) for p in passes]
            return (cell_s, setups, sizes.references * len(cells), len(cells),
                    sum(cell_s))

        add_timings(out, speed, timings)
        first = digest(passes[0].records)
        out.check(
            "every pass gives identical stats",
            all(digest(p.records) == first for p in passes[1:]),
            f"{len(passes)} passes",
        )
    out.digest = digest(passes[0].records)
    mismatched = bench.oracle()
    out.check(
        "scalar access loop equals batched stats on a 2-epoch prefix",
        not mismatched, ", ".join(mismatched),
    )
    return out


ENGINE_GUPS = EngineSizes("gups", "demand", 250_000)
ENGINE_CHURN = EngineSizes(
    "omnetpp", "medium", 500_000, pwc=(False,), migrations_per_epoch=64)


# ---------------------------------------------------------------------------
# Fleet workload: sharded simulate_fleet on a process pool
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FleetSizes:
    tenants: int = 120
    references: int = 1_000
    workloads: tuple[str, ...] = ("gups", "omnetpp", "sphinx3")
    #: ``high`` would make peak RSS bimodal across seeds: its few huge
    #: gups chunks pick distance 256 or 8192 by luck.
    scenarios: tuple[str, ...] = ("medium", "max")
    scheme: str = "anchor-dyn"
    policy: str = "tagged"
    quantum: int = 500
    active_pool: int = 8
    mapping_variants: int = 1
    trace_variants: int = 4
    shards: int = 2
    workers: int = 2
    min_calls: int = 3


@dataclass
class _FleetUnit:
    setup: Region
    call: Region
    digest: str
    executed: int
    stats: dict

    @property
    def region(self) -> Region:
        return self.setup[0], self.call[1]

    @property
    def wall_s(self) -> float:
        return span_length(*self.region)


def _fleet_unit(fleet, sizes: FleetSizes, workers: int, store_root: Path,
                out: Outcome) -> _FleetUnit:
    """Traces into a fresh store (set-up), then one ``simulate_fleet``."""
    started = now()
    store = TraceStore(store_root)
    tenants.prepare_fleet_traces(fleet, store)
    setup = (started, now())
    out.attempted += 1
    started = now()
    result = tenants.simulate_fleet(
        fleet, scheme=sizes.scheme, policy=sizes.policy, quantum=sizes.quantum,
        active_pool=sizes.active_pool, shards=sizes.shards, workers=workers,
        trace_store=store,
    )
    call = (started, now())
    shutil.rmtree(store_root, ignore_errors=True)
    result.stats.check_conservation()
    return _FleetUnit(setup, call, digest(result.to_dict()),
                      result.executed, result.stats.snapshot())


def run_fleet(sizes: FleetSizes, name: str, seed: int, seconds: float,
              traced: bool, scratch: Path) -> Outcome:
    out = Outcome(name, seed, traced)
    (fleet_seed,) = derived_seeds(seed, 1)
    fleet = tenants.TenantFleet(
        size=sizes.tenants, workloads=sizes.workloads,
        scenarios=sizes.scenarios, references=sizes.references,
        seed=fleet_seed, mapping_variants=sizes.mapping_variants,
        trace_variants=sizes.trace_variants,
    )
    deadline = now() + seconds
    units: list[_FleetUnit] = []

    def unit(workers: int) -> _FleetUnit:
        return _fleet_unit(fleet, sizes, workers, scratch / f"traces{len(units)}", out)

    if traced:
        # The pool's children would take their spans with them, so the
        # traced call runs the same shards serially, against a warmed
        # untraced serial call for the overhead.
        units.append(unit(sizes.workers))
        units.append(unit(0))
        speed = HostSpeed()
        speed.sample()
        units.append(unit(0))
        speed.sample()
        tracer = Tracer()
        with tracer.installed(), tracer.span("bench.unit"):
            units.append(unit(0))
        speed.sample()
        add_layers(out, tracer.summary(), speed.scaled(*units[2].region),
                   speed.scaled(*units[3].region))
        add_modelled(out, [units[3].stats])
    else:
        speed = HostSpeed()
        while True:
            speed.sample()
            units.append(unit(sizes.workers))
            if (len(units) >= sizes.min_calls
                    and now() + units[-1].wall_s > deadline):
                break
        speed.sample()

        def timings(length):
            calls = [length(*u.call) for u in units]
            return (calls, [length(*u.setup) for u in units],
                    sizes.tenants * sizes.references, 1, median(calls))

        add_timings(out, speed, timings)
    expected = sizes.tenants * sizes.references
    out.check("executed == tenants x refs",
              all(u.executed == expected for u in units),
              f"{[u.executed for u in units]} vs {expected}")
    out.check("every call (serial, pooled, traced) gives one digest",
              len({u.digest for u in units}) == 1)
    out.digest = units[0].digest
    return out


FLEET = FleetSizes()


# ---------------------------------------------------------------------------
# Service workload: anchor-tlb serve under a closed loop of clients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServiceSizes:
    clients: int = 2
    workers: int = 2
    references: int = 40_000
    workloads: tuple[str, ...] = ("omnetpp", "sphinx3", "xalancbmk", "soplex_pds")
    scenarios: tuple[str, ...] = ("low", "medium", "high")
    schemes: tuple[str, ...] = SCHEMES
    #: Distinct trace/mapping seeds fresh requests draw from.  Few, so
    #: the workers' mapping memo and the trace store fill early and
    #: memory does not grow with the number of requests served.
    trace_seeds: int = 4
    #: Epoch lengths fresh requests sweep: new keys over the same
    #: mappings and traces.
    epochs: tuple[int, ...] = (5_000, 10_000, 20_000, 40_000)
    #: Share of requests that repeat an earlier key; kept well above
    #: one half so the median lands among cache hits, not on the edge.
    repeat_frac: float = 0.65
    #: Share of fresh requests sent twice in a row, so the two clients
    #: race on one key and the second joins the first in flight.
    pair_frac: float = 0.1
    fleet_frac: float = 0.03
    distances_frac: float = 0.04
    fleet_tenants: int = 8
    fleet_references: int = 1_000
    #: Sequence length; the time budget normally ends the loop first.
    requests: int = 4_000
    #: Computed keys re-executed in-process as the oracle.
    oracle_keys: int = 8
    #: Server starts per run, before the drive; ``setup_s`` is their
    #: median.  Each start and drain costs about a second and a half.
    setups: int = 3


def request_sequence(sizes: ServiceSizes, seed: int) -> list[SimRequest]:
    """The seeded request stream, with repeats and same-key pairs."""
    rng = np.random.default_rng(derived_seeds(seed, 1)[0])
    seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=sizes.trace_seeds)]
    combos = [
        (w, sc, scheme, s, e) for w in sizes.workloads for sc in sizes.scenarios
        for scheme in sizes.schemes for s in seeds for e in sizes.epochs
    ]
    fresh = iter(rng.permutation(len(combos)).tolist())
    issued: list[SimRequest] = []
    sequence: list[SimRequest] = []
    while len(sequence) < sizes.requests:
        if issued and rng.random() < sizes.repeat_frac:
            sequence.append(issued[int(rng.integers(len(issued)))])
            continue
        kind = rng.random()
        if kind < sizes.fleet_frac:
            request = SimRequest(
                workload=sizes.workloads[0], scenario=sizes.scenarios[0],
                scheme="anchor-dyn", references=sizes.fleet_references,
                seed=int(rng.integers(0, 2**31 - 1)), kind="fleet",
                tenancy=TenancyConfig(
                    tenants=sizes.fleet_tenants, quantum=500,
                    workloads=sizes.workloads[:2], scenarios=sizes.scenarios,
                    trace_variants=2,
                ),
            )
        elif kind < sizes.fleet_frac + sizes.distances_frac:
            request = SimRequest(
                workload=sizes.workloads[int(rng.integers(len(sizes.workloads)))],
                scenario=sizes.scenarios[int(rng.integers(len(sizes.scenarios)))],
                scheme=DISTANCE_SELECT, references=sizes.references,
                seed=seeds[int(rng.integers(len(seeds)))], kind="distances",
            )
        else:
            w, sc, scheme, s, epoch = combos[next(fresh)]
            request = SimRequest(workload=w, scenario=sc, scheme=scheme,
                                 references=sizes.references, seed=s,
                                 epoch_references=epoch)
        issued.append(request)
        sequence.append(request)
        if rng.random() < sizes.pair_frac:
            sequence.append(request)
    return sequence


def simulated_refs(request: SimRequest) -> int:
    if request.kind == "fleet" and request.tenancy is not None:
        return request.tenancy.tenants * request.references
    return request.references if request.kind == "simulate" else 0


class _Server:
    """One ``anchor-tlb serve`` subprocess on an ephemeral port."""

    _LISTENING = re.compile(rb"listening on (\S+):(\d+)")

    def __init__(self, argv: list[str], log: Path) -> None:
        self.argv = argv
        self.log = log
        self.proc: subprocess.Popen | None = None
        self.host, self.port = "", 0

    def start(self, timeout: float = 60.0) -> Region:
        """Launch and wait for the listener; returns the start-up
        region (interpreter, imports, warm pool)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        started = now()
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                self.argv, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log, env=env,
            )
        while True:
            found = self._LISTENING.search(self.log.read_bytes())
            if found:
                self.host, self.port = found.group(1).decode(), int(found.group(2))
                return started, now()
            if self.proc.poll() is not None or now() - started > timeout:
                tail = self.log.read_bytes()[-2000:].decode(errors="replace")
                raise RuntimeError(f"service did not start: {tail}")
            time.sleep(0.002)

    def stop(self) -> dict:
        """Drain, then wait for the process (killing it if it hangs)."""
        assert self.proc is not None
        try:
            return client.drain(self.host, self.port, timeout=120)
        finally:
            self.kill(grace=60)

    def kill(self, grace: float = 0.0) -> None:
        if self.proc is None:
            return
        try:
            self.proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _drive(server: _Server, sequence: list[SimRequest], keys: list[str],
           clients: int, seconds: float) -> tuple[list[dict], Region]:
    """Closed loop: each client sends the next request of the sequence
    once its previous reply is complete, until the budget ends."""
    records: list[dict] = []
    lock = threading.Lock()
    position = iter(range(len(sequence)))
    started = now()
    deadline = started + seconds

    def loop() -> None:
        while True:
            with lock:
                index = next(position, None) if now() < deadline else None
            if index is None:
                return
            request = sequence[index]
            record = {"index": index, "key": keys[index], "ok": False,
                      "refs": simulated_refs(request)}
            sent = now()
            try:
                reply, envelopes = client.submit_and_wait(
                    request, server.host, server.port, timeout=120)
            except (RuntimeError, OSError, ValueError) as exc:
                record["error"] = repr(exc)
            else:
                last = envelopes[-1]
                record.update(
                    ok=True, cached=bool(last["cached"]),
                    joined=bool(last["joined"]), payload=digest(reply.payload),
                    reply_bytes=len(canonical_json(reply.to_dict())),
                )
            record["done"] = now()
            record["latency_s"] = record["done"] - sent
            record["sent"] = sent
            with lock:
                records.append(record)

    threads = [threading.Thread(target=loop, name=f"client-{i}")
               for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, (started, max(r["done"] for r in records))


def _service_round(sizes: ServiceSizes, argv: list[str], scratch: Path,
                   sequence, keys, seconds: float, starts: int,
                   out: Outcome) -> tuple[list[Region], list[dict], Region]:
    """Start the service ``starts`` times (the last one serves), drive
    it for ``seconds``, drain it, and check its accounting."""
    setups: list[Region] = []
    server = None
    try:
        for attempt in range(starts):
            run_dir = Path(tempfile.mkdtemp(prefix="serve-", dir=scratch))
            server = _Server(argv + ["--cache-dir", str(run_dir / "cache")],
                             run_dir / "serve.log")
            setups.append(server.start())
            if attempt < starts - 1:
                server.stop()
        records, drive = _drive(server, sequence, keys, sizes.clients, seconds)
        final = server.stop()["metrics"]
    finally:
        if server is not None:
            server.kill()
    out.attempted += len(records)
    out.failed += sum(not r["ok"] for r in records)
    done = [r for r in records if r["ok"]]
    computed = sum(not r["cached"] and not r["joined"] for r in done)
    out.check(
        "service accounting: each key computed once, nothing rejected",
        final["received"] == len(records) and final["errors"] == 0
        and final["rejected"] == 0
        and final["computed"] == computed == len({r["key"] for r in done}),
        f"server {final}, client computed {computed}",
    )
    by_key: dict[str, set] = {}
    for record in done:
        by_key.setdefault(record["key"], set()).add(record["payload"])
    out.check("every reply for a key is byte-identical",
              all(len(p) == 1 for p in by_key.values()))
    return setups, done, drive


def _service_oracle(sizes: ServiceSizes, sequence, keys, done,
                    out: Outcome) -> list[dict]:
    """Re-execute the first computed simulate keys in-process."""
    served = {r["key"]: r["payload"] for r in done}
    chosen, payloads = [], []
    for request, key in zip(sequence, keys):
        if len(chosen) == sizes.oracle_keys:
            break
        if request.kind == "simulate" and key in served and key not in chosen:
            chosen.append(key)
            payloads.append(execute_request(request))
    out.check(
        f"{len(chosen)} served keys match in-process execute_request",
        bool(chosen) and all(digest(p) == served[k] for k, p in zip(chosen, payloads)),
    )
    out.digest = digest(payloads)
    return payloads


def _service_breakdown(done: list[dict], out: Outcome) -> None:
    kinds = {
        "cached": [r for r in done if r["cached"]],
        "joined": [r for r in done if r["joined"]],
        "computed": [r for r in done if not r["cached"] and not r["joined"]],
    }
    for kind, rows in kinds.items():
        out.metrics[f"service.{kind}.count"] = len(rows)
    cached = [r["latency_s"] * 1e3 for r in kinds["cached"]] or [0.0]
    computed = [r["latency_s"] * 1e3 for r in kinds["computed"]] or [0.0]
    out.metrics["service.cached.latency_p50_ms"] = median(cached)
    out.metrics["service.computed.latency_p50_ms"] = median(computed)
    out.metrics["service.computed.latency_p95_ms"] = quantile(computed, 0.95)
    out.metrics["service.reply_bytes"] = median(r["reply_bytes"] for r in done)


def run_service(sizes: ServiceSizes, name: str, seed: int, seconds: float,
                traced: bool, scratch: Path) -> Outcome:
    out = Outcome(name, seed, traced)
    sequence = request_sequence(sizes, seed)
    keys = [request.key() for request in sequence]
    serve = ["--workers", str(sizes.workers), "--port", "0"]
    plain = [sys.executable, "-m", "repro.experiments.cli", "serve"] + serve
    if traced:
        spans_out = scratch / "spans.json"
        shim = [sys.executable, str(HERE / "server_shim.py"),
                "--spans-out", str(spans_out)] + serve
        speed = HostSpeed()
        with speed.sampling():
            _, _, untraced = _service_round(
                sizes, plain, scratch, sequence, keys, seconds / 2, 1, out)
            before = out.attempted
            _, done, traced = _service_round(
                sizes, shim, scratch, sequence, keys, seconds / 2, 1, out)
        untraced_rate = before / speed.scaled(*untraced)
        traced_rate = (out.attempted - before) / speed.scaled(*traced)
        summary = json.loads(spans_out.read_text(encoding="utf-8"))
        # Equal work in equal windows: the overhead is the rate lost.
        add_layers(out, summary, 1.0 / untraced_rate, 1.0 / traced_rate)
        _service_breakdown(done, out)
        payloads = _service_oracle(sizes, sequence, keys, done, out)
        add_modelled(out, [p["stats"] for p in payloads])
        return out
    speed = HostSpeed()
    with speed.sampling():
        setups, done, drive = _service_round(
            sizes, plain, scratch, sequence, keys, seconds, sizes.setups, out)
    computed_refs = sum(r["refs"] for r in done if not r["cached"] and not r["joined"])
    add_timings(out, speed, lambda length: (
        [length(r["sent"], r["done"]) for r in done],
        [length(*region) for region in setups],
        computed_refs, len(done), length(*drive),
    ))
    _service_oracle(sizes, sequence, keys, done, out)
    return out


SERVICE = ServiceSizes()


# ---------------------------------------------------------------------------

#: name -> (runner, default sizes)
WORKLOADS = {
    "engine-gups": (run_engine, ENGINE_GUPS),
    "engine-churn": (run_engine, ENGINE_CHURN),
    "fleet-sharded": (run_fleet, FLEET),
    "service-mix": (run_service, SERVICE),
}


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 scratch: Path, sizes=None) -> Outcome:
    """Run one workload in this process; ``sizes`` overrides its
    defaults (tests)."""
    runner, default = WORKLOADS[name]
    outcome = runner(sizes or default, name, seed, seconds, traced, scratch)
    if not traced:
        outcome.metrics["peak_rss_mb"] = peak_rss_mb()
    return outcome
