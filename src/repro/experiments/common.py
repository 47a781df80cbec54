"""Shared experiment machinery: the (workload x scenario x scheme) matrix.

Everything the figure drivers need: the matrix runner, baseline
normalisation, and the static-ideal search wired in as a pseudo-scheme.

Every cell is a content-addressed :class:`~repro.sim.api.SimRequest`,
and :class:`MatrixRunner` resolves each one — a simulation or an
anchor-distance selection — through its one
:class:`~repro.sim.runner.Orchestrator` and
:func:`~repro.sim.api.execute_request`.  Cells can be prefetched in
parallel across worker processes, completed cells persist in a
:class:`~repro.sim.runner.ResultStore`, and a cell whose job crashes
lands in a failure ledger and renders as a gap instead of killing the
report.  Mappings and traces are deterministic in the seed, so every
scheme sees the identical mapping and trace; in-process cells share
them through the orchestrator's memo.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import CellFailedError
from repro.params import DEFAULT_MACHINE, MachineConfig
from repro.sim.api import DISTANCE_SELECT, SimRequest
from repro.sim.engine import DEFAULT_EPOCH_REFERENCES, SimulationResult
from repro.sim.runner import (
    STATIC_IDEAL,
    JobFailure,
    Orchestrator,
    ResultStore,
    RunSummary,
)
from repro.sim.workloads import WORKLOAD_ORDER
from repro.schemes.registry import SCHEME_ORDER

#: Default trace length for experiment reports.  Large enough that the
#: TLB reaches steady state (compulsory misses < 10% of events for every
#: workload) while keeping the 14x6x7 matrix tractable in pure Python.
DEFAULT_REFERENCES = 100_000

Cell = tuple[str, str, str]


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiments."""

    references: int = DEFAULT_REFERENCES
    seed: int | None = None
    machine: MachineConfig = field(default_factory=lambda: DEFAULT_MACHINE)
    epoch_references: int = DEFAULT_EPOCH_REFERENCES
    #: Subsample step for the static-ideal search phase.
    ideal_subsample: int = 4


class MatrixRunner:
    """Runs and caches cells of the experiment matrix.

    Every cell goes through one :class:`Orchestrator`, kept for the
    runner's lifetime.  ``workers=0`` (the default) computes cells
    in-process, sharing mappings and traces through the orchestrator's
    memo; ``workers=N`` fans cache misses out to ``N`` worker processes.
    A job that raises is retried ``retries`` times, then ledgered and
    served as a gap.  With a ``store`` (or ``cache_dir``), completed
    cells persist as content-addressed JSON and later runs — including
    runs of *other* experiments sharing cells — skip them.  A
    ``cache_dir`` also implies a :class:`~repro.sim.trace_store.TraceStore`
    under ``<cache_dir>/traces``: each distinct (workload, references,
    seed) trace is generated once, persisted, and memory-mapped by every
    scheme, worker, and later run that needs it.
    """

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        *,
        workers: int = 0,
        store: ResultStore | None = None,
        cache_dir: str | Path | None = None,
        retries: int = 1,
        progress: Callable[[str], None] | None = None,
    ) -> None:
        self.config = config or ExperimentConfig()
        if store is None and cache_dir is not None:
            store = ResultStore(cache_dir)
        # Traces share the result cache's directory so one
        # ``--cache-dir`` flag persists both; the ``traces/`` subtree
        # never collides with result shards (keys shard into
        # two-hex-character directories).
        self.orchestrator = Orchestrator(
            workers=workers,
            store=store,
            trace_store=None if cache_dir is None else Path(cache_dir) / "traces",
            retries=retries,
            progress=progress,
        )
        #: One entry per orchestrator run that actually ran jobs.
        self.summaries: list[RunSummary] = []
        self._results: dict[Cell, SimulationResult] = {}
        self._distances: dict[tuple[str, str], int] = {}
        self._failures: dict[Hashable, JobFailure] = {}

    # ------------------------------------------------------------------
    # Specs
    # ------------------------------------------------------------------

    def spec(
        self, workload: str, scenario: str, scheme: str, kind: str = "simulate"
    ) -> SimRequest:
        """The content-addressed job description of one cell."""
        return SimRequest(
            workload=workload,
            scenario=scenario,
            scheme=scheme,
            references=self.config.references,
            seed=self.config.seed,
            epoch_references=self.config.epoch_references,
            ideal_subsample=self.config.ideal_subsample,
            machine=self.config.machine,
            kind=kind,
        )

    # ------------------------------------------------------------------
    # Resolution: every cell goes through the orchestrator
    # ------------------------------------------------------------------

    def _resolve(
        self,
        specs: dict[Hashable, SimRequest],
        into: dict,
        decode: Callable[[dict], object],
    ) -> RunSummary | None:
        """Run the specs not yet resolved; file payloads or failures.

        Returns the run summary, or ``None`` when nothing was pending.
        """
        pending = {
            name: spec for name, spec in specs.items()
            if name not in into and name not in self._failures
        }
        if not pending:
            return None
        results, summary = self.orchestrator.run(list(pending.values()))
        by_key = {failure.key: failure for failure in summary.failures}
        for name, spec in pending.items():
            payload = results.get(spec.key())
            if payload is not None:
                into[name] = decode(payload)
            elif spec.key() in by_key:
                self._failures[name] = by_key[spec.key()]
        self.summaries.append(summary)
        return summary

    def _get(self, name: Hashable, into: dict):
        """The resolved value of ``name``; raises if it is ledgered."""
        if name in into:
            return into[name]
        failure = self._failures[name]
        raise CellFailedError(
            f"cell {failure.label} failed after {failure.attempts} "
            f"attempts: {failure.error}"
        )

    def prefetch(
        self,
        workloads: Iterable[str],
        scenarios: Iterable[str],
        schemes: Iterable[str],
    ) -> RunSummary | None:
        """Resolve every (workload, scenario, scheme) cell up front.

        Cache misses run through the orchestrator — in parallel when
        ``workers > 0`` — and land in the in-memory result cache, so the
        drivers' row loops afterwards never simulate.  Failed cells go
        to the failure ledger and are served as gaps.  Returns the run
        summary, or ``None`` when every cell was already resolved.
        """
        specs: dict[Hashable, SimRequest] = {
            (w, s, k): self.spec(w, s, k)
            for w in workloads for s in scenarios for k in schemes
        }
        return self._resolve(specs, self._results, SimulationResult.from_dict)

    def prefetch_distances(
        self, workloads: Iterable[str], scenarios: Iterable[str]
    ) -> RunSummary | None:
        """Resolve Algorithm 1's distance selection per (workload, scenario)."""
        specs: dict[Hashable, SimRequest] = {
            (w, s): self.spec(w, s, DISTANCE_SELECT, kind="distances")
            for w in workloads for s in scenarios
        }
        return self._resolve(
            specs, self._distances, lambda payload: int(payload["distance"]))

    def run(self, workload: str, scenario: str, scheme: str) -> SimulationResult:
        """Simulate one cell (cached; raises if the cell is ledgered)."""
        self.prefetch((workload,), (scenario,), (scheme,))
        return self._get((workload, scenario, scheme), self._results)

    def maybe_run(
        self, workload: str, scenario: str, scheme: str
    ) -> SimulationResult | None:
        """Like :meth:`run`, but a failed cell yields ``None`` (a gap)."""
        try:
            return self.run(workload, scenario, scheme)
        except CellFailedError:
            return None

    def selected_distance(self, workload: str, scenario: str) -> int:
        """The Algorithm 1 distance for one mapping (cached)."""
        self.prefetch_distances((workload,), (scenario,))
        return self._get((workload, scenario), self._distances)

    # ------------------------------------------------------------------
    # Report helpers
    # ------------------------------------------------------------------

    def relative_misses(self, workload: str, scenario: str, scheme: str) -> float:
        """L2 misses of a cell as % of the 4 KiB baseline cell."""
        baseline = self.run(workload, scenario, "base")
        return self.run(workload, scenario, scheme).relative_misses(baseline)

    def maybe_relative_misses(
        self, workload: str, scenario: str, scheme: str
    ) -> float | None:
        """Relative misses, or ``None`` when either cell is a gap."""
        try:
            return self.relative_misses(workload, scenario, scheme)
        except CellFailedError:
            return None

    def scenario_rows(
        self,
        scenario: str,
        schemes: tuple[str, ...],
        workloads: tuple[str, ...] = WORKLOAD_ORDER,
    ) -> list[list[object]]:
        """Per-workload relative-miss rows (Figs. 7/8 shape), plus a mean.

        Failed cells appear as ``None`` (rendered "-") and are excluded
        from that scheme's mean.
        """
        self.prefetch(workloads, (scenario,), dict.fromkeys(schemes + ("base",)))
        rows: list[list[object]] = []
        sums = [0.0] * len(schemes)
        counts = [0] * len(schemes)
        for workload in workloads:
            row: list[object] = [workload]
            for i, scheme in enumerate(schemes):
                value = self.maybe_relative_misses(workload, scenario, scheme)
                if value is not None:
                    sums[i] += value
                    counts[i] += 1
                row.append(value)
            rows.append(row)
        rows.append(
            ["mean"]
            + [s / c if c else None for s, c in zip(sums, counts)]
        )
        return rows


def figure_schemes(include_ideal: bool = True) -> tuple[str, ...]:
    """The scheme columns of Figs. 7-9."""
    if include_ideal:
        return SCHEME_ORDER + (STATIC_IDEAL,)
    return SCHEME_ORDER
