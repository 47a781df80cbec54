"""The trace-driven simulation engine.

Drives a trace through a scheme in *epochs*, mirroring the paper's
methodology: the OS re-evaluates the anchor distance every epoch (one
billion instructions in the paper; a configurable reference count
here).  The engine also exposes an ``on_epoch`` hook so experiments can
mutate the mapping mid-run (allocation churn) and measure how the
dynamic selection reacts.

Each epoch is handed to the scheme as one block
(``scheme.access_block``), so schemes with vectorised fast paths
resolve it at numpy speed; ``engine="scalar"`` forces the per-reference
loop, which the parity suite uses as the bit-identical reference.
Schemes participating in the epoch-boundary re-planning declare it via
``supports_reselection`` (the :class:`repro.schemes.base.OSManagedScheme`
protocol) instead of being probed by ``getattr``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.sim.stats import TranslationStats, canonical_json
from repro.sim.trace import Trace, TraceSource

#: Default epoch length in memory references.  The paper re-evaluates
#: every 10^9 instructions out of 12x10^9; we keep the same 1/12 of the
#: run granularity relative to typical trace lengths.
DEFAULT_EPOCH_REFERENCES = 50_000


@dataclass
class SimulationResult:
    """Everything one scheme-on-trace run produced."""

    scheme: str
    workload: str
    stats: TranslationStats
    instructions: int
    anchor_distance: int | None = None
    distance_changes: int = 0
    epochs: int = 1
    #: Cumulative counter snapshots taken at the end of every epoch
    #: (``stats.snapshot()`` dicts); the last one equals the final stats.
    epoch_stats: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @property
    def miss_ratio(self) -> float:
        return self.stats.miss_ratio()

    @property
    def translation_cpi(self) -> float:
        return self.stats.translation_cpi(self.instructions)

    def relative_misses(self, baseline: "SimulationResult") -> float:
        """This run's L2 misses as a percentage of the baseline's."""
        if baseline.stats.walks == 0:
            return 0.0 if self.stats.walks == 0 else float("inf")
        return 100.0 * self.stats.walks / baseline.stats.walks

    # ------------------------------------------------------------------
    # Serialisation (JSON emission from benchmarks and the CLI)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Round-trippable dict form (see :meth:`from_dict`).

        ``extras`` is carried verbatim; callers that want JSON must put
        only JSON-safe values there.
        """
        return {
            "scheme": self.scheme,
            "workload": self.workload,
            "stats": self.stats.to_dict(),
            "instructions": self.instructions,
            "anchor_distance": self.anchor_distance,
            "distance_changes": self.distance_changes,
            "epochs": self.epochs,
            "epoch_stats": [dict(s) for s in self.epoch_stats],
            "extras": dict(self.extras),
        }

    def to_json(self) -> str:
        """Canonical JSON of :meth:`to_dict` — the byte form compared by
        the determinism parity tests and stored by the result cache."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, payload: dict) -> "SimulationResult":
        return cls(
            scheme=payload["scheme"],
            workload=payload["workload"],
            stats=TranslationStats.from_dict(payload["stats"]),
            instructions=payload["instructions"],
            anchor_distance=payload.get("anchor_distance"),
            distance_changes=payload.get("distance_changes", 0),
            epochs=payload.get("epochs", 1),
            epoch_stats=[dict(s) for s in payload.get("epoch_stats", [])],
            extras=dict(payload.get("extras", {})),
        )


def run_trace(
    scheme,
    trace: Trace | TraceSource,
    epoch_references: int | None = DEFAULT_EPOCH_REFERENCES,
    on_epoch: Callable[[int, object], None] | None = None,
    engine: str = "batched",
) -> SimulationResult:
    """Run ``trace`` through ``scheme``, epoch by epoch.

    ``trace`` may be an eager :class:`Trace` or any
    :class:`~repro.sim.trace.TraceSource`: the engine pulls one epoch's
    block at a time through ``iter_chunks``, so a streaming source is
    simulated with peak memory O(epoch), not O(trace), and — chunking
    being invisible by the source contract — with results bit-identical
    to the materialized trace.

    ``engine`` selects how each epoch's block is resolved:
    ``"batched"`` (default) calls ``scheme.access_block`` — the
    vectorised fast path where the scheme has one — while ``"scalar"``
    forces the per-reference ``access`` loop.  Both produce
    bit-identical :class:`TranslationStats`.
    """
    total = trace.references
    if epoch_references is None or epoch_references >= total:
        epoch_references = max(total, 1)
    if epoch_references <= 0:
        raise ValueError("epoch_references must be positive")

    if engine == "batched":
        step = scheme.access_block
    elif engine == "scalar":
        def step(block) -> None:
            access = scheme.access
            for vpn in block.tolist():
                access(vpn)
    else:
        raise ValueError(f"unknown engine {engine!r} (batched or scalar)")

    epochs = 0
    changes = 0
    position = 0
    epoch_stats: list[dict] = []
    for block in trace.iter_chunks(epoch_references):
        # Adopt any mapping mutations (on_epoch hooks, compaction)
        # before the block runs — same point under both engines, so
        # scalar and batched stay bit-identical.
        scheme.sync_mapping()
        step(block)
        position += len(block)
        epochs += 1
        epoch_stats.append(scheme.stats.snapshot())
        if position < total:
            # Epoch boundary: the OS re-checks the anchor distance on
            # schemes that declare the OSManagedScheme protocol.
            if scheme.supports_reselection:
                _, changed = scheme.reselect_distance()
                if changed:
                    changes += 1
            if on_epoch is not None:
                on_epoch(epochs, scheme)

    scheme.stats.check_conservation()
    return SimulationResult(
        scheme=scheme.name,
        workload=trace.name,
        stats=scheme.stats,
        instructions=trace.instructions,
        anchor_distance=scheme.distance,
        distance_changes=changes,
        epochs=epochs,
        epoch_stats=epoch_stats,
    )

