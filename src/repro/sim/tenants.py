"""Multi-tenant time-sharing, from a few processes to datacenter fleets.

:func:`run_timeshared` round-robins a handful of processes on one
core; :func:`simulate_fleet` scales the same scheduler to *thousands*
of tenants — the consolidation regime where the paper's per-process
anchor-distance register (§3.1) earns its keep — without ever holding
thousands of traces or TLB replicas in memory.  Three scheduling
policies bracket the design space:

* ``"flush"`` — classic x86 without PCID: every switch-in starts from
  cold TLBs (the paper's native-kernel assumption in §3.3);
* ``"partitioned"`` — an idealised tagged TLB with per-tenant state:
  entries survive switches and tenants never contend for ways;
* ``"tagged"`` — the realistic middle: all tenants share one physical
  TLB hierarchy whose entries carry an ASID/PCID tag
  (:data:`repro.hw.tlb.TAG_SHIFT`).  A tenant's entries survive its
  time slice, but its neighbours' resident entries contend for the
  same sets and ways, and the shared anchor-distance register is
  saved/restored per tenant through a
  :class:`repro.vmos.distance.DistanceRegisterFile` — the §3.1
  context-switch protocol, without flushes.

Memory stays bounded by *wave* scheduling: at most ``active_pool``
tenants are instantiated at a time, each reading its trace through a
one-chunk cursor, so peak RSS is O(active_pool x (chunk + footprint)) —
never O(tenants x trace).  Shared hardware (and the ``previous``
scheduled tenant, for switch accounting) persists across waves, so
residual tagged entries from retired tenants keep polluting the arrays
exactly as dead address spaces do on real silicon, until their ASID is
recycled and shot down.

Anchor schemes under ``"tagged"`` do **not** re-run distance selection
mid-run: each tenant keeps the distance picked from its mapping at
admission, which is precisely the per-process diversity the hybrid
design exists to serve.

A fleet splits into deterministic shards (:func:`shard_assignments`),
each an independent subfleet.  :func:`simulate_fleet` sends every shard
as a ``kind="fleet-shard"`` :class:`~repro.sim.api.SimRequest` to the
:class:`~repro.sim.runner.Orchestrator` — the one pool, retry policy
and result store all requests share — and :func:`simulate_shard` is
what a worker runs for one of them.
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.params import DEFAULT_MACHINE, SCENARIO_ORDER, MachineConfig
from repro.hw.tlb import TAG_BITS
from repro.sim.stats import COUNTER_FIELDS, TranslationStats
from repro.sim.trace import Trace
from repro.sim.trace_store import TraceStore
from repro.util.proc import peak_rss_bytes
from repro.util.rng import spawn_rng
from repro.vmos.distance import DistanceRegisterFile

if TYPE_CHECKING:
    from repro.sim.api import SimRequest

#: Recognised context-switch policies (see module docstring).
POLICIES = ("flush", "partitioned", "tagged")


class _Cursor:
    """Bounded-memory slice server over a stream of trace chunks.

    Wraps an iterator of int64 VPN arrays (typically
    ``TraceSource.iter_chunks``) and serves arbitrary slice lengths out
    of a one-chunk buffer, so short storm slices never force the trace
    to materialize and peak memory stays O(chunk) per tenant.
    """

    __slots__ = ("_chunks", "_buffer", "_offset")

    def __init__(self, chunks: Iterator[np.ndarray]) -> None:
        self._chunks = chunks
        self._buffer = np.empty(0, dtype=np.int64)
        self._offset = 0

    def take(self, n: int) -> np.ndarray:
        """The next ``n`` references (fewer at end-of-stream)."""
        parts: list[np.ndarray] = []
        needed = n
        while needed > 0:
            available = self._buffer.shape[0] - self._offset
            if available == 0:
                nxt = next(self._chunks, None)
                if nxt is None:
                    break
                self._buffer = nxt
                self._offset = 0
                continue
            step = min(available, needed)
            parts.append(self._buffer[self._offset:self._offset + step])
            self._offset += step
            needed -= step
        if not parts:
            return np.empty(0, dtype=np.int64)
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts)


@dataclass
class TenantRun:
    """One schedulable tenant: a scheme bound to its reference stream."""

    name: str
    scheme: Any                   #: a TranslationScheme
    cursor: _Cursor
    workload: str = ""
    scenario: str = ""
    asid: int = 0
    executed: int = 0
    slices: int = 0


@dataclass
class ScheduleCounters:
    """Mutable scheduling tallies, shared across waves."""

    switches: int = 0
    flushes: int = 0
    rounds: int = 0
    storm_rounds: int = 0


def _save_distance(member: TenantRun, registers: DistanceRegisterFile) -> None:
    """Switch-out: save the tenant's anchor-distance register (§3.1),
    if its scheme has a single distance."""
    distance = member.scheme.distance
    if distance is not None:
        registers.save(member.name, distance)


def _activate(
    member: TenantRun, registers: DistanceRegisterFile | None
) -> None:
    """Switch-in under the tagged policy: select the ASID and reload
    the anchor-distance register (§3.1), flushing nothing."""
    scheme = member.scheme
    scheme.set_asid(member.asid)
    if registers is None or scheme.distance is None:
        return
    saved = registers.restore(member.name)
    if saved is not None:
        scheme.restore_distance(saved)


def _check_asid_pool(policy: str, active_pool: int, asid_bits: int) -> None:
    """Under ``tagged``, every live tenant needs an ASID of its own.

    The allocator cycles through ``2**asid_bits - 1`` tags, so a larger
    ``active_pool`` would hand one tag to two live tenants of a wave:
    each would then hit the other's entries, which no real PCID serves.
    """
    if policy == "tagged" and active_pool > (1 << asid_bits) - 1:
        raise ValueError(
            f"active_pool {active_pool} exceeds the {(1 << asid_bits) - 1} "
            f"ASIDs of asid_bits={asid_bits}: live tenants would share a tag")


def _check_schedule(
    quantum: int, policy: str, storm_every: int, storm_quantum: int
) -> None:
    if quantum <= 0:
        raise ValueError("quantum must be positive")
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    if storm_every < 0:
        raise ValueError("storm_every must be >= 0")
    if storm_every > 0 and storm_quantum <= 0:
        raise ValueError("storm_quantum must be positive when storms are on")


def run_schedule(
    members: Iterable[TenantRun],
    *,
    quantum: int,
    policy: str = "flush",
    storm_every: int = 0,
    storm_quantum: int = 0,
    counters: ScheduleCounters | None = None,
    registers: DistanceRegisterFile | None = None,
    previous: TenantRun | None = None,
) -> TenantRun | None:
    """Round-robin ``members`` in ``quantum``-reference time slices.

    A tenant that exhausts its stream is dropped *without* charging a
    switch, a flush, or a scheduling slot — the old scheduler still
    executed the empty slice, moved ``previous`` onto the exhausted
    process, and so silently donated the remainder of the round to it
    (skewing per-process switch/flush attribution).  Exhaustion is
    detected by a short slice, so the accounting drift cannot recur.

    When ``storm_every`` is set, every ``storm_every``-th scheduling
    round is a context-switch *storm* sliced at ``storm_quantum``
    references instead — the knob the flush-vs-tagged sensitivity
    experiment turns.

    Returns the last tenant that actually ran (feed it back in as
    ``previous`` to continue the timeline across waves).
    """
    _check_schedule(quantum, policy, storm_every, storm_quantum)
    if counters is None:
        counters = ScheduleCounters()

    active = list(members)
    while active:
        counters.rounds += 1
        storm = storm_every > 0 and counters.rounds % storm_every == 0
        if storm:
            counters.storm_rounds += 1
        q = storm_quantum if storm else quantum
        for member in list(active):
            block = member.cursor.take(q)
            if block.shape[0] == 0:
                # Exhausted with nothing left to run: drop silently.
                active.remove(member)
                continue
            if previous is not member:
                if previous is not None:
                    counters.switches += 1
                    if registers is not None:
                        _save_distance(previous, registers)
                    if policy == "flush":
                        # The incoming tenant finds the shared TLBs
                        # holding only the other tenant's (now flushed)
                        # entries.
                        member.scheme.flush()
                        counters.flushes += 1
                if policy == "tagged":
                    _activate(member, registers)
            member.scheme.sync_mapping()
            member.scheme.access_block(block)
            member.executed += int(block.shape[0])
            member.slices += 1
            previous = member
            if block.shape[0] < q:
                active.remove(member)
    return previous


@dataclass
class ProcessRun:
    """One time-shared process: a scheme bound to its trace."""

    name: str
    scheme: object                #: a TranslationScheme
    trace: Trace
    position: int = 0

    @property
    def finished(self) -> bool:
        return self.position >= len(self.trace)


@dataclass
class MultiProgramResult:
    """Outcome of a :func:`run_timeshared` run."""

    stats: dict[str, TranslationStats] = field(default_factory=dict)
    switches: int = 0
    flushes: int = 0
    #: Per-process scheduling slices actually executed (non-empty only).
    slices: dict[str, int] = field(default_factory=dict)
    #: Per-process references actually executed.
    executed: dict[str, int] = field(default_factory=dict)

    def total_walks(self) -> int:
        return sum(s.walks for s in self.stats.values())


def run_timeshared(
    runs: list[ProcessRun],
    quantum: int = 5_000,
    flush_on_switch: bool = True,
) -> MultiProgramResult:
    """Round-robin ``ProcessRun``s in ``quantum``-reference time slices.

    ``flush_on_switch=True`` is classic x86 without PCID: the incoming
    process starts every quantum with cold TLBs (§3.3).
    ``flush_on_switch=False`` keeps each process's per-scheme state —
    an ideally partitioned tagged TLB.  Comparing the two shows how much
    of each scheme's benefit survives time slicing: coverage schemes
    refill faster after a flush, because one entry re-covers a window.
    """
    if quantum <= 0:
        raise ValueError("quantum must be positive")
    if not runs:
        raise ValueError("no processes to run")
    names = [r.name for r in runs]
    if len(set(names)) != len(names):
        raise ValueError("process names must be unique")

    members = []
    for run in runs:
        view = run.trace.vpns[run.position:]
        members.append(
            TenantRun(name=run.name, scheme=run.scheme, cursor=_Cursor(iter([view])))
        )
    counters = ScheduleCounters()
    run_schedule(
        members,
        quantum=quantum,
        policy="flush" if flush_on_switch else "partitioned",
        counters=counters,
    )
    result = MultiProgramResult(
        switches=counters.switches, flushes=counters.flushes
    )
    for run, member in zip(runs, members):
        run.position += member.executed
        run.scheme.stats.check_conservation()
        result.stats[run.name] = run.scheme.stats
        result.slices[run.name] = member.slices
        result.executed[run.name] = member.executed
    return result


# ----------------------------------------------------------------------
# Fleet generation and simulation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TenantSpec:
    """One sampled tenant of a fleet."""

    name: str
    workload: str
    scenario: str
    references: int
    seed: int
    mapping_variant: int = 0


@dataclass(frozen=True)
class TenantFleet:
    """A distribution over the workload x scenario matrix.

    ``tenants()`` lazily yields :class:`TenantSpec`s sampled with the
    package's keyed sub-stream RNG, so the same ``(seed, size)`` always
    produces the same fleet regardless of consumption order elsewhere.
    ``mapping_variants`` bounds the number of distinct mappings built
    per (workload, scenario) cell: tenants sharing a variant share the
    *mapping archetype* (and the construction cost), while still
    receiving independent reference streams via per-tenant trace seeds.
    ``trace_variants`` optionally bounds the per-tenant trace seeds to a
    pool of that many values: tenants drawing the same pool entry replay
    byte-identical traces, which is what lets a :class:`TraceStore`
    serve the whole fleet zero-copy from ``workloads x trace_variants``
    mmap-shared files (0 keeps today's one-seed-per-tenant sampling).
    """

    size: int
    workloads: tuple[str, ...]
    scenarios: tuple[str, ...] = SCENARIO_ORDER
    references: int = 10_000
    seed: int | None = None
    mapping_variants: int = 1
    trace_variants: int = 0

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("fleet size must be positive")
        if not self.workloads:
            raise ValueError("fleet needs at least one workload")
        if not self.scenarios:
            raise ValueError("fleet needs at least one scenario")
        if self.references <= 0:
            raise ValueError("references must be positive")
        if self.mapping_variants <= 0:
            raise ValueError("mapping_variants must be positive")
        if self.trace_variants < 0:
            raise ValueError("trace_variants must be >= 0")

    def sample_arrays(self) -> dict[str, np.ndarray]:
        """The fleet's sampled columns, drawn in one vectorised pass.

        The draw order is frozen: perturbing it would re-deal every
        existing fleet.  ``trace_variants`` draws *after* the base
        columns, so bounded-pool fleets extend — never re-deal — the
        unbounded sampling.
        """
        rng = spawn_rng(self.seed, "fleet", self.size)
        w_idx = rng.choice(len(self.workloads), size=self.size)
        s_idx = rng.choice(len(self.scenarios), size=self.size)
        variants = rng.integers(0, self.mapping_variants, size=self.size)
        seeds = rng.integers(0, 2**31 - 1, size=self.size)
        if self.trace_variants:
            pool = rng.integers(0, 2**31 - 1, size=self.trace_variants)
            seeds = pool[rng.integers(0, self.trace_variants, size=self.size)]
        return {
            "workload": w_idx.astype(np.int64),
            "scenario": s_idx.astype(np.int64),
            "variant": variants.astype(np.int64),
            "seed": seeds.astype(np.int64),
        }

    def spec_at(self, index: int, arrays: dict[str, np.ndarray]) -> TenantSpec:
        """The :class:`TenantSpec` at one global fleet index."""
        return TenantSpec(
            name=f"t{index:06d}",
            workload=self.workloads[int(arrays["workload"][index])],
            scenario=self.scenarios[int(arrays["scenario"][index])],
            references=self.references,
            seed=int(arrays["seed"][index]),
            mapping_variant=int(arrays["variant"][index]),
        )

    def specs_for(
        self, indices: Iterable[int],
        arrays: dict[str, np.ndarray] | None = None,
    ) -> Iterator[TenantSpec]:
        """Lazily build the specs at the given global indices."""
        if arrays is None:
            arrays = self.sample_arrays()
        for index in indices:
            yield self.spec_at(int(index), arrays)

    def tenants(self) -> Iterator[TenantSpec]:
        """Lazily sample the fleet's tenants (deterministic)."""
        return self.specs_for(range(self.size))

    def distinct_traces(
        self, arrays: dict[str, np.ndarray] | None = None
    ) -> list[tuple[str, int]]:
        """The distinct ``(workload, seed)`` trace identities, sorted.

        This is what a shared :class:`TraceStore` must hold for the
        whole fleet to read zero-copy; with ``trace_variants`` set it is
        bounded by ``len(workloads) x trace_variants``.
        """
        if arrays is None:
            arrays = self.sample_arrays()
        pairs = np.unique(
            np.stack([arrays["workload"], arrays["seed"]], axis=1), axis=0
        )
        return [(self.workloads[int(w)], int(seed)) for w, seed in pairs]


# ----------------------------------------------------------------------
# Deterministic shard partitioning
# ----------------------------------------------------------------------

#: splitmix64 finaliser constants (Steele et al.) — a stable, process-
#: independent integer hash; the builtin ``hash`` is salted and banned.
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _mix64(values: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finaliser over a uint64 array."""
    x = values.astype(np.uint64) + _GAMMA
    x = (x ^ (x >> np.uint64(30))) * _MIX_1
    x = (x ^ (x >> np.uint64(27))) * _MIX_2
    return x ^ (x >> np.uint64(31))


def shard_assignments(
    fleet: TenantFleet, shards: int,
    arrays: dict[str, np.ndarray] | None = None,
) -> np.ndarray:
    """Shard id per tenant: a stable hash of the tenant's spec.

    The hash mixes every field of the sampled spec (global index,
    trace seed, workload, scenario, mapping variant), so the partition
    is a pure function of the fleet — identical in every process, under
    every worker count, and across runs.  ``shards=1`` maps the whole
    fleet to shard 0.
    """
    if shards <= 0:
        raise ValueError("shards must be positive")
    if arrays is None:
        arrays = fleet.sample_arrays()
    if shards == 1:
        return np.zeros(fleet.size, dtype=np.int64)
    h = _mix64(arrays["variant"].astype(np.uint64))
    h = _mix64(arrays["scenario"].astype(np.uint64) + h)
    h = _mix64(arrays["workload"].astype(np.uint64) + h)
    h = _mix64(arrays["seed"].astype(np.uint64) + h)
    h = _mix64(np.arange(fleet.size, dtype=np.uint64) + h)
    return (h % np.uint64(shards)).astype(np.int64)


class _AsidAllocator:
    """Cycling 1..(2^bits - 1) ASID namespace with shootdown-on-reuse.

    Mirrors the PCID/ASID generation scheme of real kernels: the tag
    space is far smaller than the tenant population, so once the
    namespace wraps, every allocation reuses a tag and must first shoot
    the previous owner's residual entries out of every shared structure
    (``flush_tag``).  That owner has always retired: a wave never holds
    more live tenants than there are tags (:func:`_check_asid_pool`).
    Tag 0 is reserved for untagged operation.
    """

    def __init__(self, structures: Iterable[Any], bits: int = TAG_BITS) -> None:
        if not 1 <= bits <= TAG_BITS:
            raise ValueError(f"asid bits must be in [1, {TAG_BITS}]")
        self._limit = (1 << bits) - 1
        self._next = 1
        self._cycle = 0
        self._structures = list(structures)
        self.recycles = 0

    def allocate(self) -> int:
        asid = self._next
        if self._cycle:
            self.recycles += 1
            for structure in self._structures:
                structure.flush_tag(asid)
        if self._next == self._limit:
            self._next = 1
            self._cycle += 1
        else:
            self._next += 1
        return asid


@dataclass
class FleetResult:
    """Outcome of a fleet run (JSON-safe via :meth:`to_dict`).

    ``to_dict`` is the byte-identity surface of the sharded engine: it
    must be a pure function of (fleet, scheme, knobs, shard count), so
    process-dependent telemetry — ``peak_rss_bytes`` — stays on the
    dataclass but out of the payload.
    """

    tenants: int
    scheme: str
    policy: str
    executed: int
    stats: TranslationStats
    switches: int = 0
    flushes: int = 0
    rounds: int = 0
    storm_rounds: int = 0
    waves: int = 0
    asid_recycles: int = 0
    distance_saves: int = 0
    distance_restores: int = 0
    groups: dict[str, dict[str, int]] = field(default_factory=dict)
    registers: dict[str, int] = field(default_factory=dict)
    per_tenant: list[dict[str, Any]] | None = None
    peak_rss_bytes: int = 0
    shards: int = 1
    #: Wall-seconds per engine phase (mapping build, scheme
    #: construction, kernel, merge), summed across shards.  Process-
    #: dependent telemetry like ``peak_rss_bytes``: kept off the
    #: byte-identity payload of :meth:`to_dict`.
    phase_seconds: dict[str, float] = field(default_factory=dict)

    def total_walks(self) -> int:
        return self.stats.walks

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "tenants": self.tenants,
            "scheme": self.scheme,
            "policy": self.policy,
            "executed": self.executed,
            "stats": self.stats.to_dict(),
            "switches": self.switches,
            "flushes": self.flushes,
            "rounds": self.rounds,
            "storm_rounds": self.storm_rounds,
            "waves": self.waves,
            "asid_recycles": self.asid_recycles,
            "distance_saves": self.distance_saves,
            "distance_restores": self.distance_restores,
            "groups": {k: dict(v) for k, v in sorted(self.groups.items())},
            "registers": {k: self.registers[k] for k in sorted(self.registers)},
            "shards": self.shards,
        }
        if self.per_tenant is not None:
            payload["per_tenant"] = self.per_tenant
        return payload


#: Fleets of at most this many tenants keep per-tenant rows and the
#: distance-register dump in their result; larger ones keep totals only.
DETAIL_LIMIT = 64


@dataclass
class _ShardOutcome:
    """One shard's result: the payload of a ``kind="fleet-shard"`` request."""

    shard: int
    tenants: int
    executed: int
    stats: dict[str, int]
    switches: int
    flushes: int
    rounds: int
    storm_rounds: int
    waves: int
    asid_recycles: int
    distance_saves: int
    distance_restores: int
    groups: dict[str, dict[str, int]]
    registers: dict[str, int]
    per_tenant: list[dict[str, Any]] | None
    peak_rss_bytes: int
    phase_seconds: dict[str, float]

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> _ShardOutcome:
        return cls(**data)


def simulate_shard(
    request: SimRequest, trace_store: TraceStore | None
) -> dict[str, Any]:
    """Run one ``kind="fleet-shard"`` request: the wave scheduler, scoped
    to one shard's subfleet.

    The shard owns a private shared hierarchy, ASID namespace,
    distance-register file, and storm schedule, so its outcome depends
    only on *its* member sequence — never on sibling shards or the
    process it ran in.  ``trace_store``, when given, serves the
    tenants' traces zero-copy.
    """
    # Deferred: the scheme registry imports every scheme module, and
    # workloads/scenarios pull the pattern generators — none of which
    # this module needs at import time.
    from repro.schemes.registry import make_scheme
    from repro.sim.api import fleet_for
    from repro.sim.workloads import get_workload
    from repro.vmos.scenarios import build_mapping

    tenancy = request.tenancy
    assert tenancy is not None and tenancy.shard is not None
    _check_asid_pool(tenancy.policy, tenancy.active_pool, tenancy.asid_bits)
    fleet = fleet_for(request)
    scheme = request.scheme
    machine = request.machine
    policy = tenancy.policy
    keep_details = fleet.size <= DETAIL_LIMIT

    counters = ScheduleCounters()
    registers = DistanceRegisterFile()
    total = TranslationStats(latency=machine.latency)
    groups: dict[str, dict[str, int]] = {}
    per_tenant: list[dict[str, Any]] | None = [] if keep_details else None

    mappings: dict[tuple[str, str, int], Any] = {}
    prototypes: dict[tuple[str, str, int], Any] = {}
    shared: dict[str, Any] | None = None
    allocator: _AsidAllocator | None = None
    chunk = max(tenancy.quantum, tenancy.storm_quantum, 1024)
    phases = {"mapping": 0.0, "scheme": 0.0, "kernel": 0.0}

    arrays = fleet.sample_arrays()
    assignment = shard_assignments(fleet, tenancy.shards, arrays)
    members_of_shard = np.flatnonzero(assignment == tenancy.shard)

    def mapping_for(spec: TenantSpec) -> Any:
        key = (spec.workload, spec.scenario, spec.mapping_variant)
        mapping = mappings.get(key)
        if mapping is None:
            start = time.perf_counter()
            mseed = int(
                spawn_rng(fleet.seed, "fleet-mapping", spec.workload,
                          spec.scenario, spec.mapping_variant)
                .integers(0, 2**31 - 1)
            )
            mapping = build_mapping(
                get_workload(spec.workload).vmas(), spec.scenario, seed=mseed
            )
            mappings[key] = mapping
            phases["mapping"] += time.perf_counter() - start
        return mapping

    def scheme_for(spec: TenantSpec) -> Any:
        """A per-tenant scheme instance via the prototype-clone path.

        ``make_scheme`` rebuilds every mapping-derived structure (anchor
        directories, promotion maps, range tables) from scratch; those
        depend only on the mapping key, so one *prototype* per key pays
        that cost and every tenant receives a ``clone_fresh()`` — fresh
        per-tenant hardware and stats over the shared read-only plan.
        The prototype itself is never handed out: tenants mutate their
        stats and (under ``tagged``) have their hardware rebound to the
        shared hierarchy, and the prototype must stay pristine.
        """
        key = (spec.workload, spec.scenario, spec.mapping_variant)
        proto = prototypes.get(key)
        if proto is None:
            mapping = mapping_for(spec)  # timed under the mapping phase
            start = time.perf_counter()
            proto = make_scheme(scheme, mapping, machine)
            prototypes[key] = proto
        else:
            start = time.perf_counter()
        instance = proto.clone_fresh()
        phases["scheme"] += time.perf_counter() - start
        return instance

    def cursor_for(spec: TenantSpec) -> _Cursor:
        """The tenant's reference stream: mmap-shared when stored.

        A store hit serves the whole trace as one read-only mmap
        buffer — every slice the cursor hands out is a view into the
        shared page cache, so concurrent shards replaying the same
        trace key cost one copy of the bytes machine-wide.  A miss
        falls back to streaming generation (bit-identical by the
        chunk-invariance contract).
        """
        if trace_store is not None:
            stored = trace_store.get(
                TraceStore.key(spec.workload, spec.references, spec.seed)
            )
            if stored is not None:
                return _Cursor(iter([stored.vpns]))
        source = get_workload(spec.workload).trace_source(
            spec.references, seed=spec.seed
        )
        return _Cursor(source.iter_chunks(chunk))

    def bind_shared(s: Any) -> None:
        """Point this tenant's scheme at the one physical hierarchy: the
        first tenant's (fresh, empty) structures become everyone's."""
        nonlocal shared, allocator
        if shared is None:
            shared = s.structures()
            allocator = _AsidAllocator(shared.values(), bits=tenancy.asid_bits)
        for name, structure in s.structures().items():
            setattr(s, name, structure.attach(shared[name]))

    previous: TenantRun | None = None
    waves = 0
    executed_total = 0
    pending = fleet.specs_for(members_of_shard, arrays)
    while True:
        batch = list(itertools.islice(pending, tenancy.active_pool))
        if not batch:
            break
        waves += 1
        members: list[TenantRun] = []
        for spec in batch:
            scheme_obj = scheme_for(spec)
            member = TenantRun(
                name=spec.name,
                scheme=scheme_obj,
                cursor=cursor_for(spec),
                workload=spec.workload,
                scenario=spec.scenario,
            )
            if policy == "tagged":
                bind_shared(scheme_obj)
                assert allocator is not None
                member.asid = allocator.allocate()
                _save_distance(member, registers)
            members.append(member)
        kernel_start = time.perf_counter()
        previous = run_schedule(
            members,
            quantum=tenancy.quantum,
            policy=policy,
            storm_every=tenancy.storm_every,
            storm_quantum=tenancy.storm_quantum,
            counters=counters,
            registers=registers,
            previous=previous,
        )
        phases["kernel"] += time.perf_counter() - kernel_start
        for member in members:
            member.scheme.stats.check_conservation()
            total.accumulate(member.scheme.stats)
            snap = member.scheme.stats.snapshot()
            group_key = f"{member.workload}/{member.scenario}"
            group = groups.setdefault(
                group_key, {"tenants": 0, **{f: 0 for f in COUNTER_FIELDS}}
            )
            group["tenants"] += 1
            for counter in COUNTER_FIELDS:
                group[counter] += snap[counter]
            executed_total += member.executed
            if per_tenant is not None:
                per_tenant.append({
                    "name": member.name,
                    "workload": member.workload,
                    "scenario": member.scenario,
                    "asid": member.asid,
                    "slices": member.slices,
                    "executed": member.executed,
                    **snap,
                })
        # The wave's schemes die here; only `previous` (one scheme) and
        # the shared hardware survive into the next wave.

    return _ShardOutcome(
        shard=tenancy.shard,
        tenants=int(members_of_shard.shape[0]),
        executed=executed_total,
        stats=total.snapshot(),
        switches=counters.switches,
        flushes=counters.flushes,
        rounds=counters.rounds,
        storm_rounds=counters.storm_rounds,
        waves=waves,
        asid_recycles=allocator.recycles if allocator is not None else 0,
        distance_saves=registers.saves,
        distance_restores=registers.restores,
        groups=groups,
        registers=registers.to_dict() if keep_details else {},
        per_tenant=per_tenant,
        peak_rss_bytes=peak_rss_bytes(),
        phase_seconds=phases,
    ).to_dict()


def _merge_shards(
    fleet: TenantFleet,
    scheme: str,
    machine: MachineConfig,
    policy: str,
    shards: int,
    outcomes: list[_ShardOutcome],
) -> FleetResult:
    """Fold per-shard outcomes into one :class:`FleetResult`.

    Outcomes are folded in shard-index order regardless of completion
    order, so the merge — like the shards themselves — is independent
    of worker count and scheduling jitter.  Counters sum; the RSS
    high-water mark is the max over shard processes; per-tenant rows
    re-sort into global fleet order (``t%06d`` names sort naturally).
    """
    total = TranslationStats(latency=machine.latency)
    groups: dict[str, dict[str, int]] = {}
    registers: dict[str, int] = {}
    per_tenant: list[dict[str, Any]] | None = (
        [] if fleet.size <= DETAIL_LIMIT else None
    )
    merged = FleetResult(
        tenants=fleet.size, scheme=scheme, policy=policy,
        executed=0, stats=total, shards=shards,
    )
    for outcome in sorted(outcomes, key=lambda o: o.shard):
        total.bulk_update(**outcome.stats)
        merged.executed += outcome.executed
        merged.switches += outcome.switches
        merged.flushes += outcome.flushes
        merged.rounds += outcome.rounds
        merged.storm_rounds += outcome.storm_rounds
        merged.waves += outcome.waves
        merged.asid_recycles += outcome.asid_recycles
        merged.distance_saves += outcome.distance_saves
        merged.distance_restores += outcome.distance_restores
        merged.peak_rss_bytes = max(
            merged.peak_rss_bytes, outcome.peak_rss_bytes
        )
        for phase, seconds in outcome.phase_seconds.items():
            merged.phase_seconds[phase] = (
                merged.phase_seconds.get(phase, 0.0) + seconds
            )
        for key, fields in outcome.groups.items():
            group = groups.setdefault(
                key, {"tenants": 0, **{f: 0 for f in COUNTER_FIELDS}}
            )
            for name, value in fields.items():
                group[name] = group.get(name, 0) + value
        registers.update(outcome.registers)
        if per_tenant is not None and outcome.per_tenant is not None:
            per_tenant.extend(outcome.per_tenant)
    if per_tenant is not None:
        per_tenant.sort(key=lambda row: row["name"])
    merged.groups = groups
    merged.registers = registers
    merged.per_tenant = per_tenant
    return merged


def prepare_fleet_traces(
    fleet: TenantFleet, store: TraceStore
) -> int:
    """Pre-generate the fleet's distinct traces into ``store``.

    Call this in the parent before dispatching shards: each distinct
    ``(workload, seed)`` pair streams to disk exactly once (PR 4
    contract), and every shard — serial or pooled — then mmaps the
    shared bytes instead of regenerating.  Returns how many traces this
    call actually generated.
    """
    from repro.sim.workloads import get_workload

    created = 0
    for workload, seed in fleet.distinct_traces():
        key = TraceStore.key(workload, fleet.references, seed)
        if key in store:
            continue
        store.get_or_create(
            key,
            lambda w=workload, s=seed: get_workload(w).trace_source(
                fleet.references, seed=s
            ),
        )
        created += 1
    return created


def simulate_fleet(
    fleet: TenantFleet,
    scheme: str = "base",
    machine: MachineConfig = DEFAULT_MACHINE,
    *,
    policy: str = "tagged",
    quantum: int = 2_000,
    active_pool: int = 8,
    storm_every: int = 0,
    storm_quantum: int = 0,
    asid_bits: int = TAG_BITS,
    shards: int = 1,
    workers: int = 0,
    trace_store: TraceStore | str | None = None,
    result_store: Any | None = None,
) -> FleetResult:
    """Time-share a whole :class:`TenantFleet`, shard by shard.

    The fleet is first deterministically partitioned by
    :func:`shard_assignments`; each shard is an independent subfleet —
    its own wave schedule, shared tagged hierarchy, ASID namespace,
    distance-register file, and storm cadence — sent as one
    ``kind="fleet-shard"`` :class:`~repro.sim.api.SimRequest` to an
    :class:`~repro.sim.runner.Orchestrator`: in-process when
    ``workers=0`` or ``shards=1``, else on a pool of
    ``min(workers, shards)`` processes with the orchestrator's retries
    and dead-worker recovery.  Outcomes merge order-independently, so
    every worker count produces byte-identical
    :meth:`FleetResult.to_dict` payloads at any shard count;
    ``shards=1, workers=0`` is exactly the single-core wave scheduler.

    ``trace_store`` (a :class:`TraceStore` or its root path) serves the
    traces of a fleet with ``trace_variants`` zero-copy via mmap; the
    orchestrator pre-generates them in this process first.
    ``result_store`` (a :class:`repro.sim.runner.ResultStore`) caches
    each shard's outcome under its request key, making re-runs and
    resumed million-tenant passes ~free.  Bad knobs raise
    ``ValueError`` before any shard runs; a shard that fails all its
    attempts raises :class:`~repro.errors.OrchestrationError`.
    """
    from repro.errors import OrchestrationError
    from repro.schemes.registry import make_scheme
    from repro.sim.api import SimRequest, TenancyConfig
    from repro.sim.runner import Orchestrator
    from repro.vmos.mapping import MemoryMapping

    _check_schedule(quantum, policy, storm_every, storm_quantum)
    if active_pool <= 0:
        raise ValueError("active_pool must be positive")
    if shards <= 0:
        raise ValueError("shards must be positive")
    if workers < 0:
        raise ValueError("workers must be >= 0")
    # Built on an empty mapping (well under a millisecond), the scheme
    # rejects an unknown name here rather than inside every shard.
    make_scheme(scheme, MemoryMapping(), machine)
    if policy == "tagged":
        _AsidAllocator([], bits=asid_bits)  # rejects out-of-range bits
    _check_asid_pool(policy, active_pool, asid_bits)

    tenancy = TenancyConfig(
        tenants=fleet.size, policy=policy, quantum=quantum,
        active_pool=active_pool, storm_every=storm_every,
        storm_quantum=storm_quantum, mapping_variants=fleet.mapping_variants,
        asid_bits=asid_bits, workloads=tuple(fleet.workloads),
        scenarios=tuple(fleet.scenarios), shards=shards,
        trace_variants=fleet.trace_variants,
    )
    requests = [
        SimRequest(
            workload=fleet.workloads[0], scenario=fleet.scenarios[0],
            scheme=scheme, references=fleet.references, seed=fleet.seed,
            machine=machine, kind="fleet-shard",
            tenancy=replace(tenancy, shard=shard),
        )
        for shard in range(shards)
    ]
    orchestrator = Orchestrator(
        workers=min(workers, shards) if shards > 1 else 0,
        store=result_store, trace_store=trace_store,
    )
    payloads, summary = orchestrator.run(requests)
    if summary.failures:
        failure = summary.failures[0]
        raise OrchestrationError(
            f"{failure.label} failed after {failure.attempts} attempts: "
            f"{failure.error}")

    merge_start = time.perf_counter()
    result = _merge_shards(
        fleet, scheme, machine, policy, shards,
        [_ShardOutcome.from_dict(payloads[r.key()]) for r in requests],
    )
    result.phase_seconds["merge"] = time.perf_counter() - merge_start
    return result
