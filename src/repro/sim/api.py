"""The unified simulation API: ``SimRequest`` in, ``SimReply`` out.

Every request-level entry point — the orchestrated matrix, the
service, the CLI — normalises to one frozen, declarative
:class:`SimRequest`:

* ``kind="simulate"`` — one (workload, scenario, scheme) cell;
* ``kind="distances"`` — the Algorithm 1 distance selection for a
  mapping (no simulation);
* ``kind="fleet"`` — a multi-tenant consolidation run
  (:mod:`repro.sim.tenants`), parameterised by :class:`TenancyConfig`;
* ``kind="fleet-shard"`` — one shard of such a run (``tenancy.shard``):
  the unit :func:`~repro.sim.tenants.simulate_fleet` hands to the
  orchestrator, so shards share its pool, retries and result store.

``SimRequest.key()`` is a SHA-256 over the canonical JSON of the
fields that determine the result — and nothing else — so equal
requests always collide, any field perturbation changes the key, and
the key is byte-for-byte identical however the request is executed
(in-process, on the orchestrator's pool, or through the service).  The
newer field ``tenancy`` enters the hashed description only when set,
so every key minted before it existed remains valid: existing result
caches carry over unchanged.

:func:`execute_request` is the one picklable entry point; the
orchestrator's workers and the service's process pool both call it.
:func:`simulate_request` wraps the payload in a :class:`SimReply`.

This module sits *below* :mod:`repro.sim.runner` (which re-exports the
digest helpers for compatibility): it imports only the engine-side
leaf modules at import time and defers everything else into
:func:`execute_request`.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Any

from repro.errors import OrchestrationError
from repro.hw.tlb import TAG_BITS
from repro.params import (
    DEFAULT_MACHINE,
    LatencyModel,
    MachineConfig,
    TLBGeometry,
)
from repro.sim.engine import DEFAULT_EPOCH_REFERENCES
from repro.sim.stats import canonical_json

__all__ = [
    "CACHE_FORMAT",
    "FLEET_KINDS",
    "STATIC_IDEAL",
    "DISTANCE_SELECT",
    "SimRequest",
    "TenancyConfig",
    "SimReply",
    "digest_payload",
    "machine_digest",
    "execute_request",
    "simulate_request",
]

#: Pseudo-scheme resolved by the exhaustive fixed-distance search
#: (:func:`repro.sim.sweep.static_ideal`) instead of ``make_scheme``.
STATIC_IDEAL = "anchor-ideal"

#: Scheme slot used by ``kind="distances"`` requests (Table 6 needs the
#: Algorithm 1 selection per mapping, not a simulation).
DISTANCE_SELECT = "-"

#: The request kinds parameterised by a :class:`TenancyConfig`.
FLEET_KINDS = ("fleet", "fleet-shard")

#: Bump to invalidate every existing cache entry on a format change.
#: 2: trace generation moved to the chunk-invariant streaming pipeline
#: (per-component child RNG streams), which changed trace bytes for
#: mixture/zipf/gaussian workloads.
CACHE_FORMAT = 2


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------


def digest_payload(payload: object) -> str:
    """SHA-256 of the canonical JSON of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def machine_digest(machine: MachineConfig) -> str:
    """Content digest of a hardware configuration."""
    return digest_payload(dataclasses.asdict(machine))


def _machine_from_dict(data: dict) -> MachineConfig:
    return MachineConfig(
        l1_4k=TLBGeometry(**data["l1_4k"]),
        l1_2m=TLBGeometry(**data["l1_2m"]),
        l1_1g=TLBGeometry(**data["l1_1g"]),
        l2_1g=TLBGeometry(**data["l2_1g"]),
        l2=TLBGeometry(**data["l2"]),
        latency=LatencyModel(**data["latency"]),
        pwc=bool(data["pwc"]),
    )


# ---------------------------------------------------------------------------
# Request / reply
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TenancyConfig:
    """Multi-tenant parameters of a ``kind="fleet"`` or ``"fleet-shard"``
    request.

    ``workloads``/``scenarios`` default to the request's own
    workload/scenario cell when empty; ``references`` and ``seed``
    always come from the request itself, so a fleet request stays one
    coherent content-addressed object.  ``shard`` names one of the
    ``shards`` partitions and is set only on ``"fleet-shard"`` requests.
    """

    tenants: int
    policy: str = "tagged"
    quantum: int = 2_000
    active_pool: int = 8
    storm_every: int = 0
    storm_quantum: int = 0
    mapping_variants: int = 1
    asid_bits: int = TAG_BITS
    workloads: tuple[str, ...] = ()
    scenarios: tuple[str, ...] = ()
    shards: int = 1
    trace_variants: int = 0
    workers: int = 0
    shard: int | None = None

    def describe(self) -> dict:
        """Canonical (hashed) content of this config.

        ``shards``, ``trace_variants`` and ``shard`` enter the hash only
        when non-default, so every pre-sharding fleet key survives verbatim.
        ``workers`` never enters: a shard's outcome is byte-identical
        under any worker count, so the worker count is an execution
        knob (see :class:`SimRequest`), not result content.
        """
        payload = {
            "tenants": self.tenants,
            "policy": self.policy,
            "quantum": self.quantum,
            "active_pool": self.active_pool,
            "storm_every": self.storm_every,
            "storm_quantum": self.storm_quantum,
            "mapping_variants": self.mapping_variants,
            "asid_bits": self.asid_bits,
            "workloads": list(self.workloads),
            "scenarios": list(self.scenarios),
        }
        if self.shards != 1:
            payload["shards"] = self.shards
        if self.trace_variants != 0:
            payload["trace_variants"] = self.trace_variants
        if self.shard is not None:
            payload["shard"] = self.shard
        return payload

    def to_dict(self) -> dict:
        """Full wire form (round-trips every field, unlike the hash)."""
        payload = self.describe()
        payload["shards"] = self.shards
        payload["trace_variants"] = self.trace_variants
        payload["workers"] = self.workers
        return payload

    @classmethod
    def from_dict(cls, data: dict) -> "TenancyConfig":
        return cls(
            tenants=int(data["tenants"]),
            policy=str(data["policy"]),
            quantum=int(data["quantum"]),
            active_pool=int(data["active_pool"]),
            storm_every=int(data["storm_every"]),
            storm_quantum=int(data["storm_quantum"]),
            mapping_variants=int(data["mapping_variants"]),
            asid_bits=int(data["asid_bits"]),
            workloads=tuple(data["workloads"]),
            scenarios=tuple(data["scenarios"]),
            shards=int(data.get("shards", 1)),
            trace_variants=int(data.get("trace_variants", 0)),
            workers=int(data.get("workers", 0)),
            shard=None if data.get("shard") is None else int(data["shard"]),
        )


@dataclass(frozen=True)
class SimRequest:
    """One declarative simulation request.

    The request carries *everything* that determines the result;
    execution knobs (worker count, timeouts, cache location, scalar or
    batched engine) stay out, so the content key is identical however
    the request runs.
    """

    workload: str
    scenario: str
    scheme: str
    references: int
    seed: int | None = None
    epoch_references: int | None = DEFAULT_EPOCH_REFERENCES
    ideal_subsample: int = 1
    machine: MachineConfig = DEFAULT_MACHINE
    kind: str = "simulate"  #: "simulate", "distances", "fleet", "fleet-shard"
    tenancy: TenancyConfig | None = None

    def label(self) -> str:
        """Short human-readable name for progress lines and ledgers."""
        if self.kind == "distances":
            return f"{self.workload}/{self.scenario}/distances"
        if self.kind == "fleet" and self.tenancy is not None:
            return f"fleet/{self.scheme}x{self.tenancy.tenants}"
        if self.kind == "fleet-shard" and self.tenancy is not None:
            return (f"fleet/{self.scheme}x{self.tenancy.tenants}"
                    f"/shard{self.tenancy.shard}of{self.tenancy.shards}")
        return f"{self.workload}/{self.scenario}/{self.scheme}"

    def describe(self) -> dict:
        """The canonical content of this request (what ``key`` hashes).

        ``tenancy`` is emitted only when set, which keeps the hash
        byte-for-byte identical to the keys minted before that field
        existed — existing result caches stay valid.
        """
        payload = {
            "format": CACHE_FORMAT,
            "kind": self.kind,
            "workload": self.workload,
            "scenario": self.scenario,
            "scheme": self.scheme,
            "references": self.references,
            "seed": self.seed,
            "epoch_references": self.epoch_references,
            "ideal_subsample": self.ideal_subsample,
            "machine": machine_digest(self.machine),
        }
        if self.tenancy is not None:
            payload["tenancy"] = self.tenancy.describe()
        return payload

    def key(self) -> str:
        """The content-addressed cache key of this request."""
        return digest_payload(self.describe())

    # -- wire form (NDJSON service protocol) ---------------------------

    def to_dict(self) -> dict:
        """Round-trippable wire form (see :meth:`from_dict`)."""
        payload: dict[str, Any] = {
            "workload": self.workload,
            "scenario": self.scenario,
            "scheme": self.scheme,
            "references": self.references,
            "seed": self.seed,
            "epoch_references": self.epoch_references,
            "ideal_subsample": self.ideal_subsample,
            "machine": dataclasses.asdict(self.machine),
            "kind": self.kind,
        }
        if self.tenancy is not None:
            payload["tenancy"] = self.tenancy.to_dict()
        return payload

    @classmethod
    def from_dict(cls, data: dict) -> "SimRequest":
        tenancy = data.get("tenancy")
        epoch = data.get("epoch_references", DEFAULT_EPOCH_REFERENCES)
        seed = data.get("seed")
        return cls(
            workload=str(data["workload"]),
            scenario=str(data["scenario"]),
            scheme=str(data["scheme"]),
            references=int(data["references"]),
            seed=None if seed is None else int(seed),
            epoch_references=None if epoch is None else int(epoch),
            ideal_subsample=int(data.get("ideal_subsample", 1)),
            machine=(
                _machine_from_dict(data["machine"])
                if "machine" in data else DEFAULT_MACHINE
            ),
            kind=str(data.get("kind", "simulate")),
            tenancy=(
                None if tenancy is None else TenancyConfig.from_dict(tenancy)
            ),
        )


@dataclass(frozen=True)
class SimReply:
    """The result of one executed request.

    Deliberately minimal: the key plus the JSON payload.  Transport
    metadata (cached vs computed, queue position, epoch snapshots)
    travels in the service's envelope stream, *not* here, so a reply is
    byte-identical whether it was computed in-process, pulled from the
    result store, or joined onto an in-flight duplicate.
    """

    key: str
    payload: dict

    def to_dict(self) -> dict:
        return {"key": self.key, "payload": self.payload}

    @classmethod
    def from_dict(cls, data: dict) -> "SimReply":
        return cls(key=str(data["key"]), payload=dict(data["payload"]))


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def fleet_for(request: SimRequest) -> "Any":
    """The :class:`~repro.sim.tenants.TenantFleet` a fleet request names.

    One construction point keeps the request → fleet translation
    identical everywhere it is needed (execution, shards, parent-side
    trace pre-generation, benchmarks).
    """
    from repro.sim.tenants import TenantFleet

    tenancy = request.tenancy
    if request.kind not in FLEET_KINDS or tenancy is None:
        raise OrchestrationError('fleet_for needs a fleet kind with tenancy')
    return TenantFleet(
        size=tenancy.tenants,
        workloads=tenancy.workloads or (request.workload,),
        scenarios=tenancy.scenarios or (request.scenario,),
        references=request.references,
        seed=request.seed,
        mapping_variants=tenancy.mapping_variants,
        trace_variants=tenancy.trace_variants,
    )


def execute_request(request: SimRequest) -> dict:
    """Compute one request's JSON payload (the universal entry point).

    Picklable by reference: this is what the orchestrator's pool, the
    service's warm workers, and the serial path all invoke.  Worker-side
    memoisation (mappings, traces, the shared trace store) lives in
    :mod:`repro.sim.runner`; the imports are deferred both for that and
    because the scheme registry would otherwise import circularly.
    """
    from repro.sim import runner

    if request.kind == "distances":
        from repro.vmos.contiguity import contiguity_histogram
        from repro.vmos.distance import select_distance

        mapping = runner._mapping_for(request)
        distance = select_distance(contiguity_histogram(mapping))
        return {"distance": int(distance)}
    if request.kind in FLEET_KINDS:
        from repro.sim.tenants import simulate_fleet, simulate_shard

        tenancy = request.tenancy
        if tenancy is None:
            raise OrchestrationError(
                f'kind="{request.kind}" requires a tenancy config')
        if request.kind == "fleet" and tenancy.shard is not None:
            raise OrchestrationError(
                'kind="fleet" takes no shard; send kind="fleet-shard"')
        if request.kind == "fleet-shard" and not (
            tenancy.shard is not None and 0 <= tenancy.shard < tenancy.shards
        ):
            raise OrchestrationError(
                f"fleet-shard needs 0 <= shard < {tenancy.shards}, "
                f"got {tenancy.shard}")
        # Zero-copy traces only make sense when the fleet's distinct
        # trace set is bounded (trace_variants); otherwise a store
        # would persist one file per tenant.
        store = (
            runner._WORKER_TRACE_STORE if tenancy.trace_variants > 0 else None
        )
        if request.kind == "fleet-shard":
            return simulate_shard(request, store)
        result = simulate_fleet(
            fleet_for(request),
            scheme=request.scheme,
            machine=request.machine,
            policy=tenancy.policy,
            quantum=tenancy.quantum,
            active_pool=tenancy.active_pool,
            storm_every=tenancy.storm_every,
            storm_quantum=tenancy.storm_quantum,
            asid_bits=tenancy.asid_bits,
            shards=tenancy.shards,
            workers=tenancy.workers,
            trace_store=store,
        )
        return result.to_dict()
    if request.kind != "simulate":
        raise OrchestrationError(f"unknown request kind {request.kind!r}")
    result = runner.simulate_spec(
        request, runner._mapping_for(request), runner._trace_for(request)
    )
    return result.to_dict()


def simulate_request(request: SimRequest) -> SimReply:
    """Execute ``request`` and wrap the payload in a :class:`SimReply`."""
    return SimReply(key=request.key(), payload=execute_request(request))
