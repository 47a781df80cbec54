"""Trace-driven simulation: traces, workloads, engine, statistics."""

from repro.sim.stats import TranslationStats
from repro.sim.trace import Trace
from repro.sim.workloads import WORKLOADS, Workload, workload_names
from repro.sim.engine import SimulationResult, run_trace
from repro.sim.api import (
    SimReply,
    SimRequest,
    TenancyConfig,
    execute_request,
    simulate_request,
)
from repro.sim.tenants import (
    FleetResult,
    ProcessRun,
    TenantFleet,
    TenantSpec,
    run_timeshared,
    simulate_fleet,
)
from repro.sim.runner import Orchestrator, ResultStore, RunSummary

__all__ = [
    "TranslationStats",
    "Trace",
    "WORKLOADS",
    "Workload",
    "workload_names",
    "SimulationResult",
    "run_trace",
    "SimReply",
    "SimRequest",
    "TenancyConfig",
    "execute_request",
    "simulate_request",
    "FleetResult",
    "ProcessRun",
    "TenantFleet",
    "TenantSpec",
    "run_timeshared",
    "simulate_fleet",
    "Orchestrator",
    "ResultStore",
    "RunSummary",
]
