"""Differential suite: the streaming trace pipeline changes nothing.

Two families of guarantees back the bounded-memory pipeline:

* **Trace bytes** — for every registered workload, concatenating the
  chunks of a :class:`~repro.sim.workloads.WorkloadTraceSource` (at any
  chunk size, including pathological ones) is bit-identical to the
  eagerly generated :class:`~repro.sim.trace.Trace`, and a source can
  be re-iterated from the top (each ``iter_chunks`` call restarts the
  deterministic stream).
* **Simulation results** — driving a scheme from the streaming source
  is bit-identical to driving it from the materialized trace: same
  counter snapshots, same per-epoch stats, same final TLB/PWC hardware
  state, under both the scalar and batched engines.

The fig7 smoke test at the bottom runs one real figure cell (demand
scenario) end-to-end through the streaming path with a tiny chunk size.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.params import DEFAULT_MACHINE
from repro.schemes.registry import make_scheme
from repro.sim.engine import run_trace
from repro.sim.workloads import get_workload, workload_names
from repro.vmos.scenarios import build_mapping

from test_engine_parity import hw_state

ALL_WORKLOADS = workload_names(include_fig1_only=True)

#: Deliberately awkward chunk sizes: 1 (degenerate), a prime that never
#: divides the trace, a power of two, and one larger than the trace.
CHUNK_SIZES = (1, 997, 1024, 10_000)

REFERENCES = 4000
SEED = 3


class TestChunkedBytesIdentical:
    @pytest.mark.parametrize("workload_name", ALL_WORKLOADS)
    def test_chunks_concatenate_to_eager_trace(self, workload_name):
        workload = get_workload(workload_name)
        eager = workload.make_trace(REFERENCES, seed=SEED)
        source = workload.trace_source(REFERENCES, seed=SEED)
        assert source.references == eager.references
        assert source.instructions == eager.instructions
        assert source.name == eager.name
        for chunk in CHUNK_SIZES:
            blocks = list(source.iter_chunks(chunk))
            assert all(len(b) <= chunk for b in blocks)
            streamed = np.concatenate(blocks)
            np.testing.assert_array_equal(streamed, eager.vpns)

    @pytest.mark.parametrize("workload_name", ("gups", "mcf", "raytrace"))
    def test_source_is_restartable(self, workload_name):
        source = get_workload(workload_name).trace_source(2000, seed=11)
        first = np.concatenate(list(source.iter_chunks(333)))
        second = np.concatenate(list(source.iter_chunks(512)))
        np.testing.assert_array_equal(first, second)

    @pytest.mark.parametrize("workload_name", ("gups", "xalancbmk"))
    def test_materialize_matches_make_trace(self, workload_name):
        workload = get_workload(workload_name)
        materialized = workload.trace_source(1500, seed=7).materialize()
        eager = workload.make_trace(1500, seed=7)
        np.testing.assert_array_equal(materialized.vpns, eager.vpns)
        assert materialized.instructions == eager.instructions


class TestEngineSourceParity:
    """TraceSource vs materialized Trace through the real engine."""

    SCHEMES = ("base", "thp", "anchor-dyn")

    def _outputs(self, scheme_name, workload_name, engine, trace, machine,
                 epoch):
        mapping = build_mapping(
            get_workload(workload_name).vmas(), "demand", seed=SEED)
        scheme = make_scheme(scheme_name, mapping, machine)
        result = run_trace(scheme, trace, epoch_references=epoch, engine=engine)
        return (scheme.stats.snapshot(), result.epoch_stats,
                hw_state(scheme), result.to_dict())

    @pytest.mark.parametrize("engine", ("scalar", "batched"))
    @pytest.mark.parametrize("scheme_name", SCHEMES)
    def test_source_equals_trace(self, scheme_name, engine):
        workload = get_workload("gups")
        eager = workload.make_trace(3000, seed=SEED)
        source = workload.trace_source(3000, seed=SEED)
        got_eager = self._outputs(
            scheme_name, "gups", engine, eager, DEFAULT_MACHINE, epoch=700)
        got_stream = self._outputs(
            scheme_name, "gups", engine, source, DEFAULT_MACHINE, epoch=700)
        assert got_stream == got_eager

    @pytest.mark.parametrize("scheme_name", SCHEMES)
    def test_source_equals_trace_with_pwc(self, scheme_name):
        machine = dataclasses.replace(DEFAULT_MACHINE, pwc=True)
        workload = get_workload("mcf")
        eager = workload.make_trace(3000, seed=SEED)
        source = workload.trace_source(3000, seed=SEED)
        got_eager = self._outputs(
            scheme_name, "mcf", "batched", eager, machine, epoch=700)
        got_stream = self._outputs(
            scheme_name, "mcf", "batched", source, machine, epoch=700)
        assert got_stream == got_eager


class TestFig7StreamingSmoke:
    """One real Fig. 7 cell (demand scenario), streamed in tiny chunks."""

    def test_fig7_cell_streams(self):
        workload = get_workload("gups")
        mapping = build_mapping(workload.vmas(), "demand", seed=None)
        outputs = {}
        for label, trace in (
            ("eager", workload.make_trace(5000, seed=None)),
            ("streaming", workload.trace_source(5000, seed=None)),
        ):
            base = make_scheme("base", mapping, DEFAULT_MACHINE)
            anchor = make_scheme("anchor-dyn", mapping, DEFAULT_MACHINE)
            # Tiny epoch: the streaming source is pulled 20 chunks at a
            # time and peak engine memory is O(250 references).
            base_result = run_trace(base, trace, epoch_references=250)
            anchor_result = run_trace(anchor, trace, epoch_references=250)
            outputs[label] = (
                base_result.to_dict(),
                anchor_result.to_dict(),
                anchor_result.relative_misses(base_result),
            )
        assert outputs["streaming"] == outputs["eager"]
        # The cell is a real figure cell: the anchor scheme resolves
        # some walks the baseline takes (sanity, not a paper claim).
        assert outputs["streaming"][0]["stats"]["walks"] > 0
