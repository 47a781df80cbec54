"""Tests for time-shared multi-programmed simulation (``run_timeshared``)."""

import numpy as np
import pytest

from repro.mem.frames import FrameRange
from repro.schemes.anchor_scheme import AnchorScheme
from repro.schemes.baseline import BaselineScheme
from repro.sim.tenants import MultiProgramResult, ProcessRun, run_timeshared
from repro.sim.trace import Trace
from repro.vmos.mapping import MemoryMapping


def make_process(name, pages=256, length=2000, seed=0, scheme_cls=BaselineScheme,
                 **kwargs):
    mapping = MemoryMapping()
    mapping.map_run(0, FrameRange(10_000, pages))
    rng = np.random.default_rng(seed)
    trace = Trace(rng.integers(0, pages, length), length * 3, name)
    return ProcessRun(name, scheme_cls(mapping, **kwargs), trace)


class TestScheduling:
    def test_all_accesses_executed(self):
        runs = [make_process("a", seed=1), make_process("b", seed=2)]
        result = run_timeshared(runs, quantum=300)
        assert result.stats["a"].accesses == 2000
        assert result.stats["b"].accesses == 2000

    def test_switch_and_flush_counts(self):
        runs = [make_process("a", seed=1), make_process("b", seed=2)]
        result = run_timeshared(runs, quantum=500)
        # 2000 refs / 500 per quantum = 4 quanta each, interleaved.
        assert result.switches == 7
        assert result.flushes == result.switches

    def test_no_flush_mode(self):
        runs = [make_process("a", seed=1), make_process("b", seed=2)]
        result = run_timeshared(runs, quantum=500, flush_on_switch=False)
        assert result.flushes == 0
        assert result.switches == 7

    def test_uneven_lengths(self):
        runs = [
            make_process("short", length=700, seed=1),
            make_process("long", length=2100, seed=2),
        ]
        result = run_timeshared(runs, quantum=400)
        assert result.stats["short"].accesses == 700
        assert result.stats["long"].accesses == 2100

    def test_single_process_never_flushes(self):
        result = run_timeshared([make_process("solo")], quantum=100)
        assert result.switches == 0 and result.flushes == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            run_timeshared([], quantum=10)
        with pytest.raises(ValueError):
            run_timeshared([make_process("a")], quantum=0)
        with pytest.raises(ValueError):
            run_timeshared(
                [make_process("a"), make_process("a")], quantum=10
            )


class TestFlushCosts:
    def test_flushing_increases_walks(self):
        flushed = run_timeshared(
            [make_process("a", seed=1), make_process("b", seed=2)],
            quantum=250,
        )
        tagged = run_timeshared(
            [make_process("a", seed=1), make_process("b", seed=2)],
            quantum=250,
            flush_on_switch=False,
        )
        assert flushed.total_walks() > tagged.total_walks()

    def test_anchor_recovers_faster_than_base(self):
        """After each flush the anchor scheme re-covers its footprint
        with footprint/d walks; the baseline needs one per page."""
        def pair(scheme_cls, **kwargs):
            return [
                make_process("a", seed=1, scheme_cls=scheme_cls, **kwargs),
                make_process("b", seed=2, scheme_cls=scheme_cls, **kwargs),
            ]

        base = run_timeshared(pair(BaselineScheme), quantum=250)
        anchor = run_timeshared(
            pair(AnchorScheme, distance=64), quantum=250
        )
        assert anchor.total_walks() < 0.5 * base.total_walks()

    def test_result_type(self):
        result = run_timeshared([make_process("a")])
        assert isinstance(result, MultiProgramResult)


class TestAnchorDistanceRegister:
    def test_each_process_keeps_its_own_distance(self):
        """§3.1: the anchor distance is per-process context, restored on
        every switch — two co-scheduled processes with very different
        mappings must keep their own distances throughout."""
        import numpy as np

        from repro.mem.frames import FrameRange
        from repro.sim.trace import Trace
        from repro.vmos.mapping import MemoryMapping

        big = MemoryMapping()
        big.map_run(0, FrameRange((1 << 22) + 1, 8192))  # one huge chunk
        small = MemoryMapping()
        cursor = 1 << 24
        for vpn in range(0, 2048):
            if vpn % 4 == 0:
                cursor += 3
            small.map_page(vpn, cursor)
            cursor += 1

        rng = np.random.default_rng(8)
        runs = [
            ProcessRun("big", AnchorScheme(big),
                       Trace(rng.integers(0, 8192, 2000), 6000, "big")),
            ProcessRun("small", AnchorScheme(small),
                       Trace(rng.integers(0, 2048, 2000), 6000, "small")),
        ]
        distances = {run.name: run.scheme.distance for run in runs}
        assert distances["big"] >= 1024
        assert distances["small"] <= 8
        run_timeshared(runs, quantum=250)
        # The registers survived every switch + flush.
        for run in runs:
            assert run.scheme.distance == distances[run.name]
            run.scheme.stats.check_conservation()
