"""Tests for fleet-scale multi-tenant scheduling (repro.sim.tenants)."""

import contextlib
import dataclasses
import hashlib
import inspect
import json
import os
import textwrap
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import MappingError, PageFaultError
from repro.hw.tlb import TAG_BITS, TAG_SHIFT
from repro.mem.frames import FrameRange
from repro.params import DEFAULT_MACHINE, MachineConfig, TLBGeometry
from repro.schemes import anchor_scheme
from repro.schemes.anchor_scheme import AnchorScheme
from repro.schemes.base import TranslationScheme
from repro.schemes.baseline import BaselineScheme
from repro.schemes.registry import make_scheme, scheme_names
from repro.sim.stats import canonical_json
from repro.sim.tenants import (
    ProcessRun,
    ScheduleCounters,
    TenantFleet,
    TenantRun,
    _AsidAllocator,
    _Cursor,
    run_schedule,
    run_timeshared,
    simulate_fleet,
)
from repro.sim.trace import Trace
from repro.util.proc import peak_rss_bytes
from repro.vmos.distance import DistanceRegisterFile
from repro.vmos.mapping import MemoryMapping
from repro.vmos.vma import VMA


def make_mapping(pages=256, base=10_000):
    mapping = MemoryMapping()
    mapping.map_run(0, FrameRange(base, pages))
    return mapping


def make_process(name, pages=256, length=2000, seed=0,
                 scheme_cls=BaselineScheme, **kwargs):
    rng = np.random.default_rng(seed)
    trace = Trace(rng.integers(0, pages, length), length * 3, name)
    return ProcessRun(name, scheme_cls(make_mapping(pages), **kwargs), trace)


def make_member(name, pages=256, length=2000, seed=0,
                scheme_cls=BaselineScheme, **kwargs):
    rng = np.random.default_rng(seed)
    vpns = rng.integers(0, pages, length).astype(np.int64)
    return TenantRun(name=name, scheme=scheme_cls(make_mapping(pages), **kwargs),
                     cursor=_Cursor(iter([vpns])))


class TestCursor:
    def test_serves_across_chunks(self):
        chunks = iter([np.arange(3, dtype=np.int64),
                       np.arange(3, 7, dtype=np.int64)])
        cursor = _Cursor(chunks)
        assert cursor.take(5).tolist() == [0, 1, 2, 3, 4]
        assert cursor.take(5).tolist() == [5, 6]
        assert cursor.take(5).shape[0] == 0

    def test_exact_boundary(self):
        cursor = _Cursor(iter([np.arange(4, dtype=np.int64)]))
        assert cursor.take(4).shape[0] == 4
        assert cursor.take(1).shape[0] == 0


class TestDriftRegression:
    """The legacy scheduler let a process that exhausted exactly on a
    quantum boundary run one more *empty* slice, charging a switch (and
    a flush) and silently donating the round's remainder."""

    def test_exact_boundary_exhaustion_charges_no_switch(self):
        # a = exactly 2 quanta, b = exactly 4 quanta.  a's third slice
        # is empty and must not be scheduled at all.
        a = make_member("a", length=1000, seed=1)
        b = make_member("b", length=2000, seed=2)
        counters = ScheduleCounters()
        run_schedule([a, b], quantum=500, policy="flush", counters=counters)
        # r1: a (no prev), b (+1); r2: a (+1), b (+1); r3+: b alone.
        assert counters.switches == 3
        assert counters.flushes == counters.switches
        assert a.executed == 1000 and b.executed == 2000
        assert a.slices == 2 and b.slices == 4

    def test_short_slice_retires_after_running(self):
        a = make_member("a", length=750, seed=1)
        b = make_member("b", length=2000, seed=2)
        counters = ScheduleCounters()
        run_schedule([a, b], quantum=500, policy="flush", counters=counters)
        assert a.executed == 750 and a.slices == 2
        assert counters.switches == 3

    def test_empty_drop_does_not_steal_previous(self):
        """Dropping an exhausted tenant must leave `previous` on the
        tenant that actually ran last, so the next slice of the same
        tenant is switch-free."""
        a = make_member("a", length=500, seed=1)
        b = make_member("b", length=1500, seed=2)
        counters = ScheduleCounters()
        last = run_schedule([a, b], quantum=500, policy="flush",
                            counters=counters)
        assert last is b
        # r1: a, b (+1); r2: a dropped, b continues with NO switch; r3: b.
        assert counters.switches == 1


class TestRunSchedule:
    def test_validation(self):
        member = make_member("a")
        with pytest.raises(ValueError):
            run_schedule([member], quantum=0)
        with pytest.raises(ValueError):
            run_schedule([member], quantum=10, policy="bogus")
        with pytest.raises(ValueError):
            run_schedule([member], quantum=10, storm_every=2, storm_quantum=0)

    def test_storm_rounds_counted(self):
        members = [make_member("a", seed=1), make_member("b", seed=2)]
        counters = ScheduleCounters()
        run_schedule(members, quantum=400, policy="flush",
                     storm_every=3, storm_quantum=50, counters=counters)
        assert counters.storm_rounds > 0
        assert counters.rounds // 3 == counters.storm_rounds
        assert sum(m.executed for m in members) == 4000

    def test_storms_inflate_switch_count(self):
        def pair():
            return [make_member("a", seed=1), make_member("b", seed=2)]
        calm = ScheduleCounters()
        run_schedule(pair(), quantum=400, policy="flush", counters=calm)
        stormy = ScheduleCounters()
        run_schedule(pair(), quantum=400, policy="flush",
                     storm_every=2, storm_quantum=25, counters=stormy)
        assert stormy.switches > calm.switches


class TestRunTimeshared:
    """run_timeshared(): switch, flush and slice accounting."""

    def test_legacy_switch_counts(self):
        runs = [make_process("a", seed=1), make_process("b", seed=2)]
        result = run_timeshared(runs, quantum=500)
        assert result.switches == 7
        assert result.flushes == 7
        assert result.stats["a"].accesses == 2000

    def test_slices_and_executed_recorded(self):
        runs = [make_process("a", length=700, seed=1),
                make_process("b", length=2100, seed=2)]
        result = run_timeshared(runs, quantum=400)
        assert result.executed == {"a": 700, "b": 2100}
        assert result.slices["a"] == 2
        assert runs[0].position == 700

    def test_validation_matches_legacy(self):
        with pytest.raises(ValueError):
            run_timeshared([], quantum=10)
        with pytest.raises(ValueError):
            run_timeshared([make_process("a")], quantum=0)
        with pytest.raises(ValueError):
            run_timeshared([make_process("a"), make_process("a")], quantum=10)


class TestTaggedDifferential:
    """ISSUE acceptance: a 1-tenant tagged run is bit-identical to the
    untagged engine — the ASID machinery must add zero perturbation."""

    @pytest.mark.parametrize(
        "scheme_name", ["base", "thp", "anchor-dyn", "rmm", "prefetch"])
    def test_tagged_equals_untagged(self, scheme_name):
        rng = np.random.default_rng(3)
        vpns = rng.integers(0, 1024, 6000).astype(np.int64)

        untagged = make_scheme(scheme_name, make_mapping(1024))
        tagged = make_scheme(scheme_name, make_mapping(1024))
        tagged.set_asid(7)
        for scheme in (untagged, tagged):
            scheme.sync_mapping()
            for start in range(0, 6000, 1500):
                scheme.access_block(vpns[start:start + 1500])
            scheme.stats.check_conservation()
        assert tagged.stats.snapshot() == untagged.stats.snapshot()

    def test_one_tenant_schedule_matches_plain_engine(self):
        """Scheduling a single tenant under the tagged policy (slices,
        register file, ASID and all) reproduces the plain single-process
        run counter for counter."""
        rng = np.random.default_rng(5)
        vpns = rng.integers(0, 256, 4000).astype(np.int64)

        plain = BaselineScheme(make_mapping())
        plain.sync_mapping()
        plain.access_block(vpns)

        member = TenantRun(name="solo", scheme=BaselineScheme(make_mapping()),
                           cursor=_Cursor(iter([vpns])), asid=3)
        run_schedule([member], quantum=700, policy="tagged",
                     registers=DistanceRegisterFile())
        assert member.scheme.stats.snapshot() == plain.stats.snapshot()

    def test_tag_does_not_change_set_indexing(self):
        """Tags live above bit TAG_SHIFT, outside the set-index bits."""
        assert TAG_SHIFT >= 46
        assert TAG_BITS >= 8

    @pytest.mark.parametrize(
        "name", ["cluster", "cluster2mb", "colt", "rmm", "prefetch"])
    def test_coalescing_schemes_accept_asid(self, medium_mapping, name):
        """The HW-coalescing schemes' block fast paths are tag-aware:
        ``set_asid`` must tag every array the fast path touches."""
        scheme = make_scheme(name, medium_mapping)
        scheme.set_asid(3)
        assert scheme.l1.small.tag == 3
        if name in ("colt", "rmm", "prefetch"):
            assert scheme.l2.tag == 3
            if name == "rmm":
                assert scheme.range_tlb.array.tag == 3
        else:
            assert scheme.regular.tag == 3
            assert scheme.clustered.array.tag == 3


class TestTaggedIsolationAndContention:
    def test_tagged_walks_between_flush_and_partitioned(self):
        """Shared tagged TLBs: better than flushing (entries survive),
        worse than ideal partitioning (neighbours contend for ways)."""
        fleet = TenantFleet(size=8, workloads=("gups",),
                            scenarios=("medium",), references=3000, seed=11)
        walks = {
            policy: simulate_fleet(fleet, scheme="base", policy=policy,
                                   quantum=500, active_pool=4).total_walks()
            for policy in ("flush", "partitioned", "tagged")
        }
        assert walks["partitioned"] <= walks["tagged"] <= walks["flush"]
        assert walks["partitioned"] < walks["flush"]

    def test_mapping_sync_flushes_only_its_own_tag(self):
        """One tenant's remap shoots down its own tagged entries on the
        shared hierarchy, never its neighbour's."""
        first = BaselineScheme(make_mapping())
        second = BaselineScheme(make_mapping())
        for name, structure in first.structures().items():
            setattr(second, name, getattr(second, name).attach(structure))
        first.set_asid(1)
        first.access_block(np.arange(64, dtype=np.int64))
        assert first.l2.tag_occupancy(1) == 64
        second.set_asid(2)  # switch-in: the shared arrays now run tag 2
        second.mapping.unmap_page(7)
        second.mapping.map_page(7, 99_999)
        second.sync_mapping()
        assert first.l2.tag_occupancy(1) == 64
        assert second.translate(7) == 99_999

    @staticmethod
    def anchor_pair():
        """Two anchor tenants over 64-page mappings on one hierarchy: A
        touched page 20 under ASID 1, then B switched in (ASID 2) and
        touched page 21, so the shared tag register holds B's tag."""
        first = AnchorScheme(make_mapping(64))
        second = AnchorScheme(make_mapping(64))
        for name, structure in first.structures().items():
            setattr(second, name, getattr(second, name).attach(structure))
        first.set_asid(1)
        first.access(20)
        second.set_asid(2)
        second.access(21)
        l1, l2 = first.l1.small, first.l2.array
        assert l1.tag_occupancy(1) == l1.tag_occupancy(2) == 1
        assert l2.tag_occupancy(1) == l2.tag_occupancy(2) == 1
        return first, second, l1, l2

    def test_shootdown_names_its_own_asid(self):
        """An unmap on a tenant that is not switched in shoots down its
        own page and spanning anchor, not the running tenant's."""
        first, second, l1, l2 = self.anchor_pair()
        first.unmap_page(20)
        assert l1.tag_occupancy(1) == l2.tag_occupancy(1) == 0
        assert l1.tag_occupancy(2) == l2.tag_occupancy(2) == 1
        first.set_asid(1)
        with pytest.raises(PageFaultError):
            first.access(20)
        second.set_asid(2)
        assert second.access(21) == 0          # B's L1 entry survived

    def test_translate_sync_flushes_its_own_asid(self):
        """A remap adopted through ``translate`` flushes the remapping
        tenant's entries, so its next access walks to the new frame,
        and leaves the running tenant's alone."""
        first, second, l1, l2 = self.anchor_pair()
        pfn = first.mapping.unmap_page(20)
        first.mapping.map_page(20, pfn + 1000)
        assert first.translate(20) == pfn + 1000
        assert l1.tag_occupancy(1) == l2.tag_occupancy(1) == 0
        assert l1.tag_occupancy(2) == l2.tag_occupancy(2) == 1
        first.set_asid(1)
        assert first.access(20) == first.config.latency.page_walk
        assert l1.lookup(20, 20) == pfn + 1000

    def test_distance_change_flushes_its_own_asid(self):
        """An Algorithm 1 re-pick on a tenant that is not switched in
        flushes that tenant's L1 and L2 entries, not the running one's."""
        first, second, l1, l2 = self.anchor_pair()
        first.l2.restore_distance(2)    # a stale pick to move away from
        first._build_directories()
        assert first.reselect_distance()[1]
        assert l1.tag_occupancy(1) == l2.tag_occupancy(1) == 0
        assert l1.tag_occupancy(2) == l2.tag_occupancy(2) == 1

    def test_anchor_distance_saved_and_restored(self):
        fleet = TenantFleet(size=6, workloads=("gups",),
                            scenarios=("low", "max"), references=3000, seed=4)
        result = simulate_fleet(fleet, scheme="anchor-dyn", policy="tagged",
                                quantum=400, active_pool=3)
        assert result.distance_saves > 0
        assert result.distance_restores > 0
        assert len(result.registers) == 6


#: sha256 of ``canonical_json(to_dict())`` for one contended tagged fleet
#: per registered scheme, PWC off and on.  Twelve tenants over four
#: live slots interleave 150-reference quanta on one shared hierarchy,
#: so any structure a tenant keeps private (instead of sharing it with
#: its neighbours) moves the walk counts and with them the digest.
CONTENDED_FLEET_DIGESTS = {
    ("base", False):
        "8174dd926819b4c5fa942e71db91de42070bf81f73775ddf0147ef468b3bc891",
    ("thp", False):
        "146ad6c49c1c0557d21f5e8eecdfb97f21087a1e77e3eab6153bcbda1e8bc4d5",
    ("thp1g", False):
        "d4f531408b7af6334585613d8c57a2a1b0bc7d3c9fd141a3a31bfd453d6fec1b",
    ("cluster", False):
        "b27c8adc7df8020b3d8192bdd73b02b9cbfaffef61cc7ae3e32169634a8f359d",
    ("cluster2mb", False):
        "205db21506ed03bc0fc5c25773bbdc0e12e3f8db357892a2a76d6cd001938976",
    ("colt", False):
        "f114a40fe98dd316e814c4999679e2c1df35a8cd0cdc06024c720556eb0179c7",
    ("prefetch", False):
        "151a6ab2961e3ec526bc6313647f5d8323fed6681b2e9308ca4cfb2227a4f5e5",
    ("rmm", False):
        "52d44554bb0fcdc1d24e565c253dbd3a657bfd66e1d3224c254ded6de4f574b5",
    ("anchor-dyn", False):
        "0dc260997471a271389570e903165fc99154318be81303a7eed4902166e5303a",
    ("anchor-region", False):
        "2e46876ef410a41f1e5cfe68fedc927fe2688ff53fda47dbf85565edf1f552f8",
    ("base", True):
        "469daf4d1aea1b55eef25b224c0cc6b8bdfaf60af4bf5dea528bd76bb4f6e243",
    ("thp", True):
        "7d86628aa9420be6636ca68cf946e01082efbf01e89f9b5838fabfde10045f61",
    ("thp1g", True):
        "b9a6a1f4bc0e685f87693aa9e1c8aab81fc639c2cd9f7069160f3e7222f71798",
    ("cluster", True):
        "42e17b0549394f09c2965c4222aa24f35a9ac0aa5540bbd4792c23e6c76a859d",
    ("cluster2mb", True):
        "3cb7b5560b0090913df50750cf1cbcf4cda4f36ad50a17727173aa44994d664d",
    ("colt", True):
        "4eb95f0ef5deb8020446a5e6eaeb9b597288e2239551a3266ee80385f8d28e71",
    ("prefetch", True):
        "584776a4a4a2b3890ebe837b52b828bcf41bf2ba62c076ec33403913e62d5393",
    ("rmm", True):
        "d043638eb05ad25654fa8b45f8127eeba7ba891694ca74a83af2b6621b535a9c",
    ("anchor-dyn", True):
        "ffc0a8cf75cdd119591326f4bf51f31d43d5ebe36b51dccddcb3cf2f5b0855cd",
    ("anchor-region", True):
        "7c0cfe71f77f0d956c85a0dc8476e62b3a73f0b3860eaf1f9631e42c1fc1ea6a",
}


class TestContendedFleetPins:
    def test_every_scheme_is_pinned(self):
        assert {name for name, _ in CONTENDED_FLEET_DIGESTS} == set(
            scheme_names(include_extras=True))

    @pytest.mark.parametrize(
        "name, pwc", list(CONTENDED_FLEET_DIGESTS),
        ids=[f"{name}-pwc" if pwc else name
             for name, pwc in CONTENDED_FLEET_DIGESTS])
    def test_contended_tagged_fleet_pinned(self, name, pwc):
        fleet = TenantFleet(size=12, workloads=("gups", "omnetpp"),
                            scenarios=("low", "max"), references=1200,
                            seed=7, mapping_variants=2)
        machine = dataclasses.replace(DEFAULT_MACHINE, pwc=pwc)
        result = simulate_fleet(fleet, scheme=name, machine=machine,
                                policy="tagged", quantum=150, active_pool=4)
        payload = canonical_json(result.to_dict()).encode("utf-8")
        assert hashlib.sha256(payload).hexdigest() == (
            CONTENDED_FLEET_DIGESTS[name, pwc])


class TestFleet:
    def test_fleet_sampling_deterministic(self):
        fleet = TenantFleet(size=32, workloads=("gups", "mcf"),
                            references=1000, seed=9)
        first = list(fleet.tenants())
        second = list(fleet.tenants())
        assert first == second
        assert len({t.name for t in first}) == 32

    def test_fleet_validation(self):
        with pytest.raises(ValueError):
            TenantFleet(size=0, workloads=("gups",))
        with pytest.raises(ValueError):
            TenantFleet(size=2, workloads=())

    def test_simulate_fleet_deterministic(self):
        fleet = TenantFleet(size=12, workloads=("gups",),
                            scenarios=("medium", "high"),
                            references=2000, seed=21)
        a = simulate_fleet(fleet, scheme="base", policy="tagged",
                           quantum=500, active_pool=4).to_dict()
        b = simulate_fleet(fleet, scheme="base", policy="tagged",
                           quantum=500, active_pool=4).to_dict()
        # to_dict is the byte-identity surface: peak RSS (a process-wide
        # monotonic gauge) stays off it, so no field needs masking.
        assert a == b

    def test_executed_conserved_and_grouped(self):
        fleet = TenantFleet(size=10, workloads=("gups",),
                            scenarios=("medium",), references=1500, seed=2)
        result = simulate_fleet(fleet, scheme="base", policy="tagged",
                                quantum=400, active_pool=4)
        assert result.executed == 10 * 1500
        assert result.stats.accesses == 10 * 1500
        group = result.groups["gups/medium"]
        assert group["tenants"] == 10
        assert group["accesses"] == 10 * 1500
        assert result.per_tenant is not None and len(result.per_tenant) == 10

    def test_asid_namespace_recycling(self):
        fleet = TenantFleet(size=20, workloads=("gups",),
                            scenarios=("medium",), references=800, seed=3)
        result = simulate_fleet(fleet, scheme="base", policy="tagged",
                                quantum=400, active_pool=4, asid_bits=3)
        # 7 usable ASIDs for 20 tenants: the namespace wraps twice.
        assert result.asid_recycles == 20 - 7
        wide = simulate_fleet(fleet, scheme="base", policy="tagged",
                              quantum=400, active_pool=4)
        assert wide.asid_recycles == 0

    def test_anchor_region_flush_fleet_pinned(self):
        """A flush-policy anchor-region fleet, byte for byte as first
        pinned.  anchor-region has no single distance, so the §3.1
        register file never saves one for it."""
        fleet = TenantFleet(size=6, workloads=("gups",),
                            scenarios=("low", "max"), references=1500, seed=4)
        result = simulate_fleet(fleet, scheme="anchor-region", policy="flush",
                                quantum=300, active_pool=3)
        assert result.executed == 6 * 1500
        assert result.distance_saves == 0
        payload = json.dumps(result.to_dict(), sort_keys=True)
        assert hashlib.sha256(payload.encode("utf-8")).hexdigest() == (
            "0c358670e99a7c369471733d1c09fab8dabca9c3598c49060f4dc7be9eed6b52")

    @pytest.mark.parametrize(
        "name",
        ["cluster", "cluster2mb", "colt", "rmm", "prefetch", "anchor-region"])
    def test_coalescing_schemes_admitted_to_tagged_fleet(self, name):
        """The coalescing schemes run under ``policy="tagged"`` and share
        one physical hierarchy."""
        fleet = TenantFleet(size=2, workloads=("gups",),
                            scenarios=("medium",), references=500, seed=1)
        result = simulate_fleet(fleet, scheme=name, policy="tagged",
                                quantum=200, active_pool=2)
        assert result.executed == 1000
        assert result.stats.accesses == 1000

    @pytest.mark.parametrize(
        "name",
        ["cluster", "cluster2mb", "colt", "rmm", "prefetch", "anchor-region"])
    def test_tagged_matches_flush_on_exhaustive_quanta(self, name):
        """With the quantum covering a tenant's whole trace, each tenant
        runs exactly once from a cold start: foreign-tag entries never
        match its lookups and nothing intervenes between its accesses,
        so the shared tagged hierarchy must reproduce the per-tenant
        flush stats counter for counter."""
        fleet = TenantFleet(size=2, workloads=("gups",),
                            scenarios=("medium", "high"), references=800,
                            seed=13)
        runs = {
            policy: simulate_fleet(fleet, scheme=name, policy=policy,
                                   quantum=800, active_pool=2)
            for policy in ("tagged", "flush")
        }
        tagged = runs["tagged"].per_tenant
        flush = runs["flush"].per_tenant
        assert tagged is not None and flush is not None
        assert len(tagged) == len(flush) == 2
        for t_row, f_row in zip(tagged, flush):
            # The ASID is scheduler bookkeeping (tagged allocates real
            # tags, flush leaves 0); every translation counter must match.
            t_row = {k: v for k, v in t_row.items() if k != "asid"}
            f_row = {k: v for k, v in f_row.items() if k != "asid"}
            assert t_row == f_row


class TestAsidAllocator:
    class _Recorder:
        def __init__(self):
            self.flushed = []

        def flush_tag(self, tag):
            self.flushed.append(tag)

    def test_wraps_and_shoots_down(self):
        recorder = self._Recorder()
        allocator = _AsidAllocator([recorder], bits=2)  # ASIDs {1, 2, 3}
        assert [allocator.allocate() for _ in range(3)] == [1, 2, 3]
        assert recorder.flushed == []
        assert allocator.allocate() == 1
        assert recorder.flushed == [1]
        assert allocator.recycles == 1

    def test_bits_validation(self):
        with pytest.raises(ValueError):
            _AsidAllocator([], bits=0)
        with pytest.raises(ValueError):
            _AsidAllocator([], bits=TAG_BITS + 1)

    def test_shootdown_exactly_once_per_wrapped_tag(self):
        """Across multiple full wraps, every reuse of a tag shoots that
        tag down exactly once — never a neighbour's tag, never twice."""
        recorder = self._Recorder()
        allocator = _AsidAllocator([recorder], bits=2)  # ASIDs {1, 2, 3}
        tags = [allocator.allocate() for _ in range(9)]  # three full cycles
        assert tags == [1, 2, 3] * 3
        # First cycle is virgin; each later allocation flushes its tag once.
        assert recorder.flushed == [1, 2, 3, 1, 2, 3]
        assert allocator.recycles == 6

    def test_shootdown_hits_every_shared_structure(self):
        first, second = self._Recorder(), self._Recorder()
        allocator = _AsidAllocator([first, second], bits=1)  # only ASID 1
        assert allocator.allocate() == 1
        assert allocator.allocate() == 1
        assert first.flushed == second.flushed == [1]

    def test_anchor_region_tenants_sharing_an_asid(self):
        """Fewer ASIDs than live tenants would give two tenants of one
        wave the same tag, each hitting the other's entries; a tagged
        fleet rejects the configuration instead of running it."""
        fleet = TenantFleet(size=12, workloads=("gups", "omnetpp"),
                            scenarios=("low", "max"), references=1200,
                            seed=7, mapping_variants=2)
        with pytest.raises(ValueError, match="live tenants would share"):
            simulate_fleet(fleet, scheme="anchor-region", policy="tagged",
                           quantum=100, active_pool=4, asid_bits=2)
        # The same pool fits once the namespace holds four tags, and a
        # policy without tags takes any pool.
        for knobs in (dict(policy="tagged", asid_bits=3),
                      dict(policy="flush", asid_bits=2)):
            result = simulate_fleet(fleet, scheme="anchor-region",
                                    quantum=100, active_pool=4, **knobs)
            assert result.executed == 12 * 1200

    @pytest.mark.parametrize("asid_bits, active_pool, quantum", [
        (1, 1, 37), (2, 2, 37), (2, 3, 37), (2, 3, 250),
    ])
    def test_wrapping_anchor_fleet_matches_scalar(
        self, asid_bits, active_pool, quantum, monkeypatch
    ):
        """While live tenants keep distinct tags, every entry under a
        tenant's tag is its own, so the anchor replay stays exact across
        ASID recycling: the fleet's payload equals the scalar loop's,
        byte for byte."""
        fleet = TenantFleet(size=8, workloads=("gups", "omnetpp"),
                            scenarios=("low", "max"), references=800,
                            seed=1, mapping_variants=2)
        knobs = dict(scheme="anchor-dyn", policy="tagged", quantum=quantum,
                     active_pool=active_pool, asid_bits=asid_bits)
        batched = simulate_fleet(fleet, **knobs)
        assert batched.asid_recycles > 0
        monkeypatch.setattr(AnchorScheme, "access_block",
                            TranslationScheme.access_block)
        scalar = simulate_fleet(fleet, **knobs)
        assert batched.to_dict() == scalar.to_dict()

    def test_tagged_matches_flush_across_asid_wrap(self):
        """The wrap boundary must be invisible to per-tenant stats: with
        exhaustive quanta each tenant still starts from a state holding
        no entries under its (recycled, freshly shot-down) tag, so the
        tagged hierarchy reproduces the flush counters even after the
        namespace wraps several times within the shard."""
        fleet = TenantFleet(size=10, workloads=("gups",),
                            scenarios=("medium", "high"), references=600,
                            seed=29)
        runs = {
            policy: simulate_fleet(fleet, scheme="anchor-dyn", policy=policy,
                                   quantum=600, active_pool=2, asid_bits=2)
            for policy in ("tagged", "flush")
        }
        # 10 tenants through 3 usable ASIDs: the namespace wrapped.
        assert runs["tagged"].asid_recycles >= 7
        tagged = runs["tagged"].per_tenant
        flush = runs["flush"].per_tenant
        assert tagged is not None and flush is not None
        assert len(tagged) == len(flush) == 10
        for t_row, f_row in zip(tagged, flush):
            t_row = {k: v for k, v in t_row.items() if k != "asid"}
            f_row = {k: v for k, v in f_row.items() if k != "asid"}
            assert t_row == f_row


def _base_loop():
    """Patch ``AnchorScheme.access_block`` to hand every multi-tenant
    block to the base loop (the meaning of a round), keeping the
    scheme's own replay for each tenant's untagged run."""
    original = AnchorScheme.access_block

    def access_block(self, vpns):
        if self._tenant_runs(vpns) is not None:
            return TranslationScheme.access_block(self, vpns)
        return original(self, vpns)
    return mock.patch.object(AnchorScheme, "access_block", access_block)


#: A small machine, so short rounds still evict and contaminate sets.
ROUND_MACHINE = MachineConfig(
    l1_4k=TLBGeometry(8, 2),
    l1_2m=TLBGeometry(4, 2),
    l1_1g=TLBGeometry(4, 2),
    l2_1g=TLBGeometry(4, 2),
    l2=TLBGeometry(32, 4),
)


#: A one-page hole near the start of every round-fleet mapping, one
#: frame missing from an otherwise contiguous run: mapping it back at
#: ``HOLE_PFN`` merges the two halves.
HOLE, HOLE_PFN = 12, (1 << 20) + 12


def _fragmented_mapping(seed: int) -> MemoryMapping:
    """Two VMAs of different fragmentation (short runs, then long
    ones, so anchor-region picks two distances) plus one aligned 2 MiB
    run for THP promotion.  The walks start beside :data:`HOLE`."""
    rng = np.random.default_rng(seed)
    mapping = MemoryMapping()
    mapping.map_run(0, FrameRange(HOLE_PFN - HOLE, HOLE))
    mapping.map_run(HOLE + 1, FrameRange(HOLE_PFN + 1, 12))
    vpn, pfn = HOLE + 13, HOLE_PFN + 13
    for end, sizes in ((768, (1, 2, 3, 5)), (1536, (16, 40, 100))):
        while vpn < end:
            size = min(int(rng.choice(sizes)), end - vpn)
            pfn += int(rng.integers(1, 50))
            mapping.map_run(vpn, FrameRange(pfn, size))
            vpn += size
            pfn += size
    mapping.map_run(2048, FrameRange(1 << 22, 512))
    mapping.vmas = [VMA(0, 768), VMA(768, 768), VMA(2048, 512)]
    return mapping


class _HookedCursor:
    """A cursor that runs ``hook`` just before its ``at``-th take."""

    def __init__(self, cursor, at, hook):
        self._cursor, self._at, self._hook, self._takes = cursor, at, hook, 0

    def take(self, n):
        self._takes += 1
        if self._takes == self._at:
            self._hook()
        return self._cursor.take(n)


#: The round cuts and §3.3 updates the differential below injects.
EVENTS = ("none", "remap", "unmapped", "unmap", "map", "protect")

#: Each §3.3 update on a tenant's own scheme, at pages its walk never
#: touches: truncating anchors, filling the hole (which merges two runs,
#: so pages the walk left as resident 4 KiB entries become anchored),
#: and a protection island.
SECTION_33_UPDATES = {
    "unmap": lambda scheme: scheme.unmap_page(1535),
    "map": lambda scheme: scheme.map_page(HOLE, HOLE_PFN),
    "protect": lambda scheme: scheme.protect_page(1525, 0b01),
}


def _scalar_loop():
    """Patch ``AnchorScheme.access_block`` to the scalar ``access`` loop
    (the base loop of a scheme outside any ASID table)."""
    return mock.patch.object(
        AnchorScheme, "access_block", TranslationScheme.access_block)


def _run_round_fleet(name, pwc, tenants, quantum, storm, seed, event, at,
                     variant, target=0, hooked=0):
    """One tagged schedule of ``tenants`` anchor tenants on one shared
    hierarchy, replayed as ``variant``: ``"rounds"`` (the ASID table
    set, the scheme's own round replay), ``"base"`` (the table set,
    rounds through the base loop), ``"quanta"`` (no table: one
    ``access_block`` per quantum) or ``"scalar"`` (no table: the scalar
    ``access`` loop, each tenant under its own ASID).  Each tenant is a
    ``clone_fresh`` of its own prototype, so a §3.3 update privatises
    the plans it shares.  A §3.3 ``event`` lands on the ``target``
    tenant just before the ``hooked`` tenant's ``at``-th take.  Returns
    the page fault raised, if any, and the stats and shared hardware
    state it ends in."""
    machine = dataclasses.replace(ROUND_MACHINE, pwc=pwc)
    rng = np.random.default_rng(seed)
    schemes = [
        make_scheme(name, _fragmented_mapping(seed + i), machine).clone_fresh()
        for i in range(tenants)]
    shared = schemes[0].structures()
    table = {}
    members = []
    for asid, scheme in enumerate(schemes, start=1):
        for attr, structure in scheme.structures().items():
            setattr(scheme, attr, structure.attach(shared[attr]))
        if variant in ("rounds", "base"):
            scheme.tenants = table
            table[asid] = scheme
        # A local random walk over the mapped pages, but for the last
        # few 4 KiB leaves, which stay free for the drift event to unmap.
        pool = scheme.mapping.frozen().vpns
        pool = pool[(pool < 1520) | (pool >= 2048)]
        steps = rng.integers(-3, 4, int(rng.integers(50, 400)))
        vpns = pool[np.cumsum(steps) % pool.shape[0]].astype(np.int64)
        if event == "unmapped" and asid == tenants:
            vpns[int(rng.integers(0, vpns.shape[0]))] = 10_000
        members.append(TenantRun(name=f"t{asid}", scheme=scheme,
                                 cursor=_Cursor(iter([vpns])), asid=asid))
    if event == "remap":
        # The last tenant's own mapping moves a page: its next sync
        # adopts the new version, cutting the round before it.
        last = members[-1].scheme.mapping
        page = int(last.frozen().vpns[5])

        def remap():
            pfn = last.unmap_page(page)
            last.map_page(page, pfn + 7)
        members[-1].cursor = _HookedCursor(members[-1].cursor, at, remap)
    elif event in SECTION_33_UPDATES:
        # A §3.3 update on the ``target`` tenant, running or not: an
        # incremental shootdown under its own ASID, so its plan has
        # drifted.  Hooked on the first tenant's take (the default), it
        # lands between two rounds, which are also two quanta; hooked on
        # a later tenant's, inside a round.
        victim = members[target % tenants].scheme
        update = SECTION_33_UPDATES[event]
        members[hooked].cursor = _HookedCursor(
            members[hooked].cursor, at, lambda: update(victim))
    storm_every, storm_quantum = storm
    fault = None
    patch = {"base": _base_loop, "scalar": _scalar_loop}.get(
        variant, contextlib.nullcontext)
    with patch():
        try:
            run_schedule(members, quantum=quantum, policy="tagged",
                         storm_every=storm_every, storm_quantum=storm_quantum,
                         registers=DistanceRegisterFile())
        except PageFaultError as exc:
            fault = str(exc)
    state = {
        "stats": [scheme.stats.snapshot() for scheme in schemes],
        "l1": schemes[0].l1.state(),
        "l2": schemes[0].l2.array.state(),
    }
    if pwc:
        pwc_hw = schemes[0].pwc
        state["pwc"] = (pwc_hw.state(), pwc_hw.hits, pwc_hw.probes)
    return fault, state


#: The contaminated-set replay's per-row tag base, and two mutants that
#: drop it: one leaves the small key untagged, one takes the array's
#: tag register (the last tenant switched in) for every row.
ROW_TAG_LINE = "small_keys = (mk << 2) | tb"
ROW_TAG_MUTANTS = ("small_keys = mk << 2",
                   "small_keys = (mk << 2) | array._tag_base")


def _mutated_access_block(replacement):
    """``AnchorScheme.access_block`` with the contaminated-set replay's
    per-row tag base replaced, compiled in the module's namespace."""
    source = textwrap.dedent(inspect.getsource(AnchorScheme.access_block))
    assert source.count(ROW_TAG_LINE) == 1
    namespace = dict(vars(anchor_scheme))
    exec(compile(source.replace(ROW_TAG_LINE, replacement),
                 anchor_scheme.__file__, "exec"), namespace)
    return namespace["access_block"]


#: A contended fleet whose rounds hit contaminated sets of several
#: tenants: the mutation test's input.
MUTATION_FLEET = TenantFleet(size=12, workloads=("gups", "omnetpp"),
                             scenarios=("low", "max"), references=1200,
                             seed=7, mapping_variants=2)


class TestRoundReplay:
    """A tagged fleet replays each scheduling round as one multi-tenant
    block; the base loop (``TranslationScheme.access_block``: each
    tenant's run under its own tag, in order) defines what that block
    means, and the anchor scheme's one replay must match it."""

    @settings(max_examples=10, deadline=None)
    @given(name=st.sampled_from(["anchor-dyn", "anchor-region"]),
           pwc=st.booleans(), quantum=st.integers(20, 400),
           active_pool=st.integers(1, 5),
           storm=st.sampled_from([(0, 0), (2, 37), (3, 5)]),
           seed=st.integers(0, 40))
    def test_fleet_rounds_match_base_loop(self, name, pwc, quantum,
                                          active_pool, storm, seed):
        """Whole fleets: waves of ``active_pool`` tenants, storms, ASID
        recycling, PWC off and on."""
        fleet = TenantFleet(size=6, workloads=("gups", "omnetpp"),
                            scenarios=("low", "max"), references=500,
                            seed=seed, mapping_variants=2)
        knobs = dict(scheme=name, policy="tagged", quantum=quantum,
                     active_pool=active_pool, storm_every=storm[0],
                     storm_quantum=storm[1],
                     machine=dataclasses.replace(DEFAULT_MACHINE, pwc=pwc))
        rounds = simulate_fleet(fleet, **knobs).to_dict()
        with _base_loop():
            base = simulate_fleet(fleet, **knobs).to_dict()
        assert rounds == base

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(["anchor-dyn", "anchor-region"]),
           pwc=st.booleans(), tenants=st.integers(1, 4),
           quantum=st.integers(1, 80),
           storm=st.sampled_from([(0, 0), (2, 7), (3, 1)]),
           seed=st.integers(0, 1000), event=st.sampled_from(EVENTS),
           at=st.integers(1, 4), target=st.integers(0, 3))
    # Filling the hole anchors pages the walk left as resident 4 KiB
    # entries; each example fails a replay that batches a drifted
    # tenant.  The target is not running in the first two, and is the
    # tenant switched in when the update lands in the third.
    @example(name="anchor-dyn", pwc=False, tenants=2, quantum=30,
             storm=(0, 0), seed=4, event="map", at=2, target=0)
    @example(name="anchor-region", pwc=True, tenants=2, quantum=30,
             storm=(0, 0), seed=6, event="map", at=2, target=0)
    @example(name="anchor-dyn", pwc=False, tenants=3, quantum=60,
             storm=(0, 0), seed=0, event="map", at=2, target=2)
    def test_round_cuts_match_base_loop_and_quanta(
            self, name, pwc, tenants, quantum, storm, seed, event, at,
            target):
        """Round replay, the base loop, one block per quantum and the
        scalar loop end in the same stats and shared state — through a
        mapping remapped between quanta (the round is cut before that
        tenant's sync), a block with an unmapped page (the page fault,
        raised by the scalar loop) and a §3.3 ``unmap_page``,
        ``map_page`` or ``protect_page`` on a drawn tenant, switched in
        or not (its rounds run the base loop until its next flush)."""
        runs = [_run_round_fleet(name, pwc, tenants, quantum, storm, seed,
                                 event, at, variant, target)
                for variant in ("rounds", "base", "quanta", "scalar")]
        assert runs[0] == runs[1] == runs[2] == runs[3]
        if event == "unmapped":
            assert runs[0][0] is not None

    @pytest.mark.parametrize("target", [0, 1, 2])
    @pytest.mark.parametrize("event", sorted(SECTION_33_UPDATES))
    def test_mid_round_update_raises(self, event, target):
        """A §3.3 update between two quanta of one round (hooked on the
        last tenant's second take) resyncs its scheme at once, so its
        plan edit and shootdown would land before the round's earlier
        quanta replay: the round raises, naming the tenant, instead of
        replaying out of order.  One block per quantum runs it in
        order."""
        for seed in range(3):
            args = ("anchor-dyn", False, 3, 30, (0, 0), seed, event, 2)
            with pytest.raises(MappingError,
                               match=f"tenant 't{target + 1}' adopted"):
                _run_round_fleet(*args, "rounds", target, hooked=2)
            fault, _ = _run_round_fleet(*args, "quanta", target, hooked=2)
            assert fault is None

    def test_rounds_route_through_one_call(self):
        """Each round is one ``access_block`` call of tagged rows."""
        calls = []
        original = AnchorScheme.access_block

        def spy(self, vpns):
            calls.append(self._tenant_runs(vpns) is not None)
            return original(self, vpns)

        with mock.patch.object(AnchorScheme, "access_block", spy):
            fault, _ = _run_round_fleet("anchor-dyn", False, 3, 40, (0, 0),
                                        1, "none", 1, "rounds")
        assert fault is None
        assert calls and all(calls)

    @pytest.mark.parametrize("replacement", ROW_TAG_MUTANTS)
    def test_dropping_row_tags_fails_the_differential(self, replacement):
        """The differential is tight: a replay whose contaminated sets
        lose their per-row tag base no longer matches the base loop."""
        knobs = dict(scheme="anchor-dyn", policy="tagged", quantum=150,
                     active_pool=4)
        with _base_loop():
            base = simulate_fleet(MUTATION_FLEET, **knobs).to_dict()
        assert simulate_fleet(MUTATION_FLEET, **knobs).to_dict() == base
        with mock.patch.object(AnchorScheme, "access_block",
                               _mutated_access_block(replacement)):
            mutant = simulate_fleet(MUTATION_FLEET, **knobs).to_dict()
        assert mutant != base


class TestDistanceRegisterFile:
    def test_save_restore_roundtrip(self):
        registers = DistanceRegisterFile()
        assert registers.restore("t0") is None
        registers.save("t0", 64)
        registers.save("t1", 4)
        assert registers.restore("t0") == 64
        assert registers.saves == 2 and registers.restores == 1
        assert "t1" in registers and len(registers) == 2
        assert registers.to_dict() == {"t0": 64, "t1": 4}

    def test_rejects_invalid_distance(self):
        with pytest.raises(ValueError):
            DistanceRegisterFile().save("t0", 0)

    def test_per_tenant_distances_survive_switches(self):
        """§3.1 at fleet scale: tenants with very different mappings keep
        their own anchor distances across every context switch."""
        big = MemoryMapping()
        big.map_run(0, FrameRange((1 << 22) + 1, 8192))
        small = MemoryMapping()
        cursor = 1 << 24
        for vpn in range(2048):
            if vpn % 4 == 0:
                cursor += 3
            small.map_page(vpn, cursor)
            cursor += 1

        rng = np.random.default_rng(8)
        members = [
            TenantRun("big", AnchorScheme(big),
                      _Cursor(iter([rng.integers(0, 8192, 2000)
                                    .astype(np.int64)]))),
            TenantRun("small", AnchorScheme(small),
                      _Cursor(iter([rng.integers(0, 2048, 2000)
                                    .astype(np.int64)]))),
        ]
        for i, member in enumerate(members):
            member.asid = i + 1
        expected = {m.name: m.scheme.distance for m in members}
        assert expected["big"] >= 1024 and expected["small"] <= 8
        run_schedule(members, quantum=250, policy="tagged",
                     registers=DistanceRegisterFile())
        for member in members:
            assert member.scheme.distance == expected[member.name]


@pytest.mark.skipif(
    not os.environ.get("ANCHOR_TLB_FLEET_10K"),
    reason="10k-tenant bounded-memory run; set ANCHOR_TLB_FLEET_10K=1",
)
def test_ten_thousand_tenant_fleet_bounded_memory():
    """ISSUE acceptance: a 10,000-tenant fleet completes with peak RSS
    O(epoch x active pool), not O(tenants)."""
    before = peak_rss_bytes()
    fleet = TenantFleet(size=10_000, workloads=("gups", "mcf"),
                        references=1_000, seed=1, mapping_variants=2)
    result = simulate_fleet(fleet, scheme="base", policy="tagged",
                            quantum=1_000, active_pool=8)
    assert result.executed == 10_000 * 1_000
    assert result.waves == 10_000 // 8
    assert result.per_tenant is None  # details elided at this scale
    # 10k tenants' traces would be ~80 MB each if materialised together;
    # the wave scheduler must stay within a small constant overhead.
    growth = peak_rss_bytes() - before
    assert growth < 512 * 1024 * 1024, f"peak RSS grew by {growth} bytes"
