"""Tests for OS mapping updates flowing through the anchor scheme:
incremental page-table maintenance plus targeted TLB shootdowns."""

import numpy as np
import pytest

from repro.errors import PageFaultError
from repro.mem.frames import FrameRange
from repro.schemes.anchor_scheme import AnchorScheme
from repro.vmos.mapping import MemoryMapping

PROT_R = 0b01


def new_scheme():
    mapping = MemoryMapping()
    mapping.map_run(0, FrameRange(10_000, 64))
    return AnchorScheme(mapping, distance=16)


@pytest.fixture
def scheme():
    return new_scheme()


def count_scalar_accesses(scheme, monkeypatch):
    """Record every reference the scheme's scalar ``access`` serves."""
    served = []
    access = scheme.access

    def counted(vpn):
        served.append(vpn)
        return access(vpn)

    monkeypatch.setattr(scheme, "access", counted)
    return served


class TestUnmap:
    def test_unmap_invalidates_translation(self, scheme):
        scheme.access(20)
        assert scheme.unmap_page(20) == 10_020
        with pytest.raises(PageFaultError):
            scheme.translate(20)
        with pytest.raises(PageFaultError):
            scheme.access(20)

    def test_unmap_shoots_down_spanning_anchors(self, scheme):
        scheme.access(0)     # anchor@0 resident (cont 64)
        scheme.unmap_page(40)
        scheme.l1.flush()
        # A page left of the hole must NOT be served by the stale anchor
        # (it would still translate correctly, but the shootdown is what
        # the paper requires); the next access walks and refills with
        # the truncated contiguity.
        assert scheme.access(8) == scheme.config.latency.page_walk
        scheme.l1.flush()
        assert scheme.access(8) == scheme.config.latency.coalesced_hit
        # Pages beyond the truncated window now contiguity-miss.
        assert scheme.translate(41) == 10_041

    def test_unmap_records_shootdown(self, scheme):
        scheme.unmap_page(5)
        assert len(scheme.shootdowns.events) == 1

    def test_remaining_pages_translate(self, scheme):
        scheme.unmap_page(31)
        for vpn in (0, 30, 32, 63):
            assert scheme.translate(vpn) == 10_000 + vpn


class TestMap:
    def test_map_then_access(self, scheme):
        scheme.unmap_page(10)
        scheme.map_page(10, 77_000)
        assert scheme.translate(10) == 77_000
        assert scheme.access(10) == scheme.config.latency.page_walk

    def test_remap_merges_anchor_coverage(self, scheme):
        scheme.unmap_page(10)
        scheme.map_page(10, 10_010)  # restore the original frame
        directory = scheme.directory
        assert directory.anchor_contiguity[0] == 64


class TestProtect:
    def test_protect_splits_anchor_coverage(self, scheme):
        scheme.protect_page(20, PROT_R)
        directory = scheme.directory
        assert directory.anchor_contiguity[16] == 4   # stops at 20
        assert directory.anchor_contiguity[0] == 20
        # Translation is still correct everywhere.
        for vpn in (19, 20, 21):
            assert scheme.translate(vpn) == 10_000 + vpn

    def test_protected_page_not_anchor_served(self, scheme):
        scheme.protect_page(20, PROT_R)
        scheme.access(16)  # anchor@16 resident, cont 4
        scheme.l1.flush()
        assert scheme.access(20) == scheme.config.latency.page_walk


class TestBlockPathInvariant:
    """The batched replay assumes every L2 entry under the scheme's tag
    is what the current plan would fill.  An incremental update's
    targeted shootdown breaks that, so blocks run the scalar loop until
    the next replan or flush restores it."""

    BLOCK = np.array([v for v in range(64) if v != 20] * 2, dtype=np.int64)

    def test_update_sends_blocks_to_the_scalar_loop(self, monkeypatch):
        batched, scalar = new_scheme(), new_scheme()
        batched.access_block(np.arange(64, dtype=np.int64))
        for vpn in range(64):
            scalar.access(vpn)
        for twin in (batched, scalar):
            twin.unmap_page(20)
        served = count_scalar_accesses(batched, monkeypatch)
        batched.access_block(self.BLOCK)
        assert len(served) == self.BLOCK.size
        for vpn in self.BLOCK.tolist():
            scalar.access(vpn)
        assert batched.stats.snapshot() == scalar.stats.snapshot()
        assert batched.l1.state() == scalar.l1.state()
        assert batched.l2.array.state() == scalar.l2.array.state()

    def test_replan_returns_to_the_batched_path(self, scheme, monkeypatch):
        scheme.access_block(np.arange(64, dtype=np.int64))
        scheme.unmap_page(20)
        scheme.rebuild(scheme.mapping)
        served = count_scalar_accesses(scheme, monkeypatch)
        scheme.access_block(self.BLOCK)
        assert served == []
        assert scheme.stats.accesses == 64 + self.BLOCK.size

    def test_flush_returns_to_the_batched_path(self, monkeypatch):
        # A flush empties the tenant's L2 entries, so nothing resident
        # can disagree with the edited plan any more.
        batched, scalar = new_scheme(), new_scheme()
        batched.access_block(np.arange(64, dtype=np.int64))
        for vpn in range(64):
            scalar.access(vpn)
        for twin in (batched, scalar):
            twin.unmap_page(20)
            twin.flush()
        served = count_scalar_accesses(batched, monkeypatch)
        batched.access_block(self.BLOCK)
        assert served == []
        for vpn in self.BLOCK.tolist():
            scalar.access(vpn)
        assert batched.stats.snapshot() == scalar.stats.snapshot()
        assert batched.l1.state() == scalar.l1.state()
        assert batched.l2.array.state() == scalar.l2.array.state()
