"""Tests for anchor lookups on the shared L2 (paper Fig. 5/6, Table 2)."""

import pytest

from repro.hw.anchor_tlb import AnchorL2TLB
from repro.params import DEFAULT_MACHINE


@pytest.fixture
def l2():
    return AnchorL2TLB(DEFAULT_MACHINE, distance=16)


class TestRegularEntries:
    def test_small_roundtrip(self, l2):
        assert l2.lookup_small(5) is None
        l2.fill_small(5, 99)
        assert l2.lookup_small(5) == 99

    def test_huge_roundtrip(self, l2):
        l2.fill_huge(3, 1536)
        assert l2.lookup_huge(3) == 1536

    def test_kinds_do_not_alias(self, l2):
        l2.fill_small(8, 1)
        l2.fill_huge(8, 2)
        l2.fill_anchor(0, 3, 16)   # avpn 0 governs vpn 8 at distance 16
        assert l2.lookup_small(8) == 1
        assert l2.lookup_huge(8) == 2
        assert l2.lookup_anchor(8) == 3 + 8


class TestAnchorLookup:
    def test_anchor_hit_arithmetic(self, l2):
        # Anchor at avpn 32 with APPN 4096, contiguity 10.
        l2.fill_anchor(32, 4096, 10)
        assert l2.lookup_anchor(32) == 4096
        assert l2.lookup_anchor(37) == 4101
        assert l2.lookup_anchor(41) == 4105

    def test_contiguity_miss(self, l2):
        """Table 2 row 3: anchor resident but VPN outside its block."""
        l2.fill_anchor(32, 4096, 10)
        assert l2.lookup_anchor(42) is None
        assert l2.lookup_anchor(47) is None

    def test_absent_anchor_misses(self, l2):
        assert l2.lookup_anchor(100) is None

    def test_lookup_uses_own_window_only(self, l2):
        # VPN 50's anchor is 48, not 32 — a resident anchor at 32 with
        # huge contiguity must not serve it (the HW only probes AVPN).
        l2.fill_anchor(32, 4096, 16)
        assert l2.lookup_anchor(50) is None

    def test_index_spreads_consecutive_anchors(self):
        """Fig. 6: consecutive AVPNs map to consecutive sets."""
        l2 = AnchorL2TLB(DEFAULT_MACHINE, distance=1024)
        sets = l2.array.sets
        # Insert more anchors than one set could hold; with the d-shifted
        # index they spread and all stay resident.
        for i in range(l2.array.ways + 4):
            l2.fill_anchor(i * 1024, i * 10_000, 1024)
        hits = sum(
            l2.lookup_anchor(i * 1024) is not None
            for i in range(l2.array.ways + 4)
        )
        assert hits == l2.array.ways + 4
        assert sets >= 12  # sanity: spreading was possible

    def test_register_load_flushes_nothing(self, l2):
        """A §3.1 register load keeps every entry: a tenant's entries
        were made under the distance it loads.  The §3.3 flush after a
        change is the scheme's own, under its ASID."""
        l2.fill_anchor(32, 4096, 16)
        l2.fill_small(5, 1)
        l2.restore_distance(64)
        assert l2.distance == 64
        assert l2.lookup_small(5) == 1
        l2.restore_distance(16)
        assert l2.lookup_anchor(32) == 4096

    def test_invalid_distance(self, l2):
        with pytest.raises(ValueError):
            l2.restore_distance(3)
        with pytest.raises(ValueError):
            l2.restore_distance(0)

    def test_capacity_shared_between_kinds(self):
        l2 = AnchorL2TLB(DEFAULT_MACHINE, distance=2)
        # Fill one set (index 0 of 128) with 8 small entries keyed to
        # collide, then an anchor keyed into the same set evicts LRU.
        for i in range(8):
            l2.fill_small(i * 128, i)
        l2.fill_anchor(0, 999, 2)
        resident = sum(l2.lookup_small(i * 128) is not None for i in range(8))
        assert resident == 7
        assert l2.lookup_anchor(0) == 999
