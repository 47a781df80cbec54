"""Tests for §3.3 permission handling: protection changes break coalescing."""

import pytest

from repro.errors import MappingError
from repro.mem.frames import FrameRange
from repro.vmos.anchor import AnchorDirectory
from repro.vmos.mapping import DEFAULT_PROT, MemoryMapping

PROT_R = 0b01
PROT_RX = 0b101


@pytest.fixture
def mapping():
    m = MemoryMapping()
    m.map_run(0, FrameRange(1000, 64))
    return m


class TestMappingProtections:
    def test_default_protection(self, mapping):
        assert mapping.protection_of(0) == DEFAULT_PROT

    def test_set_protection_splits_chunks(self, mapping):
        assert len(mapping.chunks()) == 1
        mapping.set_protection(16, 8, PROT_R)
        sizes = [c.pages for c in mapping.chunks()]
        assert sizes == [16, 8, 40]

    def test_revert_protection_remerges(self, mapping):
        mapping.set_protection(16, 8, PROT_R)
        mapping.set_protection(16, 8, DEFAULT_PROT)
        assert len(mapping.chunks()) == 1

    def test_set_protection_unmapped_rejected(self, mapping):
        with pytest.raises(MappingError):
            mapping.set_protection(63, 2, PROT_R)

    def test_failed_set_protection_changes_nothing(self):
        m = MemoryMapping()
        m.map_run(0, FrameRange(100, 8))
        assert [(c.vpn, c.pages) for c in m.chunks()] == [(0, 8)]
        frozen, version = m.frozen(), m.version
        with pytest.raises(MappingError, match="0x8 not mapped"):
            m.set_protection(6, 4, PROT_R)
        assert m._prot == {} and m.version == version
        assert m._map == {v: 100 + v for v in range(8)}
        assert [(c.vpn, c.pages) for c in m.chunks()] == [(0, 8)]
        assert m.frozen() is frozen
        # The valid prefix alone applies and splits the chunk.
        m.set_protection(6, 2, PROT_R)
        assert [(c.vpn, c.pages) for c in m.chunks()] == [(0, 6), (6, 2)]

    def test_failed_revert_keeps_existing_protections(self, mapping):
        mapping.set_protection(60, 4, PROT_R)
        version = mapping.version
        with pytest.raises(MappingError):
            mapping.set_protection(60, 8, DEFAULT_PROT)
        assert mapping._prot == dict.fromkeys(range(60, 64), PROT_R)
        assert mapping.version == version
        assert [c.pages for c in mapping.chunks()] == [60, 4]

    def test_map_with_protection(self):
        m = MemoryMapping()
        m.map_page(0, 10)
        m.map_page(1, 11, prot=PROT_RX)
        m.map_page(2, 12)
        assert len(m.chunks()) == 3

    def test_unmap_clears_protection(self, mapping):
        mapping.set_protection(5, 1, PROT_R)
        mapping.unmap_page(5)
        mapping.map_page(5, 1005)
        assert mapping.protection_of(5) == DEFAULT_PROT


class TestAnchorsRespectProtections:
    def test_anchor_contiguity_stops_at_protection_change(self, mapping):
        mapping.set_protection(20, 4, PROT_R)
        directory = AnchorDirectory.build(mapping, 16, enable_thp=False)
        # Anchor at 16: run [16, 20) only.
        assert directory.anchor_contiguity[16] == 4
        # Anchor at 0 stops at 16? No: [0, 20) is uniform... the change
        # is at 20, so anchor 0 covers 20 pages.
        assert directory.anchor_contiguity[0] == 20

    def test_translate_not_served_across_protection_boundary(self, mapping):
        mapping.set_protection(20, 4, PROT_R)
        directory = AnchorDirectory.build(mapping, 16, enable_thp=False)
        # vpn 21 has prot R; its anchor (16) covers only [16, 20).
        assert directory.translate_via_anchor(21) is None
        # vpn 36 (back to default prot, run [24, 64)): anchor at 32.
        assert directory.translate_via_anchor(36) == 1036

    def test_note_protect_incremental_matches_rebuild(self, mapping):
        directory = AnchorDirectory.build(mapping, 16, enable_thp=False)
        directory.note_protect(20, PROT_R)
        mapping.set_protection(20, 1, PROT_R)
        rebuilt = AnchorDirectory.build(mapping, 16, enable_thp=False)
        assert directory.anchor_contiguity == rebuilt.anchor_contiguity

    def test_note_protect_revert_matches_rebuild(self, mapping):
        directory = AnchorDirectory.build(mapping, 16, enable_thp=False)
        directory.note_protect(20, PROT_R)
        directory.note_protect(20, DEFAULT_PROT)
        rebuilt = AnchorDirectory.build(mapping, 16, enable_thp=False)
        assert directory.anchor_contiguity == rebuilt.anchor_contiguity
