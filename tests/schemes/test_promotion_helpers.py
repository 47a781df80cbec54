"""Edge-case tests for the huge/giga promotion helpers."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.frames import FrameRange
from repro.schemes.base import promote_giga_pages, promote_huge_pages
from repro.vmos.mapping import MemoryMapping


def _dicts(promote, mapping):
    """A promotion's :class:`KeyIndex` plans as dicts."""
    return tuple(index.table() for index in promote(mapping))


class TestPromoteHugePages:
    def test_empty_mapping(self):
        huge, small = _dicts(promote_huge_pages, MemoryMapping())
        assert not huge and not small

    def test_exact_window(self):
        mapping = MemoryMapping()
        mapping.map_run(512, FrameRange(1024, 512))
        huge, small = _dicts(promote_huge_pages, mapping)
        assert set(huge) == {512} and not small

    def test_one_page_short_of_a_window(self):
        mapping = MemoryMapping()
        mapping.map_run(512, FrameRange(1024, 511))
        huge, small = _dicts(promote_huge_pages, mapping)
        assert not huge and len(small) == 511

    def test_protection_split_blocks_promotion(self):
        mapping = MemoryMapping()
        mapping.map_run(512, FrameRange(1024, 512))
        mapping.set_protection(700, 1, 0b01)
        huge, small = _dicts(promote_huge_pages, mapping)
        assert not huge
        assert len(small) == 512

    def test_multiple_chunks_independent(self):
        mapping = MemoryMapping()
        mapping.map_run(512, FrameRange(1024, 512))       # promotable
        mapping.map_run(2048, FrameRange(9001, 512))      # phase off
        huge, small = _dicts(promote_huge_pages, mapping)
        assert set(huge) == {512}
        assert len(small) == 512

    @given(st.integers(0, 600), st.integers(1, 1600))
    @settings(max_examples=40, deadline=None)
    def test_property_partition_is_exact(self, start, pages):
        mapping = MemoryMapping()
        mapping.map_run(start, FrameRange(4096 + start, pages))
        huge, small = _dicts(promote_huge_pages, mapping)
        covered = len(small) + 512 * len(huge)
        assert covered == pages
        # Every page translates identically through the partition.
        for vpn, pfn in mapping.items():
            window = vpn & ~511
            if window in huge:
                assert huge[window] + (vpn - window) == pfn
            else:
                assert small[vpn] == pfn


class TestPromoteGigaPages:
    def test_empty_mapping(self):
        giga, rest = _dicts(promote_giga_pages, MemoryMapping())
        assert not giga and not rest

    def test_partition_is_exact(self):
        giga_pages = 512 * 512
        mapping = MemoryMapping()
        mapping.map_run(0, FrameRange(0, giga_pages + 700))
        giga, rest = _dicts(promote_giga_pages, mapping)
        assert set(giga) == {0}
        assert len(rest) == 700
