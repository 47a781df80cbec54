"""Tests for MemoryMapping and its chunk extraction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MappingError, PageFaultError
from repro.mem.frames import FrameRange
from repro.vmos.mapping import MemoryMapping


class TestMappingBasics:
    def test_map_translate(self):
        m = MemoryMapping()
        m.map_page(10, 20)
        assert m.translate(10) == 20
        assert m.get(11) is None
        assert 10 in m and 11 not in m

    def test_double_map_rejected(self):
        m = MemoryMapping()
        m.map_page(1, 1)
        with pytest.raises(MappingError):
            m.map_page(1, 2)

    def test_translate_unmapped_faults(self):
        with pytest.raises(PageFaultError):
            MemoryMapping().translate(5)

    def test_map_run(self):
        m = MemoryMapping()
        m.map_run(100, FrameRange(500, 4))
        assert [m.translate(100 + i) for i in range(4)] == [500, 501, 502, 503]

    def test_unmap(self):
        m = MemoryMapping()
        m.map_page(1, 9)
        assert m.unmap_page(1) == 9
        assert 1 not in m
        with pytest.raises(MappingError):
            m.unmap_page(1)

    def test_items_sorted(self):
        m = MemoryMapping()
        m.map_page(5, 50)
        m.map_page(1, 10)
        assert list(m.items()) == [(1, 10), (5, 50)]

    def test_map_run_bumps_version_once(self):
        m = MemoryMapping()
        m.map_run(0, FrameRange(100, 64))
        assert m.version == 1
        m.map_run(64, FrameRange(900, 8), prot=0b01)
        assert m.version == 2
        assert [m.protection_of(v) for v in (63, 64, 71)] == [0b11, 0b01, 0b01]

    def test_overlapping_map_run_maps_nothing(self):
        m = MemoryMapping()
        m.map_run(10, FrameRange(100, 8))
        m.set_protection(12, 2, 0b01)
        chunks, frozen = list(m.chunks()), m.frozen()
        table, prot, version = dict(m._map), dict(m._prot), m.version
        # Each run's free prefix ([4, 10) and [6, 10)) stays unmapped.
        with pytest.raises(MappingError, match="0xa already mapped"):
            m.map_run(4, FrameRange(500, 8))
        with pytest.raises(MappingError, match="0xa already mapped"):
            m.map_run(6, FrameRange(500, 8), prot=0b101)
        assert m._map == table and list(m._map) == list(table)
        assert m._prot == prot and m.version == version
        assert m.chunks() == chunks and m.frozen() is frozen
        assert not any(v in m for v in range(4, 10))

    def test_equality_ignores_derived_views(self):
        a, b = MemoryMapping(), MemoryMapping()
        for m in (a, b):
            m.map_run(0, FrameRange(100, 8))
        assert a == b
        a.chunks()
        a.frozen()
        assert a == b and b == a
        b.map_page(8, 108)
        assert a != b

    def test_as_dict_shim_is_gone(self):
        # The deprecated shim was deleted once no caller was left.
        assert not hasattr(MemoryMapping, "as_dict")


class TestChunks:
    def test_single_chunk(self):
        m = MemoryMapping()
        m.map_run(10, FrameRange(100, 5))
        chunks = m.chunks()
        assert len(chunks) == 1
        assert (chunks[0].vpn, chunks[0].pfn, chunks[0].pages) == (10, 100, 5)

    def test_physical_break_splits(self):
        m = MemoryMapping()
        m.map_page(10, 100)
        m.map_page(11, 200)
        assert len(m.chunks()) == 2

    def test_virtual_gap_splits(self):
        m = MemoryMapping()
        m.map_page(10, 100)
        m.map_page(12, 101)
        assert len(m.chunks()) == 2

    def test_chunks_cache_invalidated_on_mutation(self):
        m = MemoryMapping()
        m.map_run(0, FrameRange(10, 4))
        assert len(m.chunks()) == 1
        m.map_page(4, 999)
        assert len(m.chunks()) == 2
        m.unmap_page(4)
        assert len(m.chunks()) == 1

    def test_chunk_covering(self):
        m = MemoryMapping()
        m.map_run(10, FrameRange(100, 5))
        chunk = m.chunk_covering(12)
        assert chunk is not None and chunk.vpn == 10
        assert m.chunk_covering(99) is None

    def test_descending_physical_not_merged(self):
        m = MemoryMapping()
        m.map_page(10, 101)
        m.map_page(11, 100)
        assert len(m.chunks()) == 2

    @given(st.lists(st.integers(1, 12), min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_property_chunks_partition_pages(self, sizes):
        m = MemoryMapping()
        vpn, pfn = 0, 10_000
        for size in sizes:
            m.map_run(vpn, FrameRange(pfn, size))
            vpn += size + 1   # virtual gap
            pfn += size + 7   # physical gap
        chunks = m.chunks()
        assert sum(c.pages for c in chunks) == m.mapped_pages
        assert [c.pages for c in chunks] == sizes
        # Every page translates consistently with its chunk.
        for chunk in chunks:
            for i in range(chunk.pages):
                assert m.translate(chunk.vpn + i) == chunk.pfn + i


class TestFrozenMapping:
    @staticmethod
    def _fragmented():
        m = MemoryMapping()
        m.map_run(10, FrameRange(100, 5))
        m.map_run(20, FrameRange(200, 8))
        m.map_run(28, FrameRange(300, 3))   # VA-adjacent, PA break
        m.map_run(40, FrameRange(311, 4))
        m.set_protection(22, 2, 0b01)       # protection island mid-run
        return m

    def test_translate_block_matches_scalar(self):
        import numpy as np

        m = self._fragmented()
        frozen = m.frozen()
        queries = np.arange(0, 60, dtype=np.int64)
        pfns, found = frozen.translate_block(queries)
        for q, p, f in zip(queries.tolist(), pfns.tolist(), found.tolist()):
            assert f == (q in m)
            if f:
                assert p == m.translate(q)
        assert frozen.mask(queries).tolist() == found.tolist()
        assert not frozen.contains_all(queries)
        assert frozen.contains_all(queries[found])

    def test_chunks_split_at_protection_runs_do_not(self):
        import numpy as np

        m = self._fragmented()
        frozen = m.frozen()
        # chunk_* mirrors mapping.chunks() (protection-aware) ...
        chunks = m.chunks()
        assert frozen.chunk_vpn.tolist() == [c.vpn for c in chunks]
        assert frozen.chunk_pages.tolist() == [c.pages for c in chunks]
        # ... while run_* ignores protection: [20, 28) stays one run.
        runs = dict(zip(frozen.run_vpn.tolist(), frozen.run_pages.tolist()))
        assert runs[20] == 8
        assert any(c.vpn == 22 for c in chunks)
        # Interval lookups agree with membership.
        probe = np.asarray([10, 14, 15, 21, 27, 28, 41, 99], dtype=np.int64)
        run_idx = frozen.run_of(probe)
        chunk_idx = frozen.chunk_of(probe)
        for q, r, c in zip(probe.tolist(), run_idx.tolist(), chunk_idx.tolist()):
            assert (r >= 0) == (q in m)
            assert (c >= 0) == (q in m)
            if c >= 0:
                assert m.chunk_covering(q).vpn == int(frozen.chunk_vpn[c])

    def test_page_table_is_live_reference(self):
        m = self._fragmented()
        frozen = m.frozen()
        assert frozen.page_table is m._map
        assert frozen.get(10) == 100
        assert 10 in frozen and 9 not in frozen
        assert len(frozen) == m.mapped_pages

    def test_empty_mapping(self):
        import numpy as np

        frozen = MemoryMapping().frozen()
        queries = np.asarray([1, 2], dtype=np.int64)
        assert not frozen.contains_all(queries)
        assert frozen.mask(queries).tolist() == [False, False]
        assert frozen.run_of(queries).tolist() == [-1, -1]
        assert len(frozen) == 0
