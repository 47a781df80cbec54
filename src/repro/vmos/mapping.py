"""The virtual-to-physical memory mapping of one process.

This is the paper's central object of study: the function
``VPN -> PFN`` whose *contiguity structure* decides how well each
translation scheme can coalesce.  A mapping is born as sorted int64
``vpns``/``pfns`` columns (a builder hands over its ``(vpn, pfn,
pages)`` runs in one :meth:`MemoryMapping.map_runs` call) plus the VMA
list; the per-page dict is built only for scalar reads and in-place
edits.  The class offers the derived views everything else consumes:
maximal contiguous chunks, the contiguity histogram, and ground-truth
translation for the differential tests.  :class:`KeyIndex` is the one
bulk lookup over page-keyed arrays, and the form every coverage plan
takes.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro import sanitize
from repro.errors import MappingError, PageFaultError
from repro.mem.frames import FrameRange
from repro.vmos.vma import VMA


@dataclass(frozen=True)
class Chunk:
    """A maximal run of pages contiguous in both VA and PA."""

    vpn: int
    pfn: int
    pages: int

    @property
    def end_vpn(self) -> int:
        return self.vpn + self.pages


#: Default page protection: present + read/write (see PTEFlags).
DEFAULT_PROT = 0b11

#: A key set gets a direct-indexed row table while its grid has at most
#: this many slots per key plus ``_TABLE_SLACK``, which bounds the int32
#: table at 16 bytes per key plus 16 KiB.  Sparser sets (one VMA far
#: from the rest) keep ``searchsorted``.
_SLOTS_PER_KEY = 4
_TABLE_SLACK = 4096


class KeyIndex:
    """Sorted unique int64 ``keys``, their parallel ``values``, and the
    row of any query key in one gather.

    The keys lie on the grid ``base + (i << shift)``: ``base`` is the
    smallest key and ``shift`` the trailing zero bits every ``key -
    base`` shares (0 for pages, 9 for 2 MiB window bases, log2(d) for
    the anchors of one distance d).  ``rows[i + 1]`` holds the row of
    the key at grid slot ``i``, or -1 for a hole; a -1 slot at each end
    catches every query below ``base``, past the last key or off the
    grid.  A contiguous key set is the grid without holes.  When the
    grid would exceed the table bound ``rows`` is None and queries take
    ``searchsorted``; both paths return the same rows.
    """

    __slots__ = ("keys", "values", "origin", "shift", "rows")

    def __init__(self, keys: np.ndarray, values: np.ndarray) -> None:
        self.keys = keys
        self.values = values
        count = keys.shape[0]
        base = int(keys[0]) if count else 0
        offsets = keys - base
        spread = int(np.bitwise_or.reduce(offsets))
        shift = (spread & -spread).bit_length() - 1 if spread else 0
        span = (int(offsets[-1]) >> shift) + 1 if count else 0
        self.shift = shift
        #: The grid point one slot below ``base``: a query's distance
        #: from it, in grid steps, is its index into ``rows``.
        self.origin = base - (1 << shift)
        self.rows: np.ndarray | None = None
        if span <= _SLOTS_PER_KEY * count + _TABLE_SLACK:
            # In place: the offsets become table slots (index builds
            # sit on every mapping compile and scheme construction).
            if shift:
                offsets >>= shift
            offsets += 1
            rows = np.full(span + 2, -1, dtype=np.int32)
            rows[offsets] = np.arange(count, dtype=np.int32)
            self.rows = rows

    def rows_of(self, queries: np.ndarray) -> np.ndarray:
        """Each query's row in ``keys``, -1 where it is not a key."""
        rows = self.rows
        if rows is None:
            keys = self.keys
            at = np.minimum(np.searchsorted(keys, queries), keys.shape[0] - 1)
            return np.where(keys[at] == queries, at, -1)
        slot = np.subtract(queries, self.origin, dtype=np.int64)
        if self.shift:
            # Rotate right by the shift: an off-grid query's low bits
            # land on top, past one end of the table like any query
            # outside the grid, where the clip meets a -1.
            wide = slot.view(np.uint64)
            slot = ((wide >> self.shift) | (wide << (64 - self.shift))).view(np.int64)
        return rows.take(slot, mode="clip")

    def values_of(self, rows: np.ndarray, default: int = 0) -> np.ndarray:
        """``values[rows]``, with ``default`` where a row is -1."""
        if self.values.shape[0] == 0:
            return np.full(rows.shape, default, dtype=np.int64)
        return np.where(rows >= 0, self.values.take(rows), default)

    def lookup(
        self, queries: np.ndarray, default: int = 0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised dict lookup: ``(values, found)`` per query, with
        ``default`` for the missing ones."""
        rows = self.rows_of(queries)
        return self.values_of(rows, default), rows >= 0

    def mask(self, queries: np.ndarray) -> np.ndarray:
        """Per-query membership."""
        return self.rows_of(queries) >= 0

    def contains_all(self, queries: np.ndarray) -> bool:
        """True when every query is a key (the fast-path pre-check)."""
        return queries.size == 0 or int(self.rows_of(queries).min()) >= 0

    def table(self) -> dict[int, int]:
        """The index as a dict of Python ints, in ascending key order:
        the scalar view of a plan."""
        return dict(zip(self.keys.tolist(), self.values.tolist()))


def empty_index() -> KeyIndex:
    """A :class:`KeyIndex` with no keys."""
    return KeyIndex(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


def sorted_arrays(table: dict[int, int]) -> KeyIndex:
    """A dict of int -> int as a :class:`KeyIndex`: re-indexes a plan
    that an in-place §3.3 edit changed."""
    keys = np.fromiter(table.keys(), dtype=np.int64, count=len(table))
    values = np.fromiter(table.values(), dtype=np.int64, count=len(table))
    order = np.argsort(keys)
    return KeyIndex(keys[order], values[order])


class FrozenMapping:
    """A compiled, read-only view of one :class:`MemoryMapping` version.

    The batched engine needs the mapping as numpy arrays (bulk
    translation through the page :class:`KeyIndex`, run lookups) rather
    than as a dict; compiling that view per reference block would
    dominate the fast path, and the per-scheme dict snapshots it
    replaced went silently stale when the mapping mutated.  A
    ``FrozenMapping`` is
    compiled once per :attr:`MemoryMapping.version` and shared by every
    scheme over the same mapping (see :meth:`MemoryMapping.frozen`);
    consumers compare ``frozen.version`` against ``mapping.version`` to
    detect staleness (``TranslationScheme.sync_mapping`` does exactly
    that).  It adopts the mapping's own sorted columns, so an unmutated
    mapping compiles without reading a dict.

    Two run decompositions are exposed because the hardware models need
    both:

    * **chunks** — maximal VA/PA-contiguous runs *split at protection
      changes*, the only chunk decomposition: :meth:`MemoryMapping.chunks`
      is a view of it (what RMM's range table and the anchor directory
      see);
    * **runs** — maximal VA/PA-contiguous runs ignoring protection
      (what CoLT/cluster fill logic sees: ``build_colt_entry`` inspects
      raw PTE adjacency only).
    """

    __slots__ = (
        "version",
        "vpns",
        "pfns",
        "chunk_vpn",
        "chunk_pfn",
        "chunk_pages",
        "run_vpn",
        "run_pfn",
        "run_pages",
        "index",
        "_chunks",
    )

    def __init__(self, mapping: "MemoryMapping") -> None:
        self.version = mapping.version
        self.vpns, self.pfns = vpns, pfns = mapping._columns()
        count = vpns.shape[0]
        #: The page index over the two columns themselves (no copies).
        self.index = KeyIndex(vpns, pfns)
        # Runs break on a VPN or PFN gap; chunks also where the
        # protection changes, which only ``_prot`` entries can cause.
        boundary = np.ones(count, dtype=bool)
        np.not_equal(vpns[1:], vpns[:-1] + 1, out=boundary[1:])
        boundary[1:] |= pfns[1:] != pfns[:-1] + 1
        self.run_vpn, self.run_pfn, self.run_pages = _runs(vpns, pfns, boundary)
        self.chunk_vpn, self.chunk_pfn, self.chunk_pages = (
            self.run_vpn, self.run_pfn, self.run_pages)
        if mapping._prot:
            prot = np.full(count, DEFAULT_PROT, dtype=np.int64)
            marked = np.fromiter(mapping._prot, dtype=np.int64)
            prot[self.index.rows_of(marked)] = list(mapping._prot.values())
            boundary[1:] |= prot[1:] != prot[:-1]
            self.chunk_vpn, self.chunk_pfn, self.chunk_pages = _runs(
                vpns, pfns, boundary)
        self._chunks: list[Chunk] | None = None
        if sanitize.enabled():
            # Write-guard mode: the snapshot is complete, seal every
            # column so a stray in-place store traps at the faulting
            # line instead of corrupting all sharers of this view.
            sanitize.seal_mapping_columns(self)

    def chunks(self) -> list[Chunk]:
        """The chunk columns as :class:`Chunk` objects (built once)."""
        if self._chunks is None:
            self._chunks = list(map(
                Chunk, self.chunk_vpn.tolist(), self.chunk_pfn.tolist(),
                self.chunk_pages.tolist()))
        return self._chunks

    def promotable(self, window: int) -> tuple[np.ndarray, np.ndarray]:
        """Base VPNs and PFNs of the promotable ``window``-page windows."""
        end = self.chunk_vpn + self.chunk_pages
        return promotion_windows(
            self.chunk_vpn, self.chunk_pfn, end, window)[:2]

    def pages_outside(
        self,
        windows: np.ndarray,
        window: int,
        lo: int = 0,
        hi: int | None = None,
    ) -> KeyIndex:
        """The page index over ``vpns[lo:hi]`` minus the pages in the
        ``window``-page windows at ascending ``windows``: the 4 KiB side
        of a promotion.  The page index itself when that is every page.
        """
        vpns, pfns = self.vpns[lo:hi], self.pfns[lo:hi]
        if windows.size:
            heads = vpns & -window
            slot = np.minimum(np.searchsorted(windows, heads), windows.size - 1)
            keep = windows[slot] != heads
            vpns, pfns = vpns[keep], pfns[keep]
        if vpns.shape[0] == len(self):
            return self.index
        return KeyIndex(vpns, pfns)

    def __len__(self) -> int:
        return self.vpns.shape[0]

    # -- bulk queries ---------------------------------------------------

    def translate_block(self, vpns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised translation: ``(pfns, found)`` per query."""
        return self.index.lookup(vpns)

    def mask(self, vpns: np.ndarray) -> np.ndarray:
        """Per-element mapped-ness."""
        return self.index.mask(vpns)

    def contains_all(self, vpns: np.ndarray) -> bool:
        """True when every query is mapped (the fast-path pre-check)."""
        return self.index.contains_all(vpns)

    def _interval_of(
        self, starts: np.ndarray, pages: np.ndarray, vpns: np.ndarray
    ) -> np.ndarray:
        if starts.size == 0:
            return np.full(vpns.shape, -1, dtype=np.int64)
        idx = np.searchsorted(starts, vpns, side="right") - 1
        clipped = np.maximum(idx, 0)
        inside = (idx >= 0) & (vpns < starts[clipped] + pages[clipped])
        return np.where(inside, clipped, -1)

    def run_of(self, vpns: np.ndarray) -> np.ndarray:
        """Index into ``run_*`` of each query's adjacency run (-1 if
        unmapped)."""
        return self._interval_of(self.run_vpn, self.run_pages, vpns)

    def chunk_of(self, vpns: np.ndarray) -> np.ndarray:
        """Index into ``chunk_*`` of each query's chunk (-1 if unmapped);
        chunk order matches :meth:`MemoryMapping.chunks`."""
        return self._interval_of(self.chunk_vpn, self.chunk_pages, vpns)


class MemoryMapping:
    """VPN -> PFN map for a process, with chunk-structure queries.

    Pages optionally carry a *protection* tag (an opaque int — r/w/x
    permission combination).  Per paper §3.3, pages with differing
    permissions must not be coalesced even when physically contiguous,
    so a protection change ends a chunk.

    The pages live in one of two forms.  :meth:`map_runs` into an empty
    mapping stores them as sorted ``vpns``/``pfns`` int64 columns, and
    :meth:`frozen` adopts those columns as they are.  The page dict
    (:attr:`page_table`) is built from the columns on the first scalar
    read or mutation, and from then on every mutation edits it in place,
    one page at a time: a sorted-column insert per page would make
    compaction, nested paging and page migration quadratic.  A mutation
    drops the columns; the next :meth:`frozen` recompiles them from the
    dict.
    """

    def __init__(self, vmas: list[VMA] | None = None) -> None:
        self.vmas: list[VMA] = [] if vmas is None else vmas
        #: The page dict, or None until a scalar read or mutation needs it.
        self._map: dict[int, int] | None = None
        #: Sorted page columns, or None while a mutation has staled them.
        #: At least one of the two forms is always present.
        self._vpns: np.ndarray | None = np.empty(0, dtype=np.int64)
        self._pfns: np.ndarray | None = np.empty(0, dtype=np.int64)
        self._prot: dict[int, int] = {}
        #: Monotonic mutation counter.  Every map/unmap/mprotect bumps it;
        #: compiled views (:class:`FrozenMapping`, scheme-side snapshots)
        #: carry the version they were built from and must be refreshed
        #: when it no longer matches (compaction and shootdown paths mutate
        #: mappings long after the schemes were constructed).
        self.version = 0
        self._frozen_cache: FrozenMapping | None = None

    def __eq__(self, other: object) -> bool:
        """Same VMAs, pages and protections; versions and compiled views
        do not count."""
        if not isinstance(other, MemoryMapping):
            return NotImplemented
        return (self.vmas == other.vmas and self._prot == other._prot
                and all(map(np.array_equal, self._columns(), other._columns())))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (f"MemoryMapping(vmas={self.vmas!r}, pages={len(self)}, "
                f"version={self.version})")

    # ------------------------------------------------------------------
    # The two forms
    # ------------------------------------------------------------------

    @property
    def page_table(self) -> dict[int, int]:
        """The live VPN -> PFN dict, built from the columns on first use.

        Once built it is the mapping's state for good: every mutation
        edits this same object, so a reference to it never goes stale.
        """
        if self._map is None:
            self._map = dict(zip(self._vpns.tolist(), self._pfns.tolist()))
        return self._map

    def _columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The pages as sorted ``(vpns, pfns)`` int64 columns, compiled
        from the page dict when a mutation has staled them."""
        if self._vpns is None:
            table = self._map
            count = len(table)
            vpns = np.fromiter(table.keys(), dtype=np.int64, count=count)
            pfns = np.fromiter(table.values(), dtype=np.int64, count=count)
            order = np.argsort(vpns)
            self._vpns, self._pfns = vpns[order], pfns[order]
        return self._vpns, self._pfns

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _mutated(self) -> None:
        self.version += 1
        self._vpns = self._pfns = None

    def map_runs(self, runs: Sequence[tuple[int, int, int]]) -> None:
        """Map many runs in one call: each ``(vpn, pfn, pages)`` maps
        ``pages`` consecutive VPNs from ``vpn`` onto the frames from
        ``pfn`` on.

        All or nothing, like :meth:`map_run`: runs overlapping each other
        or a mapped page map nothing.  Into an empty mapping the runs
        become its sorted columns and no page dict is built.
        """
        vpns, pfns = _run_pages(runs)
        if self._map is None and not self._vpns.shape[0]:
            self._vpns, self._pfns = vpns, pfns
            self.version += 1
            return
        table = self.page_table
        keys = vpns.tolist()
        if not table.keys().isdisjoint(keys):
            taken = next(v for v in keys if v in table)
            raise MappingError(f"vpn {taken:#x} already mapped")
        table.update(zip(keys, pfns.tolist()))
        self._mutated()

    def map_page(self, vpn: int, pfn: int, prot: int = DEFAULT_PROT) -> None:
        table = self.page_table
        if vpn in table:
            raise MappingError(f"vpn {vpn:#x} already mapped")
        table[vpn] = pfn
        if prot != DEFAULT_PROT:
            self._prot[vpn] = prot
        self._mutated()

    def map_run(self, vpn: int, frames: FrameRange, prot: int = DEFAULT_PROT) -> None:
        """Map ``frames.count`` consecutive VPNs to a contiguous run.

        All or nothing: a run overlapping a mapped page maps nothing.
        """
        table = self.page_table
        vpns = range(vpn, vpn + frames.count)
        if not table.keys().isdisjoint(vpns):
            taken = next(v for v in vpns if v in table)
            raise MappingError(f"vpn {taken:#x} already mapped")
        table.update(zip(vpns, range(frames.start, frames.end)))
        if prot != DEFAULT_PROT:
            self._prot.update(dict.fromkeys(vpns, prot))
        self._mutated()

    def unmap_page(self, vpn: int) -> int:
        try:
            pfn = self.page_table.pop(vpn)
        except KeyError:
            raise MappingError(f"vpn {vpn:#x} not mapped") from None
        self._prot.pop(vpn, None)
        self._mutated()
        return pfn

    def set_protection(self, vpn: int, pages: int, prot: int) -> None:
        """mprotect: change the protection of ``pages`` pages at ``vpn``.

        Per §3.3, this splits any coalesced coverage at the boundaries —
        the chunk structure changes even though the frames do not.  All
        or nothing: a range with an unmapped page changes nothing.
        """
        table = self.page_table
        vpns = range(vpn, vpn + pages)
        missing = next((v for v in vpns if v not in table), None)
        if missing is not None:
            raise MappingError(f"vpn {missing:#x} not mapped")
        if prot == DEFAULT_PROT:
            for v in vpns:
                self._prot.pop(v, None)
        else:
            self._prot.update(dict.fromkeys(vpns, prot))
        self._mutated()

    def protection_of(self, vpn: int) -> int:
        return self._prot.get(vpn, DEFAULT_PROT)

    # ------------------------------------------------------------------
    # Translation (ground truth)
    # ------------------------------------------------------------------

    def translate(self, vpn: int) -> int:
        try:
            return self.page_table[vpn]
        except KeyError:
            raise PageFaultError(f"vpn {vpn:#x} not mapped") from None

    def get(self, vpn: int) -> int | None:
        return self.page_table.get(vpn)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self.page_table

    def __len__(self) -> int:
        if self._vpns is not None:
            return self._vpns.shape[0]
        return len(self._map)

    @property
    def mapped_pages(self) -> int:
        return len(self)

    def items(self):
        """Yield (vpn, pfn) in ascending VPN order."""
        if self._vpns is not None:
            yield from zip(self._vpns.tolist(), self._pfns.tolist())
        else:
            yield from sorted(self._map.items())

    def frozen(self) -> FrozenMapping:
        """The compiled view of the current version (cached, shared).

        Rebuilt lazily after any mutation; every scheme over this
        mapping gets the same object, so the sorted arrays are compiled
        once per version rather than once per scheme.
        """
        if self._frozen_cache is None or self._frozen_cache.version != self.version:
            self._frozen_cache = FrozenMapping(self)
        return self._frozen_cache

    # ------------------------------------------------------------------
    # Chunk structure
    # ------------------------------------------------------------------

    def chunks(self) -> list[Chunk]:
        """Maximal runs contiguous in both VA and PA, ascending by VPN.

        A run also ends where the page protection changes (§3.3): such
        pages must not be served by a coalesced entry.  A view of the
        :class:`FrozenMapping` chunk columns, built once per version.
        """
        return self.frozen().chunks()

    def chunk_covering(self, vpn: int) -> Chunk | None:
        """The chunk containing ``vpn``, or None if unmapped."""
        for chunk in self.chunks():  # chunks are few; linear scan is fine
            if chunk.vpn <= vpn < chunk.end_vpn:
                return chunk
        return None


def _run_pages(
    runs: Sequence[tuple[int, int, int]],
) -> tuple[np.ndarray, np.ndarray]:
    """The sorted page columns of ``(vpn, pfn, pages)`` runs; raises
    :class:`MappingError` at the first VPN two runs share."""
    table = np.array(runs, dtype=np.int64).reshape(-1, 3)
    table = table[table[:, 2] > 0]
    vpn, pfn, pages = table[np.argsort(table[:, 0], kind="stable")].T
    if vpn.shape[0] > 1:
        clash = np.flatnonzero(
            vpn[1:] < np.maximum.accumulate(vpn + pages)[:-1])
        if clash.size:
            raise MappingError(f"vpn {int(vpn[clash[0] + 1]):#x} already mapped")
    # Page i of the concatenated runs is ``i`` shifted by its run's
    # ``vpn`` minus the pages before that run.
    vpns = np.arange(pages.sum(), dtype=np.int64)
    vpns += np.repeat(vpn - (np.cumsum(pages) - pages), pages)
    return vpns, vpns + np.repeat(pfn - vpn, pages)


def _runs(
    vpns: np.ndarray, pfns: np.ndarray, boundary: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(vpn, pfn, pages)`` columns of the runs starting at ``boundary``."""
    starts = np.flatnonzero(boundary)
    return vpns[starts], pfns[starts], np.diff(np.append(starts, vpns.size))


def expand_ranges(
    starts: np.ndarray, stops: np.ndarray, step: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every ``range(start, stop, step)`` of the pairs, concatenated,
    and the pair index of each value (empty ranges add nothing)."""
    counts = (np.maximum(stops - starts, 0) + step - 1) // step
    owner = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    rank = np.arange(owner.size, dtype=np.int64) - (np.cumsum(counts) - counts)[owner]
    return starts[owner] + rank * step, owner


def promotion_windows(
    vpn: np.ndarray,
    pfn: np.ndarray,
    end: np.ndarray,
    window: int,
    cap: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The promotable ``window``-page windows of chunks ``[vpn, end)``
    at ``pfn``: aligned, wholly inside the chunk (and below ``cap``),
    with VA and PA sharing the window's alignment phase.

    Returns ``(bases, base_pfns, head, tail)``: each window's base VPN
    and PFN, ascending, and per chunk the promoted span ``[head,
    tail)``, or ``head == tail == end`` when nothing is promoted.
    """
    head = -(-vpn // window) * window
    tail = end // window * window
    if cap is not None:
        tail = np.minimum(tail, cap)
    ok = ((pfn - vpn) % window == 0) & (tail > head)
    head, tail = np.where(ok, head, end), np.where(ok, tail, end)
    bases, owner = expand_ranges(head, tail, window)
    return bases, bases + (pfn - vpn)[owner], head, tail


def cluster_slot_table(
    pages: KeyIndex, shift: int = 3
) -> tuple[np.ndarray, np.ndarray]:
    """The cluster entry a walk at each page of ``pages`` would build.

    The cluster-TLB fill logic (Fig. 2's HW-coalescing baseline)
    inspects the missing page's PTE cache line — the ``2**shift`` pages
    sharing its virtual cluster — and records which of those slots
    translate into the *same physical cluster* as the missing page
    itself.  Returns int8 columns aligned with ``pages.keys``, 9 bytes a
    page: ``coverage[i]``, the number of covered slots of page ``i``'s
    line (at least 1, the page itself), and ``offsets[i, j]``, slot
    ``j``'s offset within the physical cluster, or -1 when the slot is
    unmapped or lands elsewhere.

    The table is static per mapping version — it depends only on the
    page table, never on TLB state — which is what lets the batched
    cluster fast path classify every miss up front with one gather: a
    page with ``coverage == 1`` can only ever fill (and hit) the
    regular side, one with ``coverage > 1`` only the clustered side.

    ``pages`` indexes the page table (``FrozenMapping.index``, or the
    promotion split's small-page view).  Its keys are sorted and
    unique, so a line's pages are adjacent rows and a page's mates lie
    fewer than ``2**shift`` rows away: one compare per row distance
    finds them all.
    """
    vpns, pfns = pages.keys, pages.values
    factor = 1 << shift
    offsets = np.full((vpns.shape[0], factor), -1, dtype=np.int8)
    slot = vpns & (factor - 1)
    offset = (pfns & (factor - 1)).astype(np.int8)
    offsets[np.arange(vpns.shape[0], dtype=np.int64), slot] = offset
    line, cluster = vpns >> shift, pfns >> shift
    for distance in range(1, factor):
        lo = np.flatnonzero((line[distance:] == line[:-distance])
                            & (cluster[distance:] == cluster[:-distance]))
        hi = lo + distance
        offsets[lo, slot[hi]] = offset[hi]
        offsets[hi, slot[lo]] = offset[lo]
    return (offsets >= 0).sum(axis=1, dtype=np.int8), offsets
