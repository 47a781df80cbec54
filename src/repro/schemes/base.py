"""The abstract translation scheme.

A scheme is the pairing of a hardware TLB organisation with the OS
coverage plan it needs (huge-page promotion, anchors, ranges).  The
simulator calls :meth:`access` once per memory reference — or
:meth:`access_block` for a whole epoch at a time — and the scheme
updates its :class:`TranslationStats`.  ``access`` returns the
translation latency in cycles charged to that reference (0 for an L1
hit, since the L1 probe overlaps the cache access).

Two declared capabilities replace the old duck typing:

* ``supports_reselection`` — the scheme implements the
  :class:`OSManagedScheme` protocol, i.e. it owns an OS coverage plan
  that the engine should re-evaluate at epoch boundaries by calling
  ``reselect_distance()`` (paper §4.1, Algorithm 1 per epoch);
* ``distance`` — the scheme's anchor distance, if it has one, reported
  in :class:`repro.sim.engine.SimulationResult`.
"""

from __future__ import annotations

import abc
from typing import Any, Protocol, runtime_checkable

import numpy as np

from repro import sanitize
from repro.errors import PageFaultError
from repro.params import (
    DEFAULT_MACHINE, GIGA_PAGE_PAGES, HUGE_PAGE_PAGES, MachineConfig)
from repro.hw.l1 import L1TLB
from repro.hw.pwc import PageWalkCache
from repro.sim.lru import collapse_runs, simulate_block
from repro.sim.stats import TranslationStats
from repro.vmos.mapping import FrozenMapping, KeyIndex, MemoryMapping

_HUGE_SHIFT = 9


@runtime_checkable
class OSManagedScheme(Protocol):
    """A scheme whose OS coverage plan is re-evaluated per epoch.

    The engine checks ``scheme.supports_reselection`` (a declared class
    attribute, not a ``getattr`` probe) and, when true, calls
    ``reselect_distance()`` at every epoch boundary.  The method
    returns ``(distance, changed)``; a change means the OS re-planned
    coverage and flushed the TLBs (§3.3's distance-change cost).
    """

    supports_reselection: bool

    def reselect_distance(self) -> tuple[int, bool]: ...


class TranslationScheme(abc.ABC):
    """Base class for all translation schemes."""

    #: Short identifier used in reports (matches the paper's legends).
    name: str = "abstract"

    #: True when the scheme implements :class:`OSManagedScheme` and
    #: wants the engine's epoch-boundary ``reselect_distance()`` call.
    supports_reselection: bool = False

    #: The scheme's anchor distance, if it has one (``None`` otherwise);
    #: anchor schemes override this with a property.
    distance: int | None = None

    #: The scheme's TLB structures, by attribute name: the one list
    #: :meth:`flush`, :meth:`set_asid`, :meth:`clone_fresh` and the
    #: fleet's shared hierarchy iterate.  Subclasses extend it with the
    #: structures they add; each answers the
    #: :class:`~repro.hw.tlb.Structure` protocol.  A declared attribute
    #: an instance does not hold, or holds as ``None`` (``pwc`` with the
    #: page-walk caches off), is skipped.
    hardware: tuple[str, ...] = ("l1", "pwc")

    def __init__(
        self,
        mapping: MemoryMapping,
        config: MachineConfig = DEFAULT_MACHINE,
    ) -> None:
        self.mapping = mapping
        self.config = config
        self.l1 = L1TLB(config)
        self.pwc = PageWalkCache() if config.pwc else None
        self.stats = TranslationStats(latency=config.latency)
        self._synced_version = mapping.version

    # ------------------------------------------------------------------
    # Mapping-version synchronisation (§3.3 shootdown semantics)
    # ------------------------------------------------------------------

    def sync_mapping(self) -> None:
        """Adopt any mapping mutations since the last sync.

        Schemes compile views of the mapping (promotion maps, sorted
        arrays, range tables) that go stale when the OS mutates it
        (compaction, shootdown paths, experiment hooks).  The engine
        calls this at every epoch boundary — under both the batched and
        the scalar engine, so parity is preserved — and :meth:`translate`
        calls it per query.  A version change triggers
        :meth:`_on_mapping_update` exactly once.

        Schemes that maintain their structures incrementally through
        their own mutators (e.g. ``AnchorScheme.unmap_page``) resync
        ``_synced_version`` themselves and never see the full rebuild.
        """
        version = self.mapping.version
        if version != self._synced_version:
            self._synced_version = version
            self._on_mapping_update(self.mapping.frozen())

    def _on_mapping_update(self, frozen: FrozenMapping) -> None:
        """React to a mapping mutation (default: full TLB shootdown).

        Subclasses that derive state from the mapping (promotion maps,
        membership arrays, range tables) override this to rebuild those
        snapshots, then call ``super()._on_mapping_update(frozen)`` (or
        :meth:`flush` directly) — resident TLB entries may translate
        through frames the OS just remapped, and
        :func:`repro.sim.lru.simulate_block` stores ``value_of`` — the
        current mapping — for every key a block hits, where the scalar
        path keeps the resident value; the two agree only while resident
        values match the current mapping.
        """
        self.flush()

    # ------------------------------------------------------------------

    @abc.abstractmethod
    def access(self, vpn: int) -> int:
        """Translate one reference; update stats; return cycles charged."""

    def access_block(self, vpns: np.ndarray) -> None:
        """Translate a block of references in trace order.

        Semantically identical to calling :meth:`access` on every
        element.  Hot schemes override this with vectorised fast paths;
        overrides must stay bit-identical to the scalar loop (the
        parity suite in ``tests/sim/test_engine_parity.py`` enforces
        it) and must fall back to this implementation whenever an exact
        fast path is unavailable — in practice only when the block
        contains an unmapped page, so the per-reference loop raises the
        page fault at exactly the right reference.
        """
        access = self.access
        for vpn in vpns.tolist():
            access(vpn)

    def _l1_stage(
        self,
        vpns: np.ndarray,
        small_index: KeyIndex,
        huge_index: KeyIndex,
        small: dict[int, int],
        huge: dict[int, int],
    ) -> tuple[np.ndarray, ...] | None:
        """The L1 stage of a block fast path over 4 KiB and 2 MiB pages.

        Collapses repeated references into heads, classifies each head
        by page size through the 2 MiB window index, and resolves both
        L1 arrays with :func:`simulate_block` (promote-or-insert: every
        head fills its own translation, whatever the L2 does).  Returns
        ``(heads, is_huge, pfn, hbase, hit1)`` — per head its page-size
        class, 4 KiB PFN (0 on 2 MiB heads), 2 MiB base PFN and L1
        outcome — or ``None``, before touching any state, when the block
        holds an unmapped page: the caller then falls back to the scalar
        loop, which faults at exactly the right reference.
        """
        heads = collapse_runs(vpns)
        hvpn = heads >> _HUGE_SHIFT
        hbase, is_huge = huge_index.lookup(hvpn << _HUGE_SHIFT)
        is_small = ~is_huge
        small_heads = heads[is_small]
        pfn_small, found = small_index.lookup(small_heads)
        if not found.all():
            return None
        hit1 = np.empty(heads.shape[0], dtype=bool)
        hit1[is_small] = simulate_block(
            self.l1.small, small_heads, small_heads, small.__getitem__)
        hv = hvpn[is_huge]
        huge_value = lambda h: huge[h << _HUGE_SHIFT]  # noqa: E731
        hit1[is_huge] = simulate_block(self.l1.huge, hv, hv, huge_value)
        pfn = np.zeros(heads.shape[0], dtype=np.int64)
        pfn[is_small] = pfn_small
        return heads, is_huge, pfn, hbase, hit1

    def structures(self) -> dict[str, Any]:
        """The declared :attr:`hardware` this instance holds, by name."""
        found = {}
        for name in self.hardware:
            structure = getattr(self, name, None)
            if structure is not None:
                found[name] = structure
        return found

    def flush(self) -> None:
        """Flush the scheme's TLB state (context switch / shootdown);
        under an address-space tag, only that tag's entries."""
        for structure in self.structures().values():
            structure.flush()

    def set_asid(self, asid: int) -> None:
        """Select this tenant's address-space tag on every TLB structure.

        Called by the tenant scheduler on every switch-in (the PCID
        write that rides along with CR3).  Every block fast path packs
        the active tag into the raw keys it builds (the ``tag-safety``
        check rule), so any scheme may share tagged TLBs.
        """
        for structure in self.structures().values():
            structure.set_tag(asid)

    # ------------------------------------------------------------------
    # Prototype cloning (fleet-scale construction amortisation)
    # ------------------------------------------------------------------

    def clone_fresh(self) -> "TranslationScheme":
        """A fresh-state clone sharing this scheme's mapping-derived views.

        The clone behaves exactly like ``type(self)(self.mapping,
        self.config)`` — empty TLBs, zeroed stats, tag 0 — but *shares*
        the immutable mapping-derived state (promotion maps, anchor
        directories, sorted-array caches, range tables) with the
        prototype by reference instead of rebuilding it, so per-tenant
        scheme construction costs O(hardware), not O(mapping).  Every
        declared :attr:`hardware` structure is replaced by its
        ``fresh()`` twin.

        Subclasses hook the protocol in two places: :meth:`_prepare_share`
        runs on the *prototype* and forces any lazily built views so
        every clone inherits them already materialised;
        :meth:`_reset_clone` runs on the *clone* and recreates the other
        per-tenant state its access paths mutate (predictors, shootdown
        logs).  Anything else is shared and must be treated as
        read-only — the ``shared-aliasing`` check rule enforces the
        share-don't-rebuild discipline.

        Sharing survives mapping mutations: ``_synced_version`` rides
        the copy, so a mutated mapping triggers ``_on_mapping_update``
        on the clone's first sync, rebinding the clone's derived
        attributes without touching the prototype's.
        """
        self._prepare_share()
        if sanitize.enabled():
            # Write-guard mode: everything the clone is about to share
            # by reference becomes read-only, so a mutation the static
            # shared-aliasing rule mismodels traps at the faulting
            # store instead of corrupting sibling tenants.
            sanitize.guard_shared(self)
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        for name, structure in self.structures().items():
            setattr(clone, name, structure.fresh())
        clone.stats = TranslationStats(latency=self.config.latency)
        clone._reset_clone()
        return clone

    def _prepare_share(self) -> None:
        """Force lazily built mapping-derived views on the prototype.

        Runs once per :meth:`clone_fresh` call (idempotent: the views
        cache themselves), so clones share the materialised arrays
        instead of each rebuilding them on first use.
        """

    def _reset_clone(self) -> None:
        """Recreate per-tenant state beyond the declared hardware.

        Subclasses override (calling ``super()._reset_clone()``) to
        give the clone private instances of everything else their
        access paths mutate.  Mapping-derived views stay shared by
        reference.
        """

    def _walk_cycles(self, vpn: int, huge: bool = False) -> int:
        """Cycles charged for a page walk.

        Flat 50 cycles (Table 3) unless the page-walk caches are
        enabled, in which case the walk costs ``walk_step`` cycles per
        page-table memory access actually performed.
        """
        if self.pwc is None:
            return self.config.latency.page_walk
        accesses = self.pwc.accesses_for(vpn, huge)
        self.stats.walk_pt_accesses += accesses
        return self.config.latency.walk_step * accesses

    def _block_walk_accesses(
        self, walk_vpns: np.ndarray, huge: np.ndarray | None = None
    ) -> int:
        """Page-table accesses for one block's walks (0 with PWC off).

        Fast paths feed every completed walk of the block — in trace
        order, with 2 MiB walks flagged — through the batched page-walk
        caches and pass the total to ``bulk_update`` as
        ``walk_pt_accesses``, matching the scalar :meth:`_walk_cycles`
        accounting exactly.
        """
        if self.pwc is None or walk_vpns.shape[0] == 0:
            return 0
        return int(self.pwc.accesses_for_block(walk_vpns, huge).sum())

    # ------------------------------------------------------------------
    # Verification helpers
    # ------------------------------------------------------------------

    def translate_checked(self, vpn: int) -> int:
        """Translate and assert agreement with the ground-truth mapping."""
        expected = self.mapping.get(vpn)
        if expected is None:
            raise PageFaultError(f"vpn {vpn:#x} not mapped")
        actual = self.translate(vpn)
        if actual != expected:
            raise AssertionError(
                f"{self.name}: vpn {vpn:#x} -> {actual:#x}, expected {expected:#x}"
            )
        return actual

    def translate(self, vpn: int) -> int:
        """Pure translation via the scheme's structures (no stats).

        Syncs against the current mapping version first, so a caller
        that mutated the mapping after constructing the scheme reads
        through fresh coverage structures (the stale-snapshot hazard the
        version counter exists to close).
        """
        self.sync_mapping()
        return self._translate(vpn)

    @abc.abstractmethod
    def _translate(self, vpn: int) -> int:
        """Scheme-specific translation; caller has synced the mapping."""


def _promote(
    mapping: MemoryMapping, window: int
) -> tuple[dict[int, int], dict[int, int]]:
    frozen = mapping.frozen()
    bases, pfns = frozen.promotable(window)
    return dict(zip(bases.tolist(), pfns.tolist())), frozen.page_dict(bases, window)


def promote_giga_pages(
    mapping: MemoryMapping,
) -> tuple[dict[int, int], dict[int, int]]:
    """1 GiB promotion: aligned, fully contiguous 262,144-page windows.

    Returns ``(giga, rest)``: ``giga`` maps each promoted window's base
    VPN to its base PFN; ``rest`` holds everything else (still eligible
    for 2 MiB promotion).
    """
    return _promote(mapping, GIGA_PAGE_PAGES)


def promote_huge_pages(mapping: MemoryMapping) -> tuple[dict[int, int], dict[int, int]]:
    """THP promotion used by every 2 MiB-capable scheme except anchor.

    Returns ``(huge, small)``: ``huge`` maps each promoted window's base
    VPN to its base PFN, ``small`` holds the remaining 4 KiB pages.
    Promotion requires a full 512-page run whose VA and PA share the
    2 MiB alignment phase.
    """
    return _promote(mapping, HUGE_PAGE_PAGES)
