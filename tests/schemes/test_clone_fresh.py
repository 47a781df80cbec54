"""Differential suite for prototype cloning (``clone_fresh``).

``TranslationScheme.clone_fresh()`` powers the fleet's prototype-cloned
scheme construction: one prototype per mapping key pays the expensive
mapping-derived builds (anchor directories, promotion maps, range
tables), and every tenant receives a clone sharing that state read-only
with fresh per-tenant hardware and stats.  The contract these tests pin:

* a clone is *bit-identical* to a freshly constructed scheme — same
  stats, same per-access latencies — for every registered scheme, on
  every scenario, with the page-walk caches on and off;
* cloning leaves the prototype pristine (no stats, no warm TLBs), and
  clones never alias mutable state back into the prototype or each
  other — including after mid-run mapping updates and the anchor
  scheme's in-place incremental directory maintenance.
"""

import dataclasses

import numpy as np
import pytest

from repro import sanitize
from repro.hw.tlb import TAG_SHIFT, SetAssociativeTLB
from repro.params import DEFAULT_MACHINE, SCENARIO_ORDER
from repro.schemes.registry import make_scheme, scheme_names
from repro.vmos.scenarios import build_mapping
from repro.vmos.vma import AllocationSite, layout_vmas

ALL_SCHEMES = scheme_names(include_extras=True)

PWC_MACHINE = dataclasses.replace(DEFAULT_MACHINE, pwc=True)


@pytest.fixture(scope="module")
def vmas():
    return layout_vmas([AllocationSite(1024, 1), AllocationSite(48, 3)])


def drive(scheme, vpns):
    """Mixed block + scalar traffic; returns the scalar latency trace."""
    scheme.sync_mapping()
    block = np.asarray(sorted(vpns[: len(vpns) // 2]), dtype=np.int64)
    scheme.access_block(block)
    latencies = [scheme.access(int(v)) for v in vpns[len(vpns) // 2:]]
    scheme.stats.check_conservation()
    return latencies


def sample_vpns(mapping, count=3000, seed=7):
    rng = np.random.default_rng(seed)
    mapped = np.asarray([vpn for vpn, _ in mapping.items()], dtype=np.int64)
    return mapped[rng.integers(0, mapped.shape[0], size=count)]


@pytest.mark.parametrize("pwc", [False, True], ids=["pwc-off", "pwc-on"])
@pytest.mark.parametrize("scenario", SCENARIO_ORDER)
@pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
def test_clone_matches_fresh_construction(vmas, scheme_name, scenario, pwc):
    machine = PWC_MACHINE if pwc else DEFAULT_MACHINE
    mapping = build_mapping(vmas, scenario, seed=23)
    proto = make_scheme(scheme_name, mapping, machine)
    fresh = make_scheme(scheme_name, mapping, machine)
    clone = proto.clone_fresh()
    vpns = sample_vpns(mapping)
    assert drive(clone, vpns) == drive(fresh, vpns)
    assert clone.stats.snapshot() == fresh.stats.snapshot()
    # The prototype stays pristine: cloning must not warm its arrays or
    # touch its stats.
    assert proto.stats.snapshot()["accesses"] == 0
    assert proto.l1.small.occupancy == 0


@pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
def test_clone_identical_after_mid_run_mapping_update(vmas, scheme_name):
    """An external mapping mutation mid-run must leave clone and fresh
    in lockstep: the clone's first post-mutation sync rebinds its own
    derived views without corrupting the prototype's."""
    mapping = build_mapping(vmas, "medium", seed=29)
    proto = make_scheme(scheme_name, mapping)
    fresh = make_scheme(scheme_name, mapping)
    clone = proto.clone_fresh()
    vpns = sample_vpns(mapping, count=2000, seed=11)
    drive(clone, vpns)
    drive(fresh, vpns)

    victim = int(vpns[0])
    mapping.unmap_page(victim)
    survivors = np.asarray(
        [int(v) for v in vpns.tolist() if v != victim], dtype=np.int64)
    assert drive(clone, survivors) == drive(fresh, survivors)
    assert clone.stats.snapshot() == fresh.stats.snapshot()
    # Restore for the module-scoped mapping consumers (build_mapping is
    # per-test here, but keep the mapping self-consistent regardless).
    assert victim not in dict(mapping.items())


def test_second_clone_unaffected_by_first_clones_traffic(vmas):
    mapping = build_mapping(vmas, "medium", seed=23)
    proto = make_scheme("anchor-dyn", mapping)
    first = proto.clone_fresh()
    vpns = sample_vpns(mapping, count=2000, seed=13)
    drive(first, vpns)
    second = proto.clone_fresh()
    fresh = make_scheme("anchor-dyn", mapping)
    assert drive(second, vpns) == drive(fresh, vpns)
    assert second.stats.snapshot() == fresh.stats.snapshot()


def test_anchor_clone_incremental_unmap_does_not_leak(vmas):
    """AnchorScheme's ``unmap_page`` mutates the directory *in place*
    (``note_unmap``); a clone must privatise the shared directory first
    (copy-on-write) so the prototype's plan survives intact."""
    mapping = build_mapping(vmas, "medium", seed=23)
    proto = make_scheme("anchor-dyn", mapping)
    clone = proto.clone_fresh()
    assert clone.directory is proto.directory  # shared until mutated
    victim = next(iter(clone.directory.small))
    clone.unmap_page(victim)
    assert clone.directory is not proto.directory
    assert victim not in clone.directory.small
    # The prototype's in-memory plan is untouched by the clone's
    # incremental maintenance (it will resync from the mapping version
    # bump through its own _on_mapping_update, never through aliasing).
    assert victim in proto.directory.small


def test_prototype_incremental_unmap_does_not_leak_into_clone(vmas):
    """Copy-on-write cuts both ways: once a clone exists, the
    *prototype's* own in-place mutators must privatise too."""
    mapping = build_mapping(vmas, "medium", seed=23)
    proto = make_scheme("anchor-dyn", mapping)
    clone = proto.clone_fresh()
    victim = next(iter(proto.directory.small))
    proto.unmap_page(victim)
    assert proto.directory is not clone.directory
    assert victim in clone.directory.small


@pytest.mark.parametrize("scheme_name", ("anchor-dyn", "anchor-region"))
def test_shared_region_table_is_sealed(vmas, scheme_name, monkeypatch):
    """A clone's L2 shares its region table with the prototype's
    (``AnchorL2TLB.fresh``), under the declared hardware the sanitizer
    skips; the table seals itself at install instead."""
    monkeypatch.delenv(sanitize.ENV_VAR, raising=False)
    proto = make_scheme(scheme_name, build_mapping(vmas, "medium", seed=23))
    clone = proto.clone_fresh()
    table = clone.l2.table
    assert table is proto.l2.table
    with pytest.raises(ValueError):
        table.starts[0] = 0
    with pytest.raises(ValueError):
        table.dlogs[0] = 0
    with pytest.raises(TypeError):
        table.shifts[0] = 0


@pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
def test_clone_hardware_and_stats_are_private(vmas, scheme_name):
    mapping = build_mapping(vmas, "medium", seed=23)
    proto = make_scheme(scheme_name, mapping)
    clone = proto.clone_fresh()
    assert clone.stats is not proto.stats
    assert clone.l1 is not proto.l1
    for attr in ("l2", "l2_giga", "regular", "clustered", "range_tlb",
                 "predictor", "shootdowns", "pwc"):
        mine = getattr(clone, attr, None)
        theirs = getattr(proto, attr, None)
        if mine is not None:
            assert mine is not theirs, (scheme_name, attr)


class TestHardwareDeclaration:
    """``TranslationScheme.hardware`` is the one list of a scheme's TLB
    structures: ``flush``, ``set_asid``, ``clone_fresh`` and the tagged
    fleet's shared hierarchy all iterate it, so a structure it missed
    would keep serving the previous tenant, survive flushes, and be
    shared by every clone of a prototype."""

    @pytest.mark.parametrize("pwc", [False, True], ids=["pwc-off", "pwc-on"])
    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_declaration_names_every_structure(self, vmas, scheme_name, pwc):
        machine = PWC_MACHINE if pwc else DEFAULT_MACHINE
        mapping = build_mapping(vmas, "medium", seed=23)
        scheme = make_scheme(scheme_name, mapping, machine)
        # Independent of the declaration: anything answering set_tag.
        held = {attr for attr, value in vars(scheme).items()
                if hasattr(type(value), "set_tag")}
        assert held == set(scheme.structures())
        assert set(scheme.structures()) <= set(scheme.hardware)
        assert ("pwc" in held) is pwc
        clone = scheme.clone_fresh()
        for attr in held:
            assert getattr(clone, attr) is not getattr(scheme, attr), attr


#: Counters a structure's ``fresh()`` zeroes instead of keeping: the
#: page-walk caches' hit and probe counts.
ZEROED = {"hits", "probes"}


def bound_attributes(structure) -> dict:
    """Every attribute ``structure`` binds, from its slots and its
    ``__dict__``, independent of its ``arrays`` declaration."""
    bound = {
        slot: getattr(structure, slot)
        for klass in type(structure).__mro__
        for slot in vars(klass).get("__slots__", ())
        if hasattr(structure, slot)
    }
    bound.update(getattr(structure, "__dict__", {}))
    return bound


class TestStructureArrays:
    """Every TLB structure is built from the LRU arrays its ``arrays``
    tuple names, and ``repro.hw.tlb.Structure`` implements the tag,
    flush, clone and state protocol once over that tuple: an array it
    left out would keep its entries through flushes, serve the previous
    tenant's tag, and be shared by every clone of a prototype."""

    @pytest.mark.parametrize("pwc", [False, True], ids=["pwc-off", "pwc-on"])
    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_arrays_name_every_array(self, vmas, scheme_name, pwc):
        machine = PWC_MACHINE if pwc else DEFAULT_MACHINE
        scheme = make_scheme(
            scheme_name, build_mapping(vmas, "medium", seed=23), machine)
        wrappers = {name: structure
                    for name, structure in scheme.structures().items()
                    if not isinstance(structure, SetAssociativeTLB)}
        assert "l1" in wrappers and ("pwc" in wrappers) is pwc
        for name, structure in wrappers.items():
            bound = bound_attributes(structure)
            arrays = {attr: value for attr, value in bound.items()
                      if isinstance(value, SetAssociativeTLB)}
            assert set(arrays) == set(structure.arrays), name
            assert set(structure.state()) == set(arrays), name

            # set_tag reaches every array; fill each under two tags.
            for tag in (1, 2):
                structure.set_tag(tag)
                for attr, array in arrays.items():
                    assert array.tag == tag, (name, attr)
                    array.insert(0, 5, tag)
            # flush_tag drops exactly that tag's entries.
            assert structure.flush_tag(1) == len(arrays), name
            for attr, array in arrays.items():
                assert [key >> TAG_SHIFT for key in array.keys()] == [2], (
                    name, attr)

            # fresh: new, empty, untagged arrays; everything else kept.
            twin = structure.fresh()
            assert type(twin) is type(structure)
            for attr, value in bound.items():
                mine = getattr(twin, attr)
                if attr in arrays:
                    assert mine is not value, (name, attr)
                    assert (mine.entries, mine.ways) == (
                        value.entries, value.ways)
                    assert mine.occupancy == 0 and mine.tag == 0
                    assert value.occupancy == 1, (name, attr)
                elif attr in ZEROED:
                    assert mine == 0, (name, attr)
                else:
                    assert mine is value, (name, attr)
