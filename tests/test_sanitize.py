"""The opt-in runtime write-guard (``ANCHOR_TLB_SANITIZE=1``).

The static rules model which state is shared read-only by contract;
this suite proves the sanitizer turns that model into an actual trap —
and that every registered scheme still clones and runs cleanly with
the guards armed (the same property the sanitized CI job gates).
"""

import numpy as np
import pytest

from repro import sanitize
from repro.params import DEFAULT_MACHINE
from repro.schemes.registry import make_scheme, scheme_names
from repro.vmos.scenarios import build_mapping
from repro.vmos.vma import AllocationSite, layout_vmas


@pytest.fixture()
def guards_on(monkeypatch):
    monkeypatch.setenv(sanitize.ENV_VAR, "1")


@pytest.fixture(scope="module")
def mapping_args():
    vmas = layout_vmas([AllocationSite(256, 1), AllocationSite(32, 2)])
    return vmas


class TestSwitch:
    def test_disabled_by_default_values(self, monkeypatch):
        monkeypatch.delenv(sanitize.ENV_VAR, raising=False)
        assert not sanitize.enabled()
        monkeypatch.setenv(sanitize.ENV_VAR, "")
        assert not sanitize.enabled()
        monkeypatch.setenv(sanitize.ENV_VAR, "0")
        assert not sanitize.enabled()

    def test_any_other_value_enables(self, monkeypatch):
        monkeypatch.setenv(sanitize.ENV_VAR, "1")
        assert sanitize.enabled()


class TestFreezeRelease:
    def test_chases_arrays_through_containers(self):
        a, b, c = (np.zeros(4), np.zeros(4), np.zeros(4))
        nest = {"pair": (a, [b]), "solo": c, "other": "not-an-array"}
        assert sanitize.freeze_arrays(nest) == 3
        for arr in (a, b, c):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1
        assert sanitize.release_arrays(nest) == 3
        a[0] = 1  # writable again

    def test_views_are_skipped(self):
        base = np.zeros(8)
        view = base[2:6]
        assert sanitize.freeze_arrays(view) == 0
        assert sanitize.freeze_arrays(base) == 1
        # Views taken after the seal inherit read-only (the share
        # protocol freezes before clones materialise their views).
        with pytest.raises(ValueError, match="read-only"):
            base[4:8][0] = 1
        assert sanitize.release_arrays(base) == 1

    def test_freeze_is_idempotent(self):
        arr = np.zeros(4)
        assert sanitize.freeze_arrays(arr) == 1
        assert sanitize.freeze_arrays(arr) == 0
        assert sanitize.release_arrays(arr) == 1


class TestFrozenMappingSeal:
    def test_columns_trap_writes_under_guard(self, guards_on, mapping_args):
        mapping = build_mapping(mapping_args, "medium", seed=11)
        frozen = mapping.frozen()
        with pytest.raises(ValueError, match="read-only"):
            frozen.vpns[0] = 99
        with pytest.raises(ValueError, match="read-only"):
            frozen.pfns[-1] = 99
        # The page index's row table is sealed with the columns.
        assert frozen.index.rows is not None
        with pytest.raises(ValueError, match="read-only"):
            frozen.index.rows[0] = 99

    def test_columns_stay_writable_without_guard(self, monkeypatch,
                                                 mapping_args):
        monkeypatch.delenv(sanitize.ENV_VAR, raising=False)
        mapping = build_mapping(mapping_args, "medium", seed=11)
        frozen = mapping.frozen()
        assert frozen.vpns.flags.writeable


class TestCloneGuard:
    @pytest.mark.parametrize(
        "scheme_name", scheme_names(include_extras=True))
    def test_all_schemes_clone_and_run_guarded(self, guards_on,
                                               mapping_args, scheme_name):
        mapping = build_mapping(mapping_args, "medium", seed=5)
        proto = make_scheme(scheme_name, mapping, DEFAULT_MACHINE)
        clone = proto.clone_fresh()
        clone.sync_mapping()
        vpns = np.asarray(
            sorted(vpn for vpn, _ in mapping.items())[:64], dtype=np.int64)
        clone.access_block(vpns)
        for vpn in vpns[:8]:
            clone.access(int(vpn))
        clone.stats.check_conservation()

    @pytest.mark.parametrize(
        "scheme_name", scheme_names(include_extras=True))
    def test_guard_freezes_shared_not_per_clone(self, guards_on,
                                                mapping_args, scheme_name):
        """Every array a clone shares with its prototype is read-only,
        however deep it sits: the walk below is independent of the
        sanitizer's own, so it cannot pass by construction."""
        mapping = build_mapping(mapping_args, "medium", seed=5)
        proto = make_scheme(scheme_name, mapping, DEFAULT_MACHINE)
        clone = proto.clone_fresh()
        shared = {
            attr: value for attr, value in vars(clone).items()
            if attr not in ("mapping", "config")
            and vars(proto).get(attr) is value
        }
        # Per-clone hardware is the clone's own, never shared.
        assert not {"l1", "stats"} & set(shared)
        writable = [
            arr for arr in reachable_arrays(list(shared.values()))
            if arr.base is None and arr.flags.writeable
        ]
        assert not writable


def reachable_arrays(root) -> list[np.ndarray]:
    """Every array reachable from ``root`` through tuples, lists,
    dicts, and objects' ``__slots__``/``__dict__``."""
    found: list[np.ndarray] = []
    seen: set[int] = set()
    stack = [root]
    while stack:
        value = stack.pop()
        if id(value) in seen or isinstance(value, (int, float, str, bytes)):
            continue
        seen.add(id(value))
        if isinstance(value, np.ndarray):
            found.append(value)
        elif isinstance(value, (tuple, list, set, frozenset)):
            stack.extend(value)
        elif isinstance(value, dict):
            stack.extend(value.values())
        else:
            stack.extend(vars(value).values() if hasattr(value, "__dict__")
                         else ())
            for cls in type(value).__mro__:
                for slot in getattr(cls, "__slots__", ()):
                    if hasattr(value, slot):
                        stack.append(getattr(value, slot))
    return found
