"""Opt-in runtime write-guards for state that is shared by contract.

The static rules (``frozen-mutation``, ``shared-aliasing``) model which
state is immutable-by-contract: :class:`~repro.vmos.mapping.FrozenMapping`
columns, and everything a prototype scheme shares with its
``clone_fresh`` tenants.  A model can be wrong.  This module turns the
contract into a hardware trap: with ``ANCHOR_TLB_SANITIZE=1`` (or the
``--sanitize`` pytest flag), shared numpy arrays get
``writeable=False`` flipped at share time, so any in-place write the
static rules failed to flag raises ``ValueError: assignment
destination is read-only`` at the exact faulting store instead of
silently corrupting a sibling tenant.

Guard points:

* ``FrozenMapping.__init__`` seals every array column once the
  snapshot is fully built (the builder's own ``|=`` boundary pass runs
  before the seal);
* ``TranslationScheme.clone_fresh`` guards the prototype's shared
  ``__dict__`` right after ``_prepare_share`` forces the lazy views —
  the scheme's declared hardware and its stats are recreated fresh
  per clone and stay writable;
* privatisation choke points rebind fresh arrays, which are born
  writable, so copy-on-write paths need no unguarding; for code that
  legitimately takes back ownership of a guarded array in place,
  :func:`release_arrays` restores the saved flags.

Everything is a no-op unless :func:`enabled` — the guards add zero
cost to production runs.
"""

from __future__ import annotations

import os
from typing import Any, Iterable, Iterator

import numpy as np

#: The switch.  Any value other than empty/``"0"`` enables the guards.
ENV_VAR = "ANCHOR_TLB_SANITIZE"

#: Attributes never guarded besides the scheme's declared hardware:
#: the stats ``clone_fresh`` replaces per clone, the live mapping,
#: which the OS layer legitimately mutates, and a fleet's ASID table,
#: which holds other tenants rather than shared plans.
_PER_CLONE_ATTRS = frozenset({"stats", "mapping", "config", "tenants"})

#: How deep to chase arrays through tuples/lists/dicts and the slots or
#: ``__dict__`` of other objects.  The share protocol nests at most
#: three levels (the anchor scheme's list of plans, each a tuple of
#: :class:`~repro.vmos.mapping.KeyIndex` objects).
_MAX_DEPTH = 4


def enabled() -> bool:
    """Whether the write guards are switched on (checked per call so
    tests can toggle the environment variable at runtime)."""
    return os.environ.get(ENV_VAR, "") not in ("", "0")


def _slot_values(value: Any) -> Iterator[Any]:
    """The values held in an object's slots, base classes too, and in
    its ``__dict__``."""
    for cls in type(value).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            yield getattr(value, slot, None)
    yield from getattr(value, "__dict__", {}).values()


def _arrays_in(value: Any, depth: int = _MAX_DEPTH) -> Iterator[np.ndarray]:
    if isinstance(value, np.ndarray):
        yield value
        return
    if depth <= 0:
        return
    if isinstance(value, (tuple, list)):
        items: Iterable[Any] = value
    elif isinstance(value, dict):
        items = value.values()
    else:
        items = _slot_values(value)
    for item in items:
        yield from _arrays_in(item, depth - 1)


def freeze_arrays(value: Any) -> int:
    """Flip ``writeable=False`` on every array reachable in ``value``.

    Arrays that are views of another base stay untouched — numpy
    forbids making a view writeable again while its base is read-only,
    and views taken after the seal inherit the read-only flag (the
    guard points run at share time, before clones materialise views).
    Returns the number of arrays frozen.
    """
    frozen = 0
    for arr in _arrays_in(value):
        if arr.base is not None:
            continue
        if arr.flags.writeable:
            arr.setflags(write=False)
            frozen += 1
    return frozen


def release_arrays(value: Any) -> int:
    """Restore write access on arrays frozen by :func:`freeze_arrays`.

    For privatisation paths that take back in-place ownership of a
    guarded array (rebinding a fresh copy is the preferred idiom and
    needs no release).  Returns the number of arrays released.
    """
    writable = True
    released = 0
    for arr in _arrays_in(value):
        if arr.base is not None:
            continue
        if not arr.flags.writeable:
            arr.setflags(write=writable)
            released += 1
    return released


def seal_mapping_columns(frozen_mapping: Any) -> int:
    """Seal every array column of a fully built ``FrozenMapping``, the
    page index's row table included."""
    return freeze_arrays(frozen_mapping)


def guard_shared(scheme: Any) -> int:
    """Guard a prototype's shared state at ``clone_fresh`` time.

    Freezes every array reachable from the prototype's ``__dict__``
    except the per-clone attributes ``clone_fresh`` replaces outright:
    the scheme's declared ``hardware`` and its stats.  Idempotent — the
    prototype is guarded again on every clone, which also catches views
    materialised lazily between clones.
    """
    per_clone = _PER_CLONE_ATTRS.union(scheme.hardware)
    guarded = 0
    for attr, value in vars(scheme).items():
        if attr in per_clone:
            continue
        guarded += freeze_arrays(value)
    return guarded
