"""Rule ``shared-aliasing``: clones share views, they never rebuild or
mutate them.

The fleet constructs one *prototype* scheme per mapping key and hands
every tenant a :meth:`~repro.schemes.base.TranslationScheme.clone_fresh`
copy.  ``clone_fresh`` copies the prototype's ``__dict__`` wholesale and
then replaces the scheme's declared hardware and its stats, so every
attribute *not* rebound by ``_reset_clone`` is shared by reference
between the prototype and every clone.  A hardware structure is
recognised the way the fleet relies on it: an ``__init__``-tree bind
whose constructor class answers ``set_tag``, as every ``Structure`` does
(a structure missing from the ``hardware`` declaration is a runtime
test's job, not this rule's).
Two ways the discipline erodes:

1. a ``_reset_clone`` override rebuilds mapping-derived state: it
   touches ``self.mapping``/``frozen``, calls a ``_build_*`` helper, or
   invokes one of the known expensive constructors — paying per tenant
   the O(mapping) cost the prototype exists to amortise.  The
   prototype-side hook ``_prepare_share`` is exempt: its job *is*
   forcing those lazy builds, once, before the first clone;
2. some method anywhere in the class hierarchy *mutates* a shared
   attribute in place outside the privatisation choke points.

The distinction that makes the second checkable is **bind vs mutate**:

* a bind (``self.directory = AnchorDirectory.build(...)``) severs the
  alias — the prototype and the other clones keep the old object — and
  is therefore always allowed;
* an in-place mutation (``self.directory.note_map(...)``,
  ``self._arrays[0][i] = ...``, ``self.shootdowns += ...``) writes
  through the alias into every sibling tenant, and is allowed only in:

  - construction and rebuild paths (``__init__``, ``rebuild*``,
    ``_build*``, ``sync_mapping``, ``_on_mapping_update``),
  - the share protocol itself (``_prepare_share``, ``_reset_clone``)
    and everything those call,
  - copy-on-write methods: anything that first privatises via a
    ``self._own_*()`` call (the anchor directory's
    ``_own_directory_of()`` idiom) owns its copy and may mutate freely.

Attribute write-sets (including ``+=``, slice stores and in-place
numpy calls) come from the dataflow layer, so a mutation buried three
helpers deep in a base class two files away is still attributed to
every registered scheme that inherits it.
"""

from __future__ import annotations

import ast

from repro.checks.base import Checker, dotted_name
from repro.checks.findings import Finding
from repro.checks.dataflow import (
    ClassModel,
    FunctionModel,
    ProjectDataflow,
    get_dataflow,
)

_ROOT_CLASS = "TranslationScheme"

#: Mapping-derived builders a clone must inherit, never re-run.  Matched
#: against the head and tail of the dotted call name, so both
#: ``AnchorDirectory.build(...)`` and ``self.promote_huge_pages(...)``
#: are caught.
_EXPENSIVE_BUILDERS = {
    "promote_huge_pages",
    "promote_giga_pages",
    "RangeTable",
    "AnchorDirectory",
    "KeyIndex",
    "sorted_arrays",
    "partition_regions",
}

#: Attributes ``clone_fresh`` itself replaces on every clone besides
#: the hardware, plus the identity fields a clone legitimately keeps
#: writing through.
_PER_CLONE_ATTRS = {
    "mapping", "config", "stats", "name", "distance", "_synced_version",
}

#: Methods that may mutate shared state by name.
_CHOKE_POINTS = {
    "__init__", "_prepare_share", "_reset_clone",
    "sync_mapping", "_on_mapping_update",
}

_CHOKE_PREFIXES = ("rebuild", "_build", "_own")


def _hardware_attrs(flow: ProjectDataflow, class_name: str) -> set[str]:
    """Attributes an ``__init__``-tree bind sets to a TLB structure: a
    constructor whose class answers ``set_tag``."""
    owned: set[str] = set()
    for fn in flow.method_tree(class_name, "__init__"):
        for write in fn.attr_writes:
            if write.kind != "bind" or write.value_call is None:
                continue
            ctor = write.value_call.split(".")[-1]
            if (ctor in flow.classes
                    and flow.resolve_method(ctor, "set_tag") is not None):
                owned.add(write.attr)
    return owned


class SharedAliasingChecker(Checker):
    rule = "shared-aliasing"
    description = (
        "clone that rebuilds mapping-derived state, or in-place mutation "
        "of prototype-shared scheme state outside a privatisation choke "
        "point"
    )

    def _reported(self) -> set:
        return self.project.shared.setdefault(self.rule, set())

    def check(self) -> None:
        if not self.ctx.scoped_path.startswith("schemes/"):
            return
        flow = get_dataflow(self.project)
        module = flow.modules.get(self.ctx.scoped_path)
        if module is None:
            return
        for cls in module.classes.values():
            if not flow.chain_reaches(cls.name, _ROOT_CLASS):
                continue
            reset = cls.methods.get("_reset_clone")
            if reset is not None:
                self._check_reset_clone(cls, reset)
            if cls.name in flow.registered:
                self._check_class(flow, cls.name)

    # -- what _reset_clone must not do ----------------------------------

    def _check_reset_clone(self, cls: ClassModel, fn: FunctionModel) -> None:
        for sub in ast.walk(fn.node):
            if isinstance(sub, ast.Attribute) and sub.attr in ("mapping", "frozen"):
                self.report(
                    sub,
                    f"'{cls.name}._reset_clone' touches the mapping: "
                    "clones must inherit mapping-derived state from the "
                    "prototype, not re-derive it per tenant",
                    hint="build it once in __init__/_prepare_share and "
                         "share it by reference",
                )
            elif isinstance(sub, ast.Call):
                parts = (dotted_name(sub.func) or "").split(".")
                builder = next(
                    (p for p in (parts[0], parts[-1])
                     if p in _EXPENSIVE_BUILDERS), None)
                if builder is not None or parts[-1].startswith("_build"):
                    self.report(
                        sub,
                        f"'{cls.name}._reset_clone' calls "
                        f"'{builder or parts[-1]}': rebuilding "
                        "mapping-derived state per clone defeats the "
                        "prototype amortisation",
                        hint="force the build on the prototype in "
                             "_prepare_share; _reset_clone only recreates "
                             "per-tenant hardware",
                    )

    # -- shared-set computation -----------------------------------------

    def _shared_attrs(
        self, flow: ProjectDataflow, class_name: str
    ) -> set[str]:
        bound = flow.writes_in(
            list(flow.chain_methods(class_name).values()), kind="bind")
        # chain_methods is nearest-definition-wins, so a subclass
        # __init__ shadows the base one; follow the super().__init__
        # chain explicitly to pick up base-class binds too.
        bound |= flow.writes_in(
            flow.method_tree(class_name, "__init__"), kind="bind")
        reset = flow.writes_in(
            flow.method_tree(class_name, "_reset_clone"), kind="bind")
        hardware = _hardware_attrs(flow, class_name)
        return bound - reset - hardware - _PER_CLONE_ATTRS

    def _exempt(
        self, flow: ProjectDataflow, class_name: str, fn: FunctionModel
    ) -> bool:
        if fn.name in _CHOKE_POINTS:
            return True
        if fn.name.startswith(_CHOKE_PREFIXES):
            return True
        # Copy-on-write: a method that privatises via self._own_*()
        # before writing owns its copy.
        if any(call.startswith("self._own") for call in fn.calls):
            return True
        return False

    def _check_class(
        self, flow: ProjectDataflow, class_name: str
    ) -> None:
        shared = self._shared_attrs(flow, class_name)
        if not shared:
            return
        # Everything reachable from the share protocol is part of it.
        protocol: set[tuple[str, str]] = set()
        for entry in ("_prepare_share", "_reset_clone", "__init__",
                      "_on_mapping_update", "sync_mapping"):
            protocol.update(
                fn.key() for fn in flow.method_tree(class_name, entry))
        reported = self._reported()
        for fn in flow.chain_methods(class_name).values():
            if self._exempt(flow, class_name, fn):
                continue
            if fn.key() in protocol:
                continue
            for write in fn.attr_writes:
                if write.kind != "mutate" or write.attr not in shared:
                    continue
                site = (fn.relpath, write.lineno, write.attr)
                if site in reported:
                    continue
                reported.add(site)
                self._report_site(fn, write, class_name)

    def _report_site(self, fn, write, class_name: str) -> None:
        # Report in the file that owns the write, under whatever
        # checker instance is bound to it — base-class mutations are
        # discovered while checking a subclass defined elsewhere.
        marker = ast.Pass()
        marker.lineno = write.lineno
        marker.col_offset = 0
        if fn.relpath != self.ctx.relpath:
            for ctx in self.project.files:
                if ctx.relpath == fn.relpath:
                    if ctx.is_suppressed(write.lineno, self.rule):
                        return
                    break
            self.findings.append(Finding(
                path=fn.relpath, line=write.lineno, col=0,
                rule=self.rule,
                message=self._message(fn, write, class_name),
                hint=self._hint(),
            ))
            return
        self.report(
            marker, self._message(fn, write, class_name),
            hint=self._hint(),
        )

    def _message(self, fn, write, class_name: str) -> str:
        detail = write.detail or "in-place write"
        return (
            f"'{fn.qualname}' mutates prototype-shared attribute "
            f"'{write.attr}' in place ({detail}): through clone_fresh "
            f"sharing this writes into every tenant cloned from the "
            f"same prototype (seen via '{class_name}')"
        )

    def _hint(self) -> str:
        return (
            "rebind a private copy first (self.attr = ..., or an "
            "_own_*() copy-on-write helper), reset it per-clone in "
            "_reset_clone, or do the mutation inside "
            "__init__/rebuild*/_build*"
        )

