"""Rule ``scheme-contract``: schemes honour the sync/update contract.

PR 3's mapping-version protocol keeps every scheme's compiled coverage
structures in step with OS mutations: the engine calls
``sync_mapping()`` at epoch boundaries, a version change fires
``_on_mapping_update`` exactly once, and the default reaction is a
full TLB flush.  Three ways a scheme silently breaks this:

1. a registry-constructible scheme forgets a required hook
   (``access`` / ``_translate`` / a report ``name``) — the abstract
   base only catches the abstract methods, at *instantiation* time;
2. an ``_on_mapping_update`` override rebuilds its structures but
   drops the flush — resident TLB entries then translate through
   frames the OS just remapped;
3. a method caches mapping-derived state on ``self`` outside the
   version-guarded paths, recreating exactly the stale-snapshot bug
   the protocol exists to close;
4. a scheme's batched ``access_block`` hook strays from the uniform
   ``(self, vpns)`` signature the engine, the scheduler, and the fleet
   simulator all call through.  (Whether its keys carry the tenant's
   address-space tag is the ``tag-safety`` rule's business.)
"""

from __future__ import annotations

import ast

from repro.checks.base import Checker, dotted_name
from repro.checks.dataflow import get_dataflow

_ROOT_CLASS = "TranslationScheme"

#: Methods allowed to derive self.* state from the mapping: the
#: constructor, the version-guarded rebuild paths, and the engine's
#: epoch-boundary replan hook (which always reads the live mapping).
_GUARDED_METHODS = {"__init__", "rebuild", "reselect_distance",
                    "_on_mapping_update"}


class SchemeContractChecker(Checker):
    rule = "scheme-contract"
    description = (
        "TranslationScheme subclass violating the sync_mapping/"
        "_on_mapping_update contract or missing required hooks"
    )

    def check(self) -> None:
        if not self.ctx.scoped_path.startswith("schemes/"):
            return
        self.flow = get_dataflow(self.project)
        super().check()

    def handle_class(self, node: ast.ClassDef) -> None:
        if (node.name not in self.flow.registered
                or not self.flow.chain_reaches(node.name, _ROOT_CLASS)):
            return
        # The chain stops before the root, so TranslationScheme's own
        # abstract methods never count as implemented.
        chain = self.flow.chain(node.name, stop=_ROOT_CLASS)
        defined = {m for model in chain for m in model.methods}
        attrs = {a for model in chain for a in model.class_attrs}
        for hook in ("access", "_translate"):
            if hook not in defined:
                self.report(
                    node,
                    f"registered scheme '{node.name}' never implements "
                    f"'{hook}' (the abstract default would only fail at "
                    "instantiation)",
                    hint=f"define {hook}() on the class or a base",
                )
        if "name" not in attrs:
            self.report(
                node,
                f"registered scheme '{node.name}' has no 'name' class "
                "attribute for reports",
                hint="set name = \"...\" matching the registry id",
            )

    def handle_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        cls = self.current_class
        if (cls is None or len(self.func_stack) > 1
                or not any(stmt is node for stmt in cls.body)
                or cls.name == _ROOT_CLASS
                or not self.flow.chain_reaches(cls.name, _ROOT_CLASS)):
            return
        if node.name == "_on_mapping_update":
            self._check_update_hook(node)
        if node.name == "access_block":
            self._check_access_block(node, cls)
        self._check_mapping_caching(node)

    def _check_access_block(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef, cls: ast.ClassDef
    ) -> None:
        args = node.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        if (positional != ["self", "vpns"] or args.vararg is not None
                or args.kwarg is not None or args.kwonlyargs):
            self.report(
                node,
                f"'{cls.name}.access_block' deviates from the uniform "
                "(self, vpns) signature the engine and the tenant "
                "scheduler call through",
                hint="take exactly (self, vpns); move extra knobs to "
                     "__init__ or class attributes",
            )

    def _check_update_hook(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            name = dotted_name(sub.func)
            if name == "self.flush":
                return
            if (isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "_on_mapping_update"):
                return  # delegates to super()._on_mapping_update(...)
        self.report(
            node,
            "_on_mapping_update override neither flushes nor delegates: "
            "resident TLB entries survive the remap",
            hint="call self.flush() (or super()._on_mapping_update(frozen)) "
                 "after rebuilding derived state",
        )

    def _check_mapping_caching(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        if node.name in _GUARDED_METHODS or node.name.startswith("_build"):
            return
        resyncs = any(
            isinstance(sub, ast.Assign)
            and any(
                isinstance(t, ast.Attribute) and t.attr == "_synced_version"
                for t in sub.targets
            )
            for sub in ast.walk(node)
        )
        if resyncs:
            return
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Assign):
                continue
            caches_on_self = any(
                isinstance(t, ast.Attribute)
                and isinstance(t.value, ast.Name)
                and t.value.id == "self"
                and t.attr != "_synced_version"
                for t in sub.targets
            )
            if (caches_on_self and sub.value is not None
                    and self._mentions_mapping(sub.value)):
                self.report(
                    sub,
                    f"'{node.name}' caches mapping-derived state on self "
                    "outside the version-guarded paths",
                    hint="derive it in __init__/_build_*/_on_mapping_update, "
                         "or resync self._synced_version in this method",
                )

    @staticmethod
    def _mentions_mapping(expr: ast.AST) -> bool:
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Attribute) and sub.attr in ("mapping", "frozen"):
                return True
            if isinstance(sub, ast.Name) and sub.id in ("mapping", "frozen"):
                return True
        return False
