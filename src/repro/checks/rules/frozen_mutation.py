"""Rule ``frozen-mutation``: compiled mapping views are read-only.

A :class:`~repro.vmos.mapping.FrozenMapping` is one compiled snapshot
of one mapping version, shared by every scheme over that mapping.
Writing into its column arrays (or flipping a read-only array back to
writable) corrupts every sharer silently — the version counter cannot
see it, so no resync ever repairs the damage.  Mutate the
:class:`~repro.vmos.mapping.MemoryMapping` instead and let the version
bump recompile the view.
"""

from __future__ import annotations

import ast

from repro.checks.base import Checker, dotted_name

#: The FrozenMapping column attributes (plus the live page-table ref
#: and the page index over ``vpns``/``pfns``).
_COLUMNS = {
    "vpns", "pfns",
    "chunk_vpn", "chunk_pfn", "chunk_pages",
    "run_vpn", "run_pfn", "run_pages",
    "page_table", "index",
}

#: The arrays of the page index (``X.index.<array>``).
_INDEX_ARRAYS = {"keys", "values", "rows"}

#: The one class allowed to assign the columns: the view's own builder.
_BUILDER_CLASS = "FrozenMapping"


def _column_of(node: ast.AST) -> str | None:
    """The column a store target's base names: ``X.vpns`` gives
    ``vpns``, the page index's ``X.index.rows`` gives ``index.rows``."""
    if not isinstance(node, ast.Attribute):
        return None
    if (node.attr in _INDEX_ARRAYS and isinstance(node.value, ast.Attribute)
            and node.value.attr == "index"):
        return f"index.{node.attr}"
    return node.attr if node.attr in _COLUMNS else None


class FrozenMutationChecker(Checker):
    rule = "frozen-mutation"
    description = (
        "write into a FrozenMapping column / shared read-only array, "
        "or setflags(write=True) on one"
    )

    def _flag_target(self, target: ast.AST) -> None:
        # X.vpns = ...  (rebinding a column on a built view)
        if isinstance(target, ast.Attribute) and target.attr in _COLUMNS:
            in_builder = (
                isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and self.current_class is not None
                and self.current_class.name == _BUILDER_CLASS
            )
            if not in_builder:
                self.report(
                    target,
                    f"assignment to compiled mapping column '.{target.attr}'",
                    hint="mutate the MemoryMapping (map/unmap/set_protection) "
                         "and re-read mapping.frozen()",
                )
        # X.vpns[i] = ... / X.page_table[vpn] = ... / X.index.rows[i] = ...
        # (in-place store)
        elif isinstance(target, ast.Subscript):
            column = _column_of(target.value)
            if column is not None:
                self.report(
                    target,
                    f"in-place store into compiled mapping column "
                    f"'.{column}[...]'",
                    hint="compiled views are shared across schemes; mutate "
                         "the MemoryMapping so the version counter sees it",
                )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._flag_target(element)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._flag_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._flag_target(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._flag_target(node.target)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name is not None and name.split(".")[-1] == "setflags":
            wants_write = any(
                kw.arg == "write"
                and isinstance(kw.value, ast.Constant)
                and bool(kw.value.value)
                for kw in node.keywords
            ) or (
                node.args
                and isinstance(node.args[0], ast.Constant)
                and bool(node.args[0].value)
            )
            if wants_write:
                self.report(
                    node,
                    "setflags(write=True) re-enables writes on a "
                    "read-only array",
                    hint="copy the array if a mutable variant is needed: "
                         "arr.copy()",
                )
        self.generic_visit(node)
