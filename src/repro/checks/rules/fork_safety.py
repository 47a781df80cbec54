"""Rule ``fork-safety``: what crosses a process pool must survive it.

The orchestrator (``sim/runner.py``, which also runs the sharded
fleet's shards) and the service (``service/server.py``) both push work
through ``ProcessPoolExecutor``.  Two classes of bug are invisible to
per-file review:

1. **Unpicklable callables.**  A submitted callable is pickled *by
   reference* — module + qualname — so lambdas, closures and bound
   methods either fail outright under spawn or silently capture
   parent-process state under fork.  Everything submitted must resolve
   to a module-level function (or a module-attribute reference like
   ``os.getpid``).
2. **Unwired worker globals.**  A module global that some function
   rebinds via ``global X`` (e.g. ``_WORKER_TRACE_STORE``) is
   per-process state: fork inherits the parent's value, spawn does
   not, and either way a parent-side rebind after pool start never
   reaches the workers.  If the submitted call tree *reads* such a
   global, the pool must wire it through an executor ``initializer``
   whose call tree *writes* it.  A pool built by a module-level
   function of the project (a pool factory such as ``runner.new_pool``)
   carries that function's initializers into every file calling it.
   (Module-level caches mutated in place — the process's
   ``InputMemo`` in ``sim/runner.py`` — are fine: they are per-process
   memo state by design.)

The rule leans on the project dataflow layer: submitted names resolve
through module and function-local import tables, call trees follow the
approximate call graph across files, and rebindable globals come from
the per-module ``global``-statement scan.  Unresolvable callees are
skipped — the rule under-approximates rather than guessing.
"""

from __future__ import annotations

import ast

from repro.checks.base import Checker, dotted_name
from repro.checks.dataflow import (
    FunctionModel,
    ProjectDataflow,
    get_dataflow,
)

_POOL = "ProcessPoolExecutor"


def _pool_initializers(tree: ast.AST) -> set[str]:
    """Names passed as ``initializer=`` to the pools built in ``tree``."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and (dotted_name(node.func) or "").split(".")[-1]
                == _POOL):
            continue
        for kw in node.keywords:
            if kw.arg != "initializer":
                continue
            direct = dotted_name(kw.value)
            if direct is not None:
                names.add(direct)
    # `initializer = configure_trace_store` indirection: any value
    # ever assigned to a name passed as the kwarg counts as wired
    # (the conditional None branch resolves to nothing and drops
    # out).
    simple = {n for n in names if "." not in n}
    if simple:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if (isinstance(target, ast.Name)
                        and target.id in simple):
                    value = dotted_name(node.value)
                    if value is not None:
                        names.add(value)
    return names


class ForkSafetyChecker(Checker):
    rule = "fork-safety"
    description = (
        "callable or module-global state that cannot safely cross a "
        "ProcessPoolExecutor fork/spawn boundary"
    )

    # -- collect: initializer functions wired into this file's pools ----

    def _shared(self) -> dict:
        return self.project.shared.setdefault(
            self.rule, {"initializers": {}, "factories": {}})

    def collect(self) -> None:
        if _POOL not in self.ctx.source:
            return
        shared = self._shared()
        shared["initializers"][self.ctx.scoped_path] = _pool_initializers(
            self.ctx.tree)
        for node in self.ctx.tree.body:
            if isinstance(node, ast.FunctionDef):
                names = _pool_initializers(node)
                if names:
                    shared["factories"][
                        (self.ctx.scoped_path, node.name)] = names

    # -- check -----------------------------------------------------------

    def check(self) -> None:
        if _POOL not in self.ctx.source:
            return
        super().check()

    def visit_Call(self, node: ast.Call) -> None:
        attr = (node.func.attr
                if isinstance(node.func, ast.Attribute) else None)
        if attr == "submit" and node.args:
            self._check_callable(node.args[0])
        elif attr == "run_in_executor" and len(node.args) >= 2:
            self._check_callable(node.args[1])
        self.generic_visit(node)

    def _check_callable(self, expr: ast.expr) -> None:
        flow = get_dataflow(self.project)
        if isinstance(expr, ast.Lambda):
            self.report(
                expr,
                "lambda submitted across the fork boundary: lambdas "
                "pickle by reference to a name they do not have",
                hint="hoist the body to a module-level function",
            )
            return
        if isinstance(expr, ast.Call):
            callee = (dotted_name(expr.func) or "").split(".")[-1]
            if callee == "partial" and expr.args:
                self._check_callable(expr.args[0])
                return
            self.report(
                expr,
                "callable constructed at the submit site crosses the "
                "fork boundary: the worker unpickles a value, not a "
                "reference, so its identity and closure state are not "
                "what the parent sees",
                hint="submit a module-level function and pass the "
                     "varying parts as arguments",
            )
            return
        name = dotted_name(expr)
        if name is None:
            return
        parts = name.split(".")
        if parts[0] == "self":
            if len(parts) == 2 and self.current_class is not None:
                method = flow.resolve_method(
                    self.current_class.name, parts[1])
                if method is not None:
                    self.report(
                        expr,
                        f"bound method 'self.{parts[1]}' submitted "
                        "across the fork boundary: pickling it drags "
                        "the whole instance into every worker",
                        hint="submit a module-level function taking the "
                             "needed fields as arguments",
                    )
            return
        fn = self._resolve(flow, name)
        if fn is None:
            if len(parts) == 1 and self._is_local_def(parts[0]):
                self.report(
                    expr,
                    f"nested function '{parts[0]}' submitted across "
                    "the fork boundary: closures are not picklable by "
                    "reference",
                    hint="hoist it to module level and pass captured "
                         "state as arguments",
                )
            return
        self._check_worker_globals(expr, flow, fn)

    def _resolve(
        self, flow: ProjectDataflow, name: str
    ) -> FunctionModel | None:
        module = flow.modules.get(self.ctx.scoped_path)
        if module is None:
            return None
        models = list(module.functions.values())
        for cls in module.classes.values():
            models.extend(cls.methods.values())
        local_imports: dict[str, str] = {}
        for enclosing in self.func_stack:
            for fn in models:
                if fn.node is enclosing:
                    local_imports.update(fn.local_imports)
        return flow.resolve_function(module, name, local_imports)

    def _initializers(self, flow: ProjectDataflow) -> list[FunctionModel]:
        """The initializers wired into this file's pools: those of its
        own ``ProcessPoolExecutor`` calls and of the pool factories its
        functions call."""
        shared = self._shared()
        found = [self._resolve(flow, name) for name in
                 shared["initializers"].get(self.ctx.scoped_path, ())]
        module = flow.modules[self.ctx.scoped_path]
        callers = list(module.functions.values())
        for cls in module.classes.values():
            callers.extend(cls.methods.values())
        for fn in callers:
            for call in fn.calls:
                target = flow.resolve_function(module, call, fn.local_imports)
                if target is not None:
                    owner = flow.modules[target.module]
                    found.extend(flow.resolve_function(owner, name) for name
                                 in shared["factories"].get(target.key(), ()))
        return [fn for fn in found if fn is not None]

    def _is_local_def(self, name: str) -> bool:
        """Is ``name`` a function defined inside the enclosing scope?"""
        for enclosing in self.func_stack:
            for sub in ast.walk(enclosing):
                if (isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and sub is not enclosing and sub.name == name):
                    return True
        return False

    def _check_worker_globals(
        self, expr: ast.expr, flow: ProjectDataflow, fn: FunctionModel
    ) -> None:
        reads: set[tuple[str, str]] = set()
        for reached in flow.function_tree(fn):
            module = flow.modules.get(reached.module)
            if module is None:
                continue
            for name in (reached.global_reads
                         & module.rebindable_globals):
                reads.add((reached.module, name))
        if not reads:
            return
        wired: set[tuple[str, str]] = set()
        for init_fn in self._initializers(flow):
            for reached in flow.function_tree(init_fn):
                for name in reached.global_writes:
                    wired.add((reached.module, name))
        for module, name in sorted(reads - wired):
            self.report(
                expr,
                f"worker call tree of '{fn.qualname}' reads rebindable "
                f"module global '{name}' ({module}) but no pool "
                "initializer writes it: spawn workers start unset and "
                "parent-side rebinds never reach fork workers",
                hint="wire it through ProcessPoolExecutor(initializer="
                     "..., initargs=...) the way configure_trace_store "
                     "wires _WORKER_TRACE_STORE",
            )
