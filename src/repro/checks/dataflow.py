"""Whole-project dataflow: symbol table, call graph, attribute write-sets.

PRs 6-9 made correctness depend on properties no single-file visitor
can see: callables crossing a fork boundary must be picklable by
reference, ASID tags must be OR-ed into every TLB key a block fast
path constructs, and prototype-shared state may
only be mutated behind privatisation choke points.  This module gives
rules the three project-wide structures those contracts need:

* a **symbol table** — every module's imports (including
  function-local ones), module-level functions, classes and their
  methods, resolved across files by scoped path, plus the scheme
  classes ``schemes/registry.py`` constructs;
* an approximate **call graph** — ``self.m()`` resolved over the class
  chain, bare and dotted names resolved through the import table,
  ``super().m()`` resolved to the next chain link;
* per-class **attribute write-sets** — which methods *rebind*
  (``self.x = ...``) versus *mutate* (``self.x[i] = ...``,
  ``self.x += ...``, ``self.x.field = ...``, ``self.x.append(...)``,
  ``np.copyto(self.x, ...)``) which ``self.*`` attributes.

Everything is built **once per run** from the already-parsed
:class:`~repro.checks.base.FileContext` trees and cached in
``ProjectContext.shared["dataflow"]``, so every rule that calls
:func:`get_dataflow` shares one analysis (and no file is ever
re-parsed per (rule, file) pair).

The analysis is deliberately approximate — name-based, first-base
inheritance chains, no flow sensitivity — matching the calibration
philosophy of the rule suite: model the idioms this codebase actually
uses, precisely enough that live ``src/`` is clean and each seeded
violation fires.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.checks.base import FileContext, ProjectContext, dotted_name

#: project.shared slot owned by this module.
SHARED_KEY = "dataflow"

#: Method names that mutate their receiver in place.  Dict/set/list
#: mutators, numpy in-place operations, and this codebase's known
#: incremental-maintenance entry points (AnchorDirectory ``note_*``,
#: TLB fills).
INPLACE_METHODS = frozenset({
    # dict / set / list
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault", "add", "discard",
    # numpy
    "sort", "reverse", "fill", "setflags", "resize", "put", "itemset",
    "partition",
    # domain-specific incremental maintenance
    "note_map", "note_unmap", "note_protect", "log",
})

#: ``np.<fn>(target, ...)`` calls that write into their first argument.
INPLACE_NP_CALLS = frozenset({
    "copyto", "put", "place", "putmask", "at",
})


@dataclass
class AttrWrite:
    """One write to ``self.<attr>`` (or through it)."""

    attr: str       #: root attribute after ``self``
    kind: str       #: ``"bind"`` (rebinds the name) or ``"mutate"``
    lineno: int
    detail: str = ""            #: what the write looked like, for messages
    value_call: str | None = None   #: dotted callee when the bound value is a call


@dataclass
class FunctionModel:
    """One function or method, with the facts rules query."""

    name: str
    qualname: str
    module: str                 #: scoped path of the defining module
    relpath: str
    lineno: int
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None = None
    calls: list[str] = field(default_factory=list)
    local_imports: dict[str, str] = field(default_factory=dict)
    global_reads: set[str] = field(default_factory=set)
    global_writes: set[str] = field(default_factory=set)
    attr_writes: list[AttrWrite] = field(default_factory=list)
    mentions: set[str] = field(default_factory=set)

    def key(self) -> tuple[str, str]:
        return (self.module, self.qualname)


@dataclass
class ClassModel:
    name: str
    module: str
    relpath: str
    lineno: int
    node: ast.ClassDef
    bases: list[str] = field(default_factory=list)
    methods: dict[str, FunctionModel] = field(default_factory=dict)
    class_attrs: dict[str, ast.expr | None] = field(default_factory=dict)


@dataclass
class ModuleModel:
    scoped_path: str
    relpath: str
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionModel] = field(default_factory=dict)
    classes: dict[str, ClassModel] = field(default_factory=dict)
    #: module globals some function rebinds via ``global X; X = ...``
    rebindable_globals: set[str] = field(default_factory=set)


def _scoped_module_path(dotted: str) -> list[str]:
    """Candidate scoped paths for a dotted module name.

    ``repro.sim.runner`` and the fixture-tree spelling ``sim.runner``
    both resolve to ``sim/runner.py`` (and ``sim/runner/__init__.py``).
    """
    parts = dotted.split(".")
    if parts and parts[0] == "repro":
        parts = parts[1:]
    if not parts:
        return []
    base = "/".join(parts)
    return [f"{base}.py", f"{base}/__init__.py"]


class _FunctionScanner(ast.NodeVisitor):
    """Collect calls, mentions, writes and global reads of one function."""

    def __init__(self, model: FunctionModel) -> None:
        self.model = model
        self._assigned: set[str] = {
            a.arg for a in (
                model.node.args.posonlyargs + model.node.args.args
                + model.node.args.kwonlyargs
            )
        }
        for extra in (model.node.args.vararg, model.node.args.kwarg):
            if extra is not None:
                self._assigned.add(extra.arg)
        self._loads: set[str] = set()
        self._globals: set[str] = set()

    def run(self) -> None:
        for stmt in self.model.node.body:
            self.visit(stmt)
        # A bare-name load that is never assigned locally and is not a
        # declared parameter reads the enclosing (module) scope.
        self.model.global_reads = self._loads - self._assigned
        self.model.global_writes = self._globals & self._assigned

    # -- names ----------------------------------------------------------

    def visit_Name(self, node: ast.Name) -> None:
        self.model.mentions.add(node.id)
        if isinstance(node.ctx, ast.Load):
            self._loads.add(node.id)
        else:
            self._assigned.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.model.mentions.add(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        # Short string constants count as mentions so reflective idioms
        # like ``for attr in ("l2", "range_tlb"): getattr(self, attr)``
        # register as touching those attributes.  The length cap keeps
        # docstrings out.
        if isinstance(node.value, str) and len(node.value) <= 40:
            self.model.mentions.add(node.value)

    def visit_Global(self, node: ast.Global) -> None:
        self._globals.update(node.names)
        # `global X` names are module-scope by declaration: assignment
        # to them is a rebind of the module global, not a local.
        self._loads.update(node.names)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            self._assigned.add(bound)
            self.model.local_imports[bound] = alias.name

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None:
            return
        for alias in node.names:
            bound = alias.asname or alias.name
            self._assigned.add(bound)
            self.model.local_imports[bound] = f"{node.module}.{alias.name}"

    # -- calls ----------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = dotted_name(func)
        if name is not None:
            self.model.calls.append(name)
        elif (isinstance(func, ast.Attribute)
              and isinstance(func.value, ast.Call)
              and isinstance(func.value.func, ast.Name)
              and func.value.func.id == "super"):
            self.model.calls.append(f"super.{func.attr}")
        self._scan_inplace_call(node)
        self.generic_visit(node)

    def _scan_inplace_call(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr in INPLACE_METHODS:
            root = _self_root(func.value)
            if root is not None:
                self.model.attr_writes.append(AttrWrite(
                    attr=root, kind="mutate", lineno=node.lineno,
                    detail=f".{func.attr}(...)",
                ))
        name = dotted_name(func)
        if (name is not None and node.args
                and name.split(".")[-1] in INPLACE_NP_CALLS
                and len(name.split(".")) >= 2):
            root = _self_root(node.args[0])
            if root is not None:
                self.model.attr_writes.append(AttrWrite(
                    attr=root, kind="mutate", lineno=node.lineno,
                    detail=f"{name}(...)",
                ))

    # -- writes ---------------------------------------------------------

    def _record_target(self, target: ast.AST, value: ast.expr | None,
                       detail: str, force_mutate: bool = False) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_target(element, None, detail, force_mutate)
            return
        if isinstance(target, ast.Starred):
            self._record_target(target.value, None, detail, force_mutate)
            return
        if isinstance(target, ast.Name):
            self._assigned.add(target.id)
            return
        if isinstance(target, ast.Attribute):
            if (isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                kind = "mutate" if force_mutate else "bind"
                call = dotted_name(value.func) if isinstance(
                    value, ast.Call) else None
                self.model.attr_writes.append(AttrWrite(
                    attr=target.attr, kind=kind, lineno=target.lineno,
                    detail=detail, value_call=call,
                ))
            else:
                root = _self_root(target.value)
                if root is not None:
                    self.model.attr_writes.append(AttrWrite(
                        attr=root, kind="mutate", lineno=target.lineno,
                        detail=f".{target.attr} = ...",
                    ))
            return
        if isinstance(target, ast.Subscript):
            root = _self_root(target.value)
            if root is not None:
                self.model.attr_writes.append(AttrWrite(
                    attr=root, kind="mutate", lineno=target.lineno,
                    detail="[...] = ...",
                ))

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_target(target, node.value, "= ...")
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_target(node.target, node.value, "= ...")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        # `self.x += ...` mutates arrays/containers in place; for
        # rebinding scalars the distinction is moot (the old value is
        # unchanged), so classify every augmented store as a mutation.
        self._record_target(node.target, None, "+=", force_mutate=True)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                root = _self_root(target.value)
                if root is not None:
                    self.model.attr_writes.append(AttrWrite(
                        attr=root, kind="mutate", lineno=target.lineno,
                        detail="del [...]",
                    ))
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._record_target(node.target, None, "for-target")
        self.generic_visit(node)

    visit_AsyncFor = visit_For

    def visit_withitem(self, node: ast.withitem) -> None:
        if node.optional_vars is not None:
            self._record_target(node.optional_vars, None, "with-target")
        self.generic_visit(node)

    def _visit_comp(self, node: ast.AST) -> None:
        for gen in node.generators:  # type: ignore[attr-defined]
            self._record_target(gen.target, None, "comp-target")
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp

    def _visit_nested(self, node: ast.AST) -> None:
        # Nested defs run in this function's frame: record the bound
        # name, keep walking so closure bodies contribute calls and
        # writes to the enclosing function's model.
        self._assigned.add(node.name)  # type: ignore[attr-defined]
        self.generic_visit(node)

    visit_FunctionDef = _visit_nested
    visit_AsyncFunctionDef = _visit_nested
    visit_ClassDef = _visit_nested


def _self_root(node: ast.AST) -> str | None:
    """``self.a.b[0].c`` -> ``"a"``; None when the chain isn't on self."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        parent = node.value
        if (isinstance(node, ast.Attribute)
                and isinstance(parent, ast.Name) and parent.id == "self"):
            return node.attr
        node = parent
    return None


class ProjectDataflow:
    """The shared cross-module analysis, built once per run."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleModel] = {}
        #: class name -> defining ClassModel (names are unique in this
        #: codebase; last definition wins on a clash).
        self.classes: dict[str, ClassModel] = {}
        #: Class names ``schemes/registry.py`` calls: the registered
        #: schemes the scheme rules hold to the full contract.
        self.registered: set[str] = set()

    # -- construction ---------------------------------------------------

    @classmethod
    def build(cls, files: list[FileContext]) -> "ProjectDataflow":
        flow = cls()
        for ctx in files:
            flow._add_file(ctx)
        return flow

    def _add_file(self, ctx: FileContext) -> None:
        module = ModuleModel(scoped_path=ctx.scoped_path, relpath=ctx.relpath)
        self.modules[ctx.scoped_path] = module
        if ctx.scoped_path == "schemes/registry.py":
            self.registered.update(
                node.func.id for node in ast.walk(ctx.tree)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name))
        for stmt in ctx.tree.body:
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    module.imports[bound] = alias.name
            elif isinstance(stmt, ast.ImportFrom) and stmt.module:
                for alias in stmt.names:
                    bound = alias.asname or alias.name
                    module.imports[bound] = f"{stmt.module}.{alias.name}"
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = self._scan_function(stmt, ctx, class_name=None)
                module.functions[fn.name] = fn
                module.rebindable_globals |= fn.global_writes
            elif isinstance(stmt, ast.ClassDef):
                model = self._scan_class(stmt, ctx)
                module.classes[model.name] = model
                self.classes[model.name] = model
                for fn in model.methods.values():
                    module.rebindable_globals |= fn.global_writes

    def _scan_class(self, node: ast.ClassDef, ctx: FileContext) -> ClassModel:
        model = ClassModel(
            name=node.name, module=ctx.scoped_path, relpath=ctx.relpath,
            lineno=node.lineno, node=node,
            bases=[b for b in map(dotted_name, node.bases) if b],
        )
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                model.methods[stmt.name] = self._scan_function(
                    stmt, ctx, class_name=node.name)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        model.class_attrs[target.id] = stmt.value
            elif (isinstance(stmt, ast.AnnAssign)
                  and isinstance(stmt.target, ast.Name)):
                model.class_attrs[stmt.target.id] = stmt.value
        return model

    def _scan_function(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        ctx: FileContext,
        class_name: str | None,
    ) -> FunctionModel:
        qual = f"{class_name}.{node.name}" if class_name else node.name
        model = FunctionModel(
            name=node.name, qualname=qual, module=ctx.scoped_path,
            relpath=ctx.relpath, lineno=node.lineno, node=node,
            class_name=class_name,
        )
        _FunctionScanner(model).run()
        return model

    # -- symbol resolution ----------------------------------------------

    def module_for(self, dotted: str) -> ModuleModel | None:
        for candidate in _scoped_module_path(dotted):
            if candidate in self.modules:
                return self.modules[candidate]
        return None

    def chain(
        self, class_name: str, stop: str | None = None
    ) -> list[ClassModel]:
        """The class and its first-base ancestry, as far as it resolves.

        With ``stop`` the chain ends just before that class, so a
        root's own (abstract) methods never count as defined.
        """
        chain: list[ClassModel] = []
        seen: set[str] = set()
        name = class_name
        while name in self.classes and name not in seen and name != stop:
            seen.add(name)
            model = self.classes[name]
            chain.append(model)
            name = model.bases[0].split(".")[-1] if model.bases else ""
        return chain

    def chain_reaches(self, class_name: str, root: str) -> bool:
        """True when the first-base chain names ``root`` as a base."""
        return any(
            base.split(".")[-1] == root
            for model in self.chain(class_name) for base in model.bases
        )

    def resolve_method(
        self, class_name: str, method: str
    ) -> FunctionModel | None:
        for model in self.chain(class_name):
            if method in model.methods:
                return model.methods[method]
        return None

    def resolve_function(
        self, module: ModuleModel, name: str,
        local_imports: dict[str, str] | None = None,
    ) -> FunctionModel | None:
        """A bare or dotted callee name, resolved from ``module``."""
        parts = name.split(".")
        imports = dict(module.imports)
        if local_imports:
            imports.update(local_imports)
        if len(parts) == 1:
            if parts[0] in module.functions:
                return module.functions[parts[0]]
            target = imports.get(parts[0])
            if target is None:
                return None
            # `from repro.sim.runner import configure_trace_store`
            head, _, leaf = target.rpartition(".")
            owner = self.module_for(head)
            if owner is not None and leaf in owner.functions:
                return owner.functions[leaf]
            return None
        # `runner._trace_for(...)` through a module alias.
        target = imports.get(parts[0])
        if target is None:
            return None
        owner = self.module_for(target)
        if owner is not None and parts[-1] in owner.functions:
            return owner.functions[parts[-1]]
        return None

    # -- call graph -----------------------------------------------------

    def method_tree(
        self, class_name: str, method: str, max_depth: int = 40
    ) -> list[FunctionModel]:
        """Functions reachable from ``class_name.method``, BFS order.

        ``self.m()`` resolves over the chain, ``super().m()`` to the
        next link after the caller's defining class, bare/dotted names
        through the import tables.  Unresolvable callees are skipped —
        the graph is an under-approximation by design.
        """
        start = self.resolve_method(class_name, method)
        if start is None:
            return []
        return self._walk_tree([start], class_name, max_depth)

    def function_tree(
        self, fn: FunctionModel, max_depth: int = 40
    ) -> list[FunctionModel]:
        """Functions reachable from a module-level function."""
        return self._walk_tree([fn], fn.class_name, max_depth)

    def _walk_tree(
        self,
        roots: list[FunctionModel],
        class_name: str | None,
        max_depth: int,
    ) -> list[FunctionModel]:
        seen: set[tuple[str, str]] = {fn.key() for fn in roots}
        order = list(roots)
        frontier = list(roots)
        for _ in range(max_depth):
            if not frontier:
                break
            next_frontier: list[FunctionModel] = []
            for fn in frontier:
                for callee in self._resolve_calls(fn, class_name):
                    if callee.key() not in seen:
                        seen.add(callee.key())
                        order.append(callee)
                        next_frontier.append(callee)
            frontier = next_frontier
        return order

    def _resolve_calls(
        self, fn: FunctionModel, class_name: str | None
    ) -> list[FunctionModel]:
        module = self.modules.get(fn.module)
        resolved: list[FunctionModel] = []
        for call in fn.calls:
            parts = call.split(".")
            if parts[0] == "self" and class_name is not None:
                if len(parts) == 2:
                    target = self.resolve_method(class_name, parts[1])
                    if target is not None:
                        resolved.append(target)
                continue
            if parts[0] == "super" and len(parts) == 2 and class_name:
                target = self._resolve_super(fn, class_name, parts[1])
                if target is not None:
                    resolved.append(target)
                continue
            if module is not None:
                target = self.resolve_function(
                    module, call, fn.local_imports)
                if target is not None:
                    resolved.append(target)
        return resolved

    def _resolve_super(
        self, fn: FunctionModel, class_name: str, method: str
    ) -> FunctionModel | None:
        chain = self.chain(class_name)
        names = [model.name for model in chain]
        if fn.class_name in names:
            for model in chain[names.index(fn.class_name) + 1:]:
                if method in model.methods:
                    return model.methods[method]
        return None

    # -- write-sets -----------------------------------------------------

    def chain_methods(self, class_name: str) -> dict[str, FunctionModel]:
        """Every method over the chain (nearest definition wins)."""
        methods: dict[str, FunctionModel] = {}
        for model in self.chain(class_name):
            for name, fn in model.methods.items():
                methods.setdefault(name, fn)
        return methods

    def writes_in(
        self, fns: list[FunctionModel], kind: str | None = None
    ) -> set[str]:
        """Attributes written by any of ``fns`` (optionally one kind)."""
        return {
            w.attr
            for fn in fns for w in fn.attr_writes
            if kind is None or w.kind == kind
        }


def get_dataflow(project: ProjectContext) -> ProjectDataflow:
    """The per-run :class:`ProjectDataflow`, built on first request."""
    flow = project.shared.get(SHARED_KEY)
    if not isinstance(flow, ProjectDataflow):
        flow = ProjectDataflow.build(project.files)
        project.shared[SHARED_KEY] = flow
    return flow
