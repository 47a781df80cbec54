"""Checker framework: file/project contexts and the visitor base.

A rule is a :class:`Checker` subclass.  The runner instantiates one
checker per (rule, file) pair and drives two phases over the whole
file set:

1. **collect** — every checker sees its file and may stash cross-file
   facts in :attr:`ProjectContext.shared`;
2. **check** — every checker walks its AST and reports findings,
   reading whatever the collect phase gathered.

Rules therefore get whole-project knowledge while staying simple
single-file visitors; class hierarchies, the call graph and the
registered schemes live in the shared :mod:`repro.checks.dataflow`
model.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Any

from repro.checks.findings import Finding

#: Inline suppression: a ``repro: ignore`` comment silences every rule
#: on that line; ``repro: ignore[rule-a, rule-b]`` just those rules.
_IGNORE_RE = re.compile(r"#\s*repro:\s*ignore(?:\[([a-z0-9_,\s-]+)\])?")

#: File-level opt-out, for generated code or deliberate-violation
#: fixtures: a ``repro: skip-file`` comment anywhere skips the file.
_SKIP_FILE_RE = re.compile(r"#\s*repro:\s*skip-file")


class ProjectContext:
    """Whole-scan state shared by every checker."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.files: list[FileContext] = []
        #: Cross-file facts, keyed by rule id (each rule owns its slot).
        self.shared: dict[str, Any] = {}


class FileContext:
    """One parsed source file plus its suppression table."""

    def __init__(self, path: Path, root: Path, source: str) -> None:
        self.path = path
        try:
            self.relpath = path.relative_to(root).as_posix()
        except ValueError:  # scanned file outside the root
            self.relpath = path.as_posix()
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        parts = self.relpath.split("/")
        # Path scoping for rules that target package-relative locations
        # ("hw/", "util/rng.py"): strip everything up to the last
        # ``repro`` component so the same rule works on ``src/repro/...``
        # and on test fixture trees that mimic the layout.
        if "repro" in parts:
            cut = len(parts) - 1 - parts[::-1].index("repro")
            self.scoped_path = "/".join(parts[cut + 1:])
        else:
            self.scoped_path = self.relpath
        self.skip = any(_SKIP_FILE_RE.search(line) for line in self.lines)
        self._suppressions: dict[int, set[str] | None] = {}
        for lineno, line in enumerate(self.lines, start=1):
            match = _IGNORE_RE.search(line)
            if match is None:
                continue
            rules = match.group(1)
            self._suppressions[lineno] = (
                None if rules is None
                else {r.strip() for r in rules.split(",") if r.strip()}
            )
        self._extend_multiline_suppressions()

    def _extend_multiline_suppressions(self) -> None:
        """Anchor first-line pragmas to their whole statement.

        A finding on a multi-line call/assignment may be reported at
        any continuation line (the AST node that triggered it), while
        the ``# repro: ignore`` comment naturally sits on the first
        line.  Propagate a first-line pragma over the statement's full
        span — for compound statements (``if``/``for``/``def``/...)
        only over the *header*, so a pragma on a ``def`` line never
        blankets the whole body.
        """
        if not self._suppressions:
            return
        simple = (
            ast.Assign, ast.AnnAssign, ast.AugAssign, ast.Expr,
            ast.Return, ast.Raise, ast.Assert, ast.Delete,
            ast.Import, ast.ImportFrom,
        )
        for node in ast.walk(self.tree):
            if isinstance(node, simple):
                start = node.lineno
                end = node.end_lineno or start
            elif isinstance(node, (
                    ast.If, ast.While, ast.For, ast.AsyncFor,
                    ast.With, ast.AsyncWith, ast.FunctionDef,
                    ast.AsyncFunctionDef, ast.ClassDef)):
                start = node.lineno
                end = node.body[0].lineno - 1 if node.body else start
            else:
                continue
            if end <= start or start not in self._suppressions:
                continue
            rules = self._suppressions[start]
            for lineno in range(start + 1, end + 1):
                if lineno not in self._suppressions:
                    self._suppressions[lineno] = (
                        None if rules is None else set(rules))
                elif rules is None or self._suppressions[lineno] is None:
                    self._suppressions[lineno] = None
                else:
                    self._suppressions[lineno] |= rules

    def is_suppressed(self, lineno: int, rule: str) -> bool:
        if lineno not in self._suppressions:
            return False
        rules = self._suppressions[lineno]
        return rules is None or rule in rules


def dotted_name(node: ast.AST) -> str | None:
    """``np.random.default_rng`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class Checker(ast.NodeVisitor):
    """Base class for one rule.

    Subclasses set :attr:`rule` (the id used in findings, suppressions
    and ``--rules``) and :attr:`description`, then implement ordinary
    ``visit_*`` methods — except for classes and functions, where the
    base owns the visit to maintain :attr:`class_stack` /
    :attr:`func_stack` and dispatches to :meth:`handle_class` /
    :meth:`handle_function` instead.
    """

    rule: str = "abstract"
    description: str = ""

    def __init__(self, ctx: FileContext, project: ProjectContext) -> None:
        self.ctx = ctx
        self.project = project
        self.findings: list[Finding] = []
        self.class_stack: list[ast.ClassDef] = []
        self.func_stack: list[ast.FunctionDef | ast.AsyncFunctionDef] = []

    # -- phases ---------------------------------------------------------

    def collect(self) -> None:
        """Optional pre-pass: stash cross-file facts in project.shared."""

    def check(self) -> None:
        self.visit(self.ctx.tree)

    # -- reporting ------------------------------------------------------

    def report(self, node: ast.AST, message: str, hint: str = "") -> None:
        lineno = getattr(node, "lineno", 1)
        if self.ctx.is_suppressed(lineno, self.rule):
            return
        self.findings.append(Finding(
            path=self.ctx.relpath,
            line=lineno,
            col=getattr(node, "col_offset", 0),
            rule=self.rule,
            message=message,
            hint=hint,
        ))

    # -- scope tracking -------------------------------------------------

    @property
    def current_class(self) -> ast.ClassDef | None:
        return self.class_stack[-1] if self.class_stack else None

    @property
    def current_function(self) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        return self.func_stack[-1] if self.func_stack else None

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.class_stack.append(node)
        self.handle_class(node)
        self.generic_visit(node)
        self.class_stack.pop()

    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        self.func_stack.append(node)
        self.handle_function(node)
        self.generic_visit(node)
        self.func_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def handle_class(self, node: ast.ClassDef) -> None:
        """Hook: called on entry to a class, before its children."""

    def handle_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        """Hook: called on entry to a function, before its children."""
