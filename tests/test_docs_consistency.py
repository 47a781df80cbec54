"""Guard rails: the documentation's claims stay true of the code.

DESIGN.md and docs/paper_mapping.md name modules, schemes and
experiments, and the README and API tour teach imports; these tests
fail if a rename or removal silently breaks the documented inventory.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def referenced_modules(text: str) -> set[str]:
    """Backtick-quoted repro.* dotted names in a markdown document."""
    names = set()
    for match in re.findall(r"`(repro(?:\.\w+)+)`", text):
        # Strip attribute-looking tails conservatively: try the full
        # dotted path first, then its parent.
        names.add(match)
    return names


def fenced_repro_imports(text: str) -> list[str]:
    """``from repro... import ...`` statements inside fenced code blocks
    (a parenthesised import is joined across its lines)."""
    statements: list[str] = []
    inside = False
    pending = ""
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            inside = not inside
            continue
        if not inside:
            continue
        if pending:
            pending += " " + line.split("#")[0].strip()
            if ")" in line:
                statements.append(pending)
                pending = ""
        elif re.match(r"\s*from repro(\.\w+)* import ", line):
            statement = line.split("#")[0].strip()
            if statement.endswith("("):
                pending = statement
            else:
                statements.append(statement)
    return statements


class TestDesignInventory:
    def test_every_referenced_module_imports(self):
        text = (ROOT / "DESIGN.md").read_text()
        missing = []
        for name in sorted(referenced_modules(text)):
            try:
                importlib.import_module(name)
            except ImportError:
                # Could be module.attribute; try the parent module.
                parent = name.rsplit(".", 1)[0]
                try:
                    module = importlib.import_module(parent)
                    if not hasattr(module, name.rsplit(".", 1)[1]):
                        missing.append(name)
                except ImportError:
                    missing.append(name)
        assert not missing, missing

    def test_every_bench_file_named_in_design_exists(self):
        text = (ROOT / "DESIGN.md").read_text()
        for path in re.findall(r"`(benchmarks/[\w./]+\.py)`", text):
            assert (ROOT / path).exists(), path

    def test_every_experiment_driver_named_in_design_exists(self):
        text = (ROOT / "DESIGN.md").read_text()
        for path in re.findall(r"`(experiments/[\w./]+\.py)`", text):
            assert (ROOT / "src" / "repro" / path).exists(), path


class TestPaperMapping:
    def test_every_referenced_test_file_exists(self):
        text = (ROOT / "docs" / "paper_mapping.md").read_text()
        for path in set(re.findall(r"`(tests/[\w./]+\.py)`", text)):
            assert (ROOT / path).exists(), path

    def test_every_referenced_example_exists(self):
        text = (ROOT / "docs" / "paper_mapping.md").read_text()
        for path in set(re.findall(r"`(examples/[\w./]+\.py)`", text)):
            assert (ROOT / path).exists(), path


@pytest.mark.parametrize("doc", ["README.md", "docs/api_tour.md"])
def test_fenced_repro_imports_resolve(doc):
    """Docs can never teach a name the package no longer exports."""
    statements = fenced_repro_imports((ROOT / doc).read_text())
    assert statements, f"no fenced repro imports found in {doc}"
    missing = []
    for statement in statements:
        node = ast.parse(statement).body[0]
        assert isinstance(node, ast.ImportFrom), statement
        module = importlib.import_module(node.module)
        for alias in node.names:
            if hasattr(module, alias.name):
                continue
            try:  # a submodule, e.g. ``from repro.experiments import fig9``
                importlib.import_module(f"{node.module}.{alias.name}")
            except ImportError:
                missing.append(f"{doc}: {statement} ({alias.name})")
    assert not missing, missing


class TestReadme:
    def test_examples_listed_exist(self):
        text = (ROOT / "README.md").read_text()
        for path in set(re.findall(r"python (examples/\w+\.py)", text)):
            assert (ROOT / path).exists(), path

    def test_scheme_names_listed_are_real(self):
        from repro.schemes.registry import scheme_names

        names = scheme_names(include_extras=True)
        for required in ("base", "thp", "cluster2mb", "rmm", "anchor-dyn"):
            assert required in names
