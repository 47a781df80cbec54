"""The cross-module dataflow layer, exercised over its own fixture tree.

``dataflowroot`` is a three-file miniature of the package layout: a
scheme hierarchy under ``schemes/`` and a batched resolver in
``sim/lru.py``, with every write shape the extractor must classify.
"""

from pathlib import Path

import pytest

from repro.checks.base import FileContext, ProjectContext
from repro.checks.dataflow import ProjectDataflow, get_dataflow

FIXTURES = Path(__file__).parent / "fixtures"


def flow_for(root_name):
    root = FIXTURES / root_name
    project = ProjectContext(root)
    project.files = [
        FileContext(path, root, path.read_text())
        for path in sorted(root.rglob("*.py"))
    ]
    return project, get_dataflow(project)


@pytest.fixture(scope="module")
def flow():
    _, flow = flow_for("dataflowroot")
    return flow


class TestSymbolTable:
    def test_modules_keyed_by_scoped_path(self, flow):
        assert set(flow.modules) == {
            "schemes/base.py", "schemes/derived.py", "sim/lru.py"}
        assert flow.module_for("sim.lru") is flow.modules["sim/lru.py"]
        assert flow.module_for("schemes.base") is flow.modules[
            "schemes/base.py"]
        assert flow.module_for("no.such.module") is None

    def test_chain_crosses_modules(self, flow):
        chain = [c.name for c in flow.chain("DerivedScheme")]
        assert chain == ["DerivedScheme", "BaseScheme"]
        # stop= ends the chain before the named root.
        stopped = flow.chain("DerivedScheme", stop="BaseScheme")
        assert [c.name for c in stopped] == ["DerivedScheme"]
        assert flow.chain_reaches("DerivedScheme", "BaseScheme")
        assert not flow.chain_reaches("BaseScheme", "DerivedScheme")

    def test_method_resolution_nearest_definition_wins(self, flow):
        resolve = flow.resolve_method("DerivedScheme", "_resolve")
        assert resolve.qualname == "DerivedScheme._resolve"
        inherited = flow.resolve_method("DerivedScheme", "access_block")
        assert inherited.qualname == "BaseScheme.access_block"
        assert inherited.module == "schemes/base.py"
        assert flow.resolve_method("DerivedScheme", "no_such") is None

    def test_registered_schemes_come_from_the_registry(self, flow):
        # dataflowroot has no schemes/registry.py; cloneroot's registry
        # constructs three schemes (Helper is never registered).
        assert flow.registered == set()
        _, clone_flow = flow_for("cloneroot")
        assert clone_flow.registered == {
            "ForgetfulScheme", "RebuildingScheme", "CleanCloneScheme"}

    def test_function_resolution_through_imports(self, flow):
        base = flow.modules["schemes/base.py"]
        fn = flow.resolve_function(base, "simulate_block")
        assert fn is not None and fn.module == "sim/lru.py"


class TestCallGraph:
    def test_method_tree_reaches_sim_lru(self, flow):
        tree = flow.method_tree("DerivedScheme", "access_block")
        names = {(fn.module, fn.qualname) for fn in tree}
        # access_block (base) -> _resolve (derived override) ->
        # super()._resolve (base) -> simulate_block (sim/lru.py).
        assert ("schemes/base.py", "BaseScheme.access_block") in names
        assert ("schemes/derived.py", "DerivedScheme._resolve") in names
        assert ("schemes/base.py", "BaseScheme._resolve") in names
        assert ("sim/lru.py", "simulate_block") in names

    def test_rebindable_globals(self, flow):
        base = flow.modules["schemes/base.py"]
        assert base.rebindable_globals == {"_TRACE_SINK"}
        sink = base.functions["configure_sink"]
        assert sink.global_writes == {"_TRACE_SINK"}


class TestWriteSets:
    def test_every_write_shape_classified(self, flow):
        resolve = flow.resolve_method("DerivedScheme", "_resolve")
        kinds = {(w.attr, w.kind) for w in resolve.attr_writes}
        assert ("hits", "mutate") in kinds       # augmented assign
        assert ("table", "mutate") in kinds      # slice store
        assert ("freq", "mutate") in kinds       # np.copyto on self
        assert ("log", "mutate") in kinds        # in-place method call
        assert ("cache", "bind") in kinds        # plain rebind
        assert ("hits", "bind") not in kinds

    def test_init_binds(self, flow):
        init = flow.resolve_method("DerivedScheme", "__init__")
        binds = {w.attr for w in init.attr_writes if w.kind == "bind"}
        assert binds == {"table", "freq", "log"}
        assert flow.writes_in([init], kind="bind") == binds


def test_get_dataflow_cached_per_project():
    project, flow = flow_for("dataflowroot")
    assert get_dataflow(project) is flow
    assert isinstance(flow, ProjectDataflow)
