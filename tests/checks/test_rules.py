"""Per-rule positive and negative cases over the fixture trees.

Each fixture root mimics the package layout the rule scopes to
(``util/rng.py``, ``hw/``, ``schemes/``...), is parsed but never
imported, and contains both violations and clean counterparts.
"""

from pathlib import Path

import pytest

from repro.checks.runner import run_checks

FIXTURES = Path(__file__).parent / "fixtures"


def findings_in(root_name, rules=None):
    root = FIXTURES / root_name
    result = run_checks([root], root=root, rules=rules, repo_checks=False)
    return result.findings


def by_file(findings):
    grouped = {}
    for f in findings:
        grouped.setdefault(f.path, []).append(f)
    return grouped


class TestDeterminism:
    @pytest.fixture(scope="class")
    def findings(self):
        return findings_in("detroot", rules=["determinism"])

    def test_flags_each_violation_kind(self, findings):
        messages = "\n".join(
            f.message for f in findings if f.path == "bad_det.py")
        assert "'random' module" in messages
        assert "np.random.default_rng" in messages
        assert "np.random.seed" in messages
        assert "time.time" in messages
        assert "datetime.now" in messages
        assert "hash()" in messages
        assert "os.listdir" in messages

    def test_clean_file_and_rng_exemption(self, findings):
        files = by_file(findings)
        assert "good_det.py" not in files  # monotonic clocks, sorted()
        assert "util/rng.py" not in files  # the sanctioned entropy source

    def test_findings_carry_hints(self, findings):
        assert all(f.hint for f in findings)


class TestDtypeHygiene:
    @pytest.fixture(scope="class")
    def findings(self):
        return findings_in("dtyperoot", rules=["dtype-hygiene"])

    def test_flags_bare_constructors_in_hot_paths(self, findings):
        files = by_file(findings)
        assert len(files["hw/bad.py"]) == 4  # zeros/array/full/arange
        assert len(files["sim/lru.py"]) == 1

    def test_explicit_dtype_passes(self, findings):
        assert "hw/good.py" not in by_file(findings)

    def test_out_of_scope_module_not_flagged(self, findings):
        assert "experiments/free.py" not in by_file(findings)


class TestSchemeContract:
    @pytest.fixture(scope="class")
    def findings(self):
        return findings_in("schemeroot", rules=["scheme-contract"])

    def test_hollow_scheme_missing_hooks(self, findings):
        messages = "\n".join(
            f.message for f in findings if "HollowScheme" in f.message)
        assert "'access'" in messages
        assert "'_translate'" in messages
        assert "'name'" in messages

    def test_update_hook_without_flush(self, findings):
        assert any("neither flushes nor delegates" in f.message
                   for f in findings)

    def test_unguarded_mapping_cache(self, findings):
        assert any("caches mapping-derived state" in f.message
                   and "'refresh'" in f.message for f in findings)

    def test_access_block_signature_deviation(self, findings):
        assert any("(self, vpns) signature" in f.message
                   and "LeakyTagScheme" in f.message for f in findings)

    def test_clean_scheme_and_non_scheme_pass(self, findings):
        text = "\n".join(f.message for f in findings)
        assert "CleanScheme" not in text
        assert "Helper" not in text
        # resync() caches but also resyncs _synced_version: allowed.
        assert "'resync'" not in text


class TestCloneContract:
    """Share-don't-rebuild cloning, enforced by ``shared-aliasing``."""

    @pytest.fixture(scope="class")
    def findings(self):
        return findings_in("cloneroot", rules=["shared-aliasing"])

    def test_mapping_touch_in_reset_clone(self, findings):
        assert any("touches the mapping" in f.message
                   and "RebuildingScheme" in f.message for f in findings)

    def test_build_helper_call_in_reset_clone(self, findings):
        assert any("'_build_views'" in f.message for f in findings)

    def test_expensive_builders_in_reset_clone(self, findings):
        text = "\n".join(f.message for f in findings)
        assert "'AnchorDirectory'" in text
        assert "'RangeTable'" in text
        assert "'KeyIndex'" in text

    def test_prepare_share_exempt_and_non_scheme_pass(self, findings):
        text = "\n".join(f.message for f in findings)
        assert "CleanCloneScheme" not in text
        assert "Helper" not in text


class TestFrozenMutation:
    @pytest.fixture(scope="class")
    def findings(self):
        return findings_in("frozenroot", rules=["frozen-mutation"])

    def test_every_mutation_kind_flagged(self, findings):
        bad = by_file(findings)["bad_frozen.py"]
        # 3 subscript (one into the page index's table), 1 rebind,
        # 1 augassign, 2 setflags
        assert len(bad) == 7
        assert any("'.index.rows[...]'" in f.message for f in bad)

    def test_builder_and_readers_pass(self, findings):
        assert "good_frozen.py" not in by_file(findings)


class TestSuppression:
    @pytest.fixture(scope="class")
    def findings(self):
        return findings_in("supproot")

    def test_inline_and_file_pragmas(self, findings):
        # Three violations in suppressed.py: one silenced by a rule-
        # scoped pragma, one by a blanket pragma; the third pragma names
        # the wrong rule and must NOT silence anything.  skipped.py is
        # opted out entirely.
        here = [f for f in findings if f.path == "suppressed.py"]
        assert [(f.path, f.line) for f in here] == [("suppressed.py", 5)]

    def test_multiline_statement_anchoring(self, findings):
        # A pragma on the first line of a multi-line statement covers
        # the continuation lines too (the dict literal), but a pragma
        # on a def line covers the header only, never the body; and a
        # wrong-rule pragma on a spanned statement silences nothing.
        here = sorted(
            (f.line for f in findings if f.path == "multiline.py"))
        assert here == [19, 26]


class TestForkSafety:
    @pytest.fixture(scope="class")
    def findings(self):
        return findings_in("forkroot", rules=["fork-safety"])

    def test_flags_each_violation_kind(self, findings):
        files = by_file(findings)
        runner = {f.line: f.message for f in files["sim/runner.py"]}
        assert sorted(runner) == [21, 32, 33, 45]
        assert "reads rebindable module global '_WORKER_STORE'" in runner[21]
        assert "nested function 'shard'" in runner[32]
        assert "lambda submitted across the fork boundary" in runner[33]
        assert "bound method 'self.run_one'" in runner[45]

    def test_follows_imports_into_worker_tree(self, findings):
        # server.py submits service.api.execute_request, which hops
        # through a function-local ``from sim import runner`` into the
        # global-reading job two modules away.
        files = by_file(findings)
        (finding,) = files["service/server.py"]
        assert "'execute_request'" in finding.message
        assert "_WORKER_STORE" in finding.message

    def test_wired_and_benign_patterns_are_clean(self, findings):
        # good_runner.py wires the same global-reading job through an
        # initializer (via name indirection), submits a pure job, a
        # partial over one, os.getpid, and a data-attribute callable.
        assert "sim/good_runner.py" not in by_file(findings)

    def test_pool_factory_carries_its_initializer(self, findings):
        # factory_server.py submits what server.py submits, but builds
        # its pool through good_runner.new_pool, which wires it.
        assert "service/factory_server.py" not in by_file(findings)


class TestTagSafety:
    @pytest.fixture(scope="class")
    def findings(self):
        return findings_in("tagroot", rules=["tag-safety"])

    def test_flags_each_violation_kind(self, findings):
        # One kind is left: set_asid and the fleet's shared hierarchy
        # iterate the scheme's hardware declaration, which
        # tests/schemes/test_clone_fresh.py::TestHardwareDeclaration
        # checks at runtime.
        files = by_file(findings)
        bad = {f.line: f.message for f in files["schemes/bad.py"]}
        assert sorted(bad) == [18]
        assert "never packs an address-space tag" in bad[18]

    def test_evidence_idioms_and_optout_are_clean(self, findings):
        # good.py proves the tag idiom through a helper into
        # simulate_block and through the explicit tag_base OR; no
        # scheme can opt out of tagging.
        files = by_file(findings)
        assert list(files) == ["schemes/bad.py"]


class TestSharedAliasing:
    @pytest.fixture(scope="class")
    def findings(self):
        # These tests pin the mutation check.
        return [f for f in findings_in("aliasroot", rules=["shared-aliasing"])
                if "mutates prototype-shared" in f.message]

    def test_flags_each_mutation_shape(self, findings):
        files = by_file(findings)
        bad = {f.line: f.message for f in files["schemes/bad.py"]}
        assert sorted(bad) == [17, 20, 23, 26]
        assert "'_runs'" in bad[17]  # subscript store
        assert "'hits'" in bad[20] and "(+=)" in bad[20]
        assert "'table'" in bad[23]  # slice store
        assert "'freq'" in bad[26] and "np.copyto" in bad[26]

    def test_base_class_mutation_reported_cross_file(self, findings):
        # TranslationScheme.note mutates log_buf in schemes/base.py;
        # the class is only registered through its subclasses, so the
        # site is discovered while checking bad.py but reported where
        # the write lives.
        files = by_file(findings)
        (finding,) = files["schemes/base.py"]
        assert "'TranslationScheme.note'" in finding.message
        assert "'log_buf'" in finding.message

    def test_set_tag_structures_are_per_clone(self, findings):
        # hardware.py: an __init__ bind whose constructor defines
        # set_tag is per-clone hardware (clone_fresh replaces it), so
        # only the tagless buffer's in-place fill is flagged.
        files = by_file(findings)
        (finding,) = files["schemes/hardware.py"]
        assert finding.line == 27 and "'victims'" in finding.message

    def test_choke_points_and_rebinds_are_clean(self, findings):
        # good.py: _own_*() copy-on-write, plain rebinds, rebuild*/
        # _build* mutations, _reset_clone-covered scratch state, and a
        # _prepare_share helper are all allowed.
        assert "schemes/good.py" not in by_file(findings)


def test_unknown_rule_rejected():
    with pytest.raises(ValueError, match="unknown rule"):
        findings_in("detroot", rules=["no-such-rule"])
