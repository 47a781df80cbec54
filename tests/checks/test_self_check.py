"""The repo gates on itself: the live ``src/`` tree stays lint-clean.

This is the in-tree twin of the CI ``static-analysis`` job — a
violation anywhere in ``src/repro`` fails tier-1 locally, with the
finding text in the assertion message, before CI ever sees it.
"""

from pathlib import Path

from repro.checks.runner import run_checks

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"


def test_src_tree_is_clean_with_empty_baseline():
    result = run_checks([SRC], root=REPO_ROOT, repo_checks=False)
    rendered = "\n".join(f.render() for f in result.findings)
    assert result.findings == [], f"src/ has lint findings:\n{rendered}"
    assert result.exit_code == 0
    # The whole package was actually scanned, not an empty glob.
    assert result.files_scanned > 80


def test_dataflow_rules_clean_on_live_src_with_empty_baseline():
    """The PR's acceptance bar, pinned explicitly: the three dataflow
    rules report zero findings on the live tree with no baseline."""
    result = run_checks(
        [SRC], root=REPO_ROOT,
        rules=["fork-safety", "tag-safety", "shared-aliasing"],
        baseline_path=None, repo_checks=False)
    rendered = "\n".join(f.render() for f in result.findings)
    assert result.findings == [], f"dataflow findings:\n{rendered}"
    assert result.exit_code == 0


def test_no_tracked_bytecode():
    from repro.checks.rules import tracked_bytecode_findings
    findings = tracked_bytecode_findings(REPO_ROOT)
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"tracked bytecode:\n{rendered}"


def test_seeded_violation_is_caught(tmp_path):
    """The acceptance scenario: a bare default_rng in sim/ must fail.

    The canary lives in a package root of its own, never in the live
    tree, so concurrent test sessions in one checkout cannot collide.
    """
    canary = tmp_path / "repro" / "sim" / "_lint_canary.py"
    canary.parent.mkdir(parents=True)
    canary.write_text(
        "import numpy as np\nRNG = np.random.default_rng(0)\n")
    result = run_checks([tmp_path / "repro"], root=tmp_path,
                        repo_checks=False)
    assert result.exit_code == 1
    assert any(f.rule == "determinism"
               and f.path.endswith("sim/_lint_canary.py")
               for f in result.findings)
