"""Baseline mechanism, JSON output schema, and the CLI front ends."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.checks.baseline import (
    BASELINE_FORMAT,
    BaselineError,
    load_baseline,
    split_by_baseline,
    update_baseline,
    write_baseline,
)
from repro.checks.cli import main as checks_main
from repro.checks.findings import Finding
from repro.checks.runner import OUTPUT_FORMAT, run_checks
from repro.checks.sarif import to_sarif

FIXTURES = Path(__file__).parent / "fixtures"
REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def det_findings():
    root = FIXTURES / "detroot"
    return run_checks([root], root=root, rules=["determinism"],
                      repo_checks=False).findings


class TestBaseline:
    def test_round_trip_masks_findings(self, tmp_path):
        findings = det_findings()
        assert findings
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, findings)
        fingerprints = load_baseline(baseline)
        new, baselined, unused = split_by_baseline(findings, fingerprints)
        assert new == []
        assert len(baselined) == len(findings)
        assert unused == set()

    def test_missing_file_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == set()

    def test_stale_entries_reported(self):
        findings = det_findings()
        fingerprints = {findings[0].fingerprint(), "deadbeefdeadbeef"}
        new, baselined, unused = split_by_baseline(findings, fingerprints)
        assert unused == {"deadbeefdeadbeef"}
        assert len(new) == len(findings) - len(baselined)

    def test_wrong_format_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": 999, "fingerprints": []}))
        with pytest.raises(BaselineError, match="format"):
            load_baseline(bad)
        bad.write_text("{not json")
        with pytest.raises(BaselineError, match="unreadable"):
            load_baseline(bad)

    def test_format_constant_in_file(self, tmp_path):
        baseline = tmp_path / "b.json"
        write_baseline(baseline, [])
        assert json.loads(baseline.read_text())["format"] == BASELINE_FORMAT


class TestUpdateBaseline:
    def test_prunes_stale_keeps_live(self, tmp_path):
        findings = det_findings()
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, findings)
        # Pretend one violation was fixed: its fingerprint goes stale.
        still = findings[1:]
        fingerprints = load_baseline(baseline)
        _, baselined, unused = split_by_baseline(still, fingerprints)
        kept, pruned = update_baseline(baseline, baselined, unused)
        assert (kept, pruned) == (len(findings) - 1, 1)
        assert load_baseline(baseline) == {
            f.fingerprint() for f in still}

    def test_does_not_adopt_new_findings(self, tmp_path):
        findings = det_findings()
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, findings[:1])
        fingerprints = load_baseline(baseline)
        _, baselined, unused = split_by_baseline(findings, fingerprints)
        update_baseline(baseline, baselined, unused)
        # Only the originally-baselined entry survives.
        assert load_baseline(baseline) == {findings[0].fingerprint()}

    def test_write_is_atomic(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, det_findings())
        # The temp file used for the atomic replace must not linger.
        leftovers = [p for p in tmp_path.iterdir() if p != baseline]
        assert leftovers == []
        assert json.loads(baseline.read_text())["format"] == BASELINE_FORMAT


class TestSarifOutput:
    @pytest.fixture(scope="class")
    def sarif(self):
        root = FIXTURES / "detroot"
        result = run_checks([root], root=root, repo_checks=False)
        return result, to_sarif(result)

    def test_log_shape(self, sarif):
        result, log = sarif
        assert log["version"] == "2.1.0"
        (run,) = log["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "anchor-tlb-check"
        rule_ids = {r["id"] for r in driver["rules"]}
        assert {"determinism", "fork-safety", "tag-safety",
                "shared-aliasing", "tracked-bytecode",
                "parse-error"} <= rule_ids
        assert len(run["results"]) == len(result.findings)

    def test_results_carry_fingerprints_and_locations(self, sarif):
        result, log = sarif
        (run,) = log["runs"]
        by_fp = {f.fingerprint(): f for f in result.findings}
        for entry in run["results"]:
            fp = entry["partialFingerprints"]["anchorTlbFingerprint/v1"]
            finding = by_fp[fp]
            assert entry["ruleId"] == finding.rule
            assert entry["level"] == "error"
            loc = entry["locations"][0]["physicalLocation"]
            assert loc["artifactLocation"]["uri"] == finding.path
            assert loc["region"]["startLine"] == max(finding.line, 1)
            assert finding.hint in entry["message"]["text"]


class TestJsonOutput:
    def test_schema_and_round_trip(self):
        root = FIXTURES / "detroot"
        result = run_checks([root], root=root, repo_checks=False)
        data = json.loads(result.to_json())
        assert data["format"] == OUTPUT_FORMAT
        assert data["files_scanned"] == 3
        assert data["exit_code"] == 1
        assert "determinism" in data["rules"]
        for entry in data["findings"]:
            finding = Finding.from_dict(entry)
            assert finding.fingerprint() == entry["fingerprint"]
        assert data["findings"] == [f.to_dict() for f in result.findings]


class TestCli:
    def run(self, *argv, cwd=None):
        """Invoke the CLI in-process, capturing stdout."""
        import contextlib
        import io
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = checks_main(list(argv))
        return code, out.getvalue()

    def test_clean_tree_exits_zero(self, tmp_path):
        clean = tmp_path / "ok.py"
        clean.write_text("X = 1\n")
        code, out = self.run(str(clean), "--no-repo-checks")
        assert code == 0
        assert "0 finding(s)" in out

    def test_violations_exit_nonzero_with_json(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nR = np.random.default_rng(0)\n")
        code, out = self.run(str(bad), "--format", "json",
                             "--no-repo-checks")
        assert code == 1
        data = json.loads(out)
        assert data["exit_code"] == 1
        assert data["findings"][0]["rule"] == "determinism"

    def test_write_baseline_then_clean(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nR = np.random.default_rng(0)\n")
        code, _ = self.run(str(bad), "--write-baseline", "--no-repo-checks")
        assert code == 0
        code, out = self.run(str(bad), "--no-repo-checks")
        assert code == 0
        assert "1 baselined" in out

    def test_update_baseline_prunes_and_still_gates(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import numpy as np\n"
            "import time\n"
            "A = np.random.default_rng(0)\n"
            "T = time.time()\n")
        baseline = tmp_path / "b.json"
        code, _ = self.run(str(bad), "--write-baseline",
                           "--baseline", str(baseline), "--no-repo-checks")
        assert code == 0
        # Fix one violation, introduce another: the stale entry must be
        # pruned, the new finding must NOT be adopted (exit stays 1).
        bad.write_text(
            "import numpy as np\n"
            "import datetime\n"
            "A = np.random.default_rng(0)\n"
            "D = datetime.datetime.now()\n")
        code, out = self.run(str(bad), "--update-baseline",
                             "--baseline", str(baseline), "--no-repo-checks")
        assert code == 1
        assert "kept 1 entrie(s), pruned 1 stale" in out
        assert len(json.loads(baseline.read_text())["fingerprints"]) == 1

    def test_sarif_format(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nR = np.random.default_rng(0)\n")
        code, out = self.run(str(bad), "--format", "sarif",
                             "--no-repo-checks")
        assert code == 1
        log = json.loads(out)
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["results"][0]["ruleId"] == "determinism"

    def test_timings_go_to_stderr(self, tmp_path):
        import contextlib
        import io
        clean = tmp_path / "ok.py"
        clean.write_text("X = 1\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = checks_main([str(clean), "--timings",
                                "--no-repo-checks"])
        assert code == 0
        assert "parse" in err.getvalue()
        assert "total" in err.getvalue()
        assert "parse" not in out.getvalue()

    def test_rules_filter_and_listing(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nR = np.random.default_rng(0)\n")
        code, _ = self.run(str(bad), "--rules", "dtype-hygiene",
                           "--no-repo-checks")
        assert code == 0  # determinism not selected
        code, out = self.run("--list-rules")
        assert code == 0
        for rule in ("determinism", "scheme-contract", "frozen-mutation",
                     "dtype-hygiene", "shared-aliasing", "tracked-bytecode"):
            assert rule in out

    def test_unknown_rule_is_usage_error(self, tmp_path):
        code, _ = self.run(str(tmp_path), "--rules", "bogus")
        assert code == 2

    def test_parse_error_is_a_finding(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        code, out = self.run(str(broken), "--no-repo-checks")
        assert code == 1
        assert "parse-error" in out


def test_module_and_anchor_tlb_entry_points():
    """`python -m repro.checks` and `anchor-tlb check` both gate."""
    repo_root = REPO_SRC.parents[1]
    for cmd in (
        [sys.executable, "-m", "repro.checks", "--list-rules"],
        [sys.executable, "-m", "repro.experiments.cli", "check",
         "--list-rules"],
    ):
        proc = subprocess.run(
            cmd, capture_output=True, text=True, cwd=repo_root, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "determinism" in proc.stdout
