"""compare.py verdicts on synthetic runs."""

import io

import pytest

from compare import compare, paired, verdict
from metrics import load_spec

BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.7, 99.3, 100.1]


@pytest.mark.parametrize("change, better, expected", [
    ([v * 1.08 for v in BASE], "higher", "improved"),
    ([v * 0.92 for v in BASE], "lower", "improved"),
    (BASE[::-1], "higher", "unchanged"),
    ([v * 0.97 for v in BASE], "higher", "unchanged"),
    ([v * 0.85 for v in BASE], "higher", "regressed"),
    ([v * 1.15 for v in BASE], "lower", "regressed"),
])
def test_verdicts(change, better, expected):
    assert verdict(BASE, change, better, 0.1)[0] == expected


def test_wide_spread_is_unresolved_unless_every_run_is_better():
    wide = [70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 75.0, 125.0, 100.0, 100.0]
    assert verdict(wide, [v * 0.95 for v in wide], "higher", 0.1)[0] == "unresolved"
    assert verdict(wide, [140.0 + i for i in range(10)], "higher", 0.1)[0] \
        == "improved"


def test_too_few_pairs_never_improve():
    assert verdict(BASE[:5], [v * 1.2 for v in BASE[:5]], "higher", 0.1)[0] \
        == "unchanged"


def test_win_fraction_counts_pairs():
    change = [v + (1 if i < 9 else -1) for i, v in enumerate(BASE)]
    assert verdict(BASE, change, "higher", 0.1)[1] == 0.9


def run_record(seed, digest="d", failed=0, scale=1.0):
    spec = load_spec()
    return {
        "workload": "engine-gups", "seed": seed, "traced": False,
        "digest": digest, "attempted": 20, "failed": failed,
        "metrics": {m["name"]: {"value": 10.0 * scale + seed * 0.01,
                                "unit": m["unit"]} for m in spec["end_to_end"]},
    }


def test_clean_comparison_exits_zero():
    parent = [run_record(s) for s in range(10)]
    change = [run_record(s) for s in range(10)]
    out = io.StringIO()
    assert compare(parent, change, load_spec(), out) == 0
    assert "unchanged" in out.getvalue()


def test_digest_mismatch_exits_nonzero():
    parent = [run_record(s) for s in range(3)]
    change = [run_record(s, digest="other" if s == 1 else "d") for s in range(3)]
    out = io.StringIO()
    assert compare(parent, change, load_spec(), out) == 1
    assert "sim.digest" in out.getvalue()


def test_repeated_seed_pairs_each_run_once():
    parent = [run_record(7, digest=label) for label in ("p1", "p2", "p3")]
    change = [run_record(7, digest=label) for label in ("c1", "c2")]
    side_p, side_c = paired(parent, change)
    assert [r["digest"] for r in side_p] == ["p1", "p2"]
    assert [r["digest"] for r in side_c] == ["c1", "c2"]


def test_failed_share_rise_exits_nonzero():
    parent = [run_record(s) for s in range(3)]
    change = [run_record(s, failed=1 if s == 0 else 0) for s in range(3)]
    assert compare(parent, change, load_spec(), io.StringIO()) == 1
