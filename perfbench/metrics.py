"""The benchmark's metric table and the order statistics its reports use.

``BENCHMARK.json`` at the repository root is the one place a metric's
name, unit, direction and bound are written down; the runner prints
units from it and ``compare.py`` reads bounds from it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"


def load_spec(path: Path = SPEC_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def metric_table(spec: dict, traced: bool) -> dict[str, dict]:
    """Name -> metric entry for the end-to-end or the per-layer set."""
    return {m["name"]: m for m in spec["per_layer" if traced else "end_to_end"]}


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (numpy's default, ``statistics``'
    ``method="inclusive"``); defined for a single value too."""
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("quantile of no values")
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values) -> float:
    return quantile(values, 0.5)


def quartiles(values) -> tuple[float, float, float]:
    return quantile(values, 0.25), quantile(values, 0.5), quantile(values, 0.75)
