"""Workloads of the divischeck benchmark and the oracle for their outputs.

One invocation of a workload is a fixed list of CLI calls.  The oracle is
tolerance-based, not byte-based: a change that reorders sums may move the
back-flow rates by about 1e-11, and that must not count as a failure.
Expected exact counts for the traced run are derived from the same
configuration values the argv lists carry.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HOLDS = "holds-on-grid"
VIOLATED = "violated"

# Library pair counts of ``infoflow.pair_library``: three Bloch-axis pairs
# for one qubit; six Bell, six product and one tilted-parity pair for two.
LIBRARY_PAIRS_SINGLE = 3
LIBRARY_PAIRS_TENSOR = 13

DEFAULT_GRID_POINTS = 200
DEFAULT_T_MAX = 5.0
DEFAULT_RK4_STEP = 1e-3


def _rk4_steps(grid_points: int) -> int:
    """Substeps ``generator.propagate`` takes on a uniform default grid."""
    span = DEFAULT_T_MAX / grid_points
    return grid_points * max(1, math.ceil(span / DEFAULT_RK4_STEP - 1e-12))


@dataclass
class Call:
    """One CLI call: its argv (without --seed/--output) and its output check.

    ``check`` gets the stdout envelope and the output path stem and returns
    a list of problems, empty when the output is correct.
    """

    argv: list[str]
    check: Callable[[dict, Path], list[str]]


@dataclass
class Workload:
    name: str
    calls: list[Call]
    expected_counts: dict[str, int]


def _expect(problems: list[str], ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


# -- probe-clean ---------------------------------------------------------
PROBE_GRID_POINTS = 20
PROBE_RESTARTS = 4


def _check_probe_clean(env: dict, stem: Path) -> list[str]:
    p: list[str] = []
    s = env["summary"]
    _expect(p, s["cp_divisible_on_grid"] is True, "cp_divisible_on_grid is not true")
    _expect(p, s["p_divisible_on_grid"] is True, "p_divisible_on_grid is not true")
    _expect(p, s["cp_scan_verdict"] == HOLDS, f"cp_scan_verdict {s['cp_scan_verdict']!r}")
    _expect(p, s["tensor_probe_verdict"] == HOLDS,
            f"tensor_probe_verdict {s['tensor_probe_verdict']!r}")
    payload = _read_json(stem.with_suffix(".json"))
    for key in ("cp_divisibility_scan", "tensor_p_divisibility_probe"):
        scanned = payload[key]["pairs_scanned"]
        _expect(p, scanned == PROBE_GRID_POINTS, f"{key} scanned {scanned} pairs")
    return p


PROBE_CLEAN = Workload(
    name="probe-clean",
    calls=[Call(["divisibility", "--dynamics", "semigroup", "--alpha", "0.6",
                 "--grid-points", str(PROBE_GRID_POINTS),
                 "--restarts", str(PROBE_RESTARTS)], _check_probe_clean)],
    expected_counts={
        "superop.positivity_probe.calls": PROBE_GRID_POINTS,
        "superop.positivity_probe.restarts": PROBE_GRID_POINTS * PROBE_RESTARTS,
        "generator.propagate.rk4_steps": _rk4_steps(PROBE_GRID_POINTS),
    },
)


# -- backflow ------------------------------------------------------------
BACKFLOW_SAMPLES = 100


def _check_backflow(env: dict, stem: Path) -> list[str]:
    p: list[str] = []
    s = env["summary"]
    _expect(p, s["max_sigma_single"] <= 1e-6, f"max_sigma_single {s['max_sigma_single']!r}")
    _expect(p, s["max_sigma_tensor"] > 1e-4, f"max_sigma_tensor {s['max_sigma_tensor']!r}")
    payload = _read_json(stem.with_suffix(".json"))
    label = payload["tensor"]["argmax_pair"]
    _expect(p, label == "mixed:tilted-parity", f"tensor argmax pair {label!r}")
    rows = _read_csv(stem.with_suffix(".csv"))[1:]
    n_rows = (DEFAULT_GRID_POINTS + 1) * (LIBRARY_PAIRS_TENSOR + BACKFLOW_SAMPLES)
    _expect(p, len(rows) == n_rows, f"flow CSV has {len(rows)} rows, expected {n_rows}")
    for col, key in ((2, "max_sigma_single"), (3, "max_sigma_tensor")):
        top = max(float(r[col]) for r in rows if r[col])
        _expect(p, math.isclose(top, s[key], rel_tol=1e-12, abs_tol=1e-15),
                f"flow CSV column {col} peaks at {top!r}, summary says {s[key]!r}")
    return p


BACKFLOW = Workload(
    name="backflow",
    calls=[Call(["infoflow", "--alpha", "0.6", "--samples", str(BACKFLOW_SAMPLES)],
                _check_backflow)],
    expected_counts={
        # maps at t - h and t + h for every grid time
        "superop.tensor.calls": 2 * (DEFAULT_GRID_POINTS + 1),
        "infoflow.backflow_scan.samples": (DEFAULT_GRID_POINTS + 1) * (
            LIBRARY_PAIRS_SINGLE + LIBRARY_PAIRS_TENSOR + 2 * BACKFLOW_SAMPLES),
    },
)


# -- violation-report ----------------------------------------------------
SCAN_ALPHAS = [0.5, 0.75, 1.0, 1.5]


def _check_scan(env: dict, stem: Path) -> list[str]:
    p: list[str] = []
    s = env["summary"]
    n_rows = len(SCAN_ALPHAS) * (DEFAULT_GRID_POINTS + 1)
    _expect(p, s["rows"] == n_rows, f"scan summary has {s['rows']} rows")
    _expect(p, s["non_cp_alphas"] == [0.5, 0.75], f"non_cp_alphas {s['non_cp_alphas']!r}")
    rows = _read_csv(stem.with_suffix(".csv"))[1:]
    _expect(p, len(rows) == n_rows, f"scan CSV has {len(rows)} rows, expected {n_rows}")
    return p


def _check_witness(env: dict, stem: Path) -> list[str]:
    p: list[str] = []
    s = env["summary"]
    _expect(p, s["delta_rate"] < 0, f"delta_rate {s['delta_rate']!r}")
    _expect(p, s["halving_ratio"] >= 3.5, f"halving_ratio {s['halving_ratio']!r}")
    return p


def _check_violations(env: dict, stem: Path) -> list[str]:
    p: list[str] = []
    s = env["summary"]
    _expect(p, s["cp_divisible_on_grid"] is False, "cp_divisible_on_grid is not false")
    _expect(p, s["p_divisible_on_grid"] is True, "p_divisible_on_grid is not true")
    _expect(p, s["cp_scan_verdict"] == VIOLATED, f"cp_scan_verdict {s['cp_scan_verdict']!r}")
    _expect(p, s["tensor_probe_verdict"] == VIOLATED,
            f"tensor_probe_verdict {s['tensor_probe_verdict']!r}")
    payload = _read_json(stem.with_suffix(".json"))
    worst = payload["tensor_p_divisibility_probe"]["worst_value"]
    again = payload["tensor_witness_reevaluated"]
    _expect(p, again is not None and abs(again - worst) <= 1e-9,
            f"tensor witness re-evaluates to {again!r}, reported {worst!r}")
    return p


VIOLATION_REPORT = Workload(
    name="violation-report",
    calls=[
        Call(["scan", "--alpha", ",".join(str(a) for a in SCAN_ALPHAS)], _check_scan),
        Call(["witness", "--alpha", "0.75", "--s", "1.0"], _check_witness),
        Call(["divisibility", "--alpha", "0.6", "--restarts", "2"], _check_violations),
    ],
    expected_counts={
        "superop.is_cp.calls": len(SCAN_ALPHAS) * (DEFAULT_GRID_POINTS + 1),
        "generator.propagate.rk4_steps": _rk4_steps(DEFAULT_GRID_POINTS),
    },
)


WORKLOADS = {w.name: w for w in (PROBE_CLEAN, BACKFLOW, VIOLATION_REPORT)}
