import argparse
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from divischeck import cli, generator, pauli_family, superop


def run(args):
    return cli.main(args)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestScan:
    def test_header_and_cp_classification(self, tmp_path, capsys):
        out = tmp_path / "scan"
        code = run(["scan", "--alpha", "0.5,0.75,1.0,1.5",
                    "--grid-points", "40", "--output", str(out)])
        assert code == 0
        rows = read_csv(str(out) + ".csv")
        assert rows[0] == cli.SCAN_HEADER
        by_alpha = {}
        for row in rows[1:]:
            by_alpha.setdefault(float(row[0]), []).append(row)
        for alpha, group in by_alpha.items():
            has_non_cp = any(r[13] == "false" for r in group)
            assert has_non_cp == (alpha < 1.0)
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["command"] == "scan"
        assert set(envelope["summary"]["non_cp_alphas"]) == {0.5, 0.75}

    def test_unit_strength_p3_column_zero(self, tmp_path):
        out = tmp_path / "scan"
        run(["scan", "--alpha", "1.0", "--grid-points", "30", "--output", str(out)])
        rows = read_csv(str(out) + ".csv")
        for row in rows[1:]:
            assert abs(float(row[5])) <= 1e-12

    def test_origin_rows_are_identity_channel(self, tmp_path):
        out = tmp_path / "scan"
        run(["scan", "--alpha", "0.8", "--grid-points", "10", "--output", str(out)])
        row = read_csv(str(out) + ".csv")[1]
        assert float(row[1]) == 0.0
        assert float(row[2]) == 1.0
        assert float(row[3]) == float(row[4]) == float(row[5]) == 0.0

    def test_json_format(self, tmp_path):
        out = tmp_path / "scan"
        run(["scan", "--alpha", "0.9", "--grid-points", "5",
            "--format", "json", "--output", str(out)])
        payload = json.loads((tmp_path / "scan.json").read_text())
        assert len(payload) == 6
        assert set(payload[0]) == set(cli.SCAN_HEADER)

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["scan", "--alpha", "0.6,1.2", "--grid-points", "25",
             "--seed", "11", "--output", str(a)])
        run(["scan", "--alpha", "0.6,1.2", "--grid-points", "25",
             "--seed", "11", "--output", str(b)])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @staticmethod
    def expected_rows(alphas, grid):
        """Scan rows rebuilt from the closed forms and the exact CP test."""
        rows = []
        for alpha in alphas:
            for t in grid:
                t = float(t)
                l = pauli_family.bloch_eigenvalues(t, alpha)
                p = pauli_family.pauli_weights(t, alpha)
                q = pauli_family.squared_pauli_weights(t, alpha)
                _, choi_min = superop.is_cp(pauli_family.pauli_channel(*l))
                numbers = [alpha, t, *p, *q, l[0], l[2], choi_min]
                cp = "true" if pauli_family.cp_criterion(t, alpha) else "false"
                gamma3 = pauli_family.rates(t, alpha)[2]
                rows.append([format(float(x), ".17g") for x in numbers]
                            + [cp, format(float(gamma3), ".17g")])
        return rows

    def test_csv_bytes_are_what_a_csv_writer_writes(self, tmp_path):
        out = tmp_path / "scan"
        assert run(["scan", "--alpha", "0.5,0.75,1.0,1.5", "--seed", "1",
                    "--output", str(out)]) == 0
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(cli.SCAN_HEADER)
        writer.writerows(self.expected_rows([0.5, 0.75, 1.0, 1.5], cli.RunConfig().grid()))
        assert (tmp_path / "scan.csv").read_bytes() == expected.getvalue().encode("utf-8")

    def test_json_rows_are_the_csv_cells(self, tmp_path):
        out = tmp_path / "scan"
        assert run(["scan", "--alpha", "0.5,0.75", "--format", "json", "--seed", "1",
                    "--output", str(out)]) == 0
        rows = self.expected_rows([0.5, 0.75], cli.RunConfig().grid())
        payload = json.loads((tmp_path / "scan.json").read_text())
        assert len(payload) == len(rows)
        # a JSON row carries the numbers and the bool that the CSV cells spell
        for record, row in zip(payload, rows):
            assert set(record) == set(cli.SCAN_HEADER)
            for name, cell in zip(cli.SCAN_HEADER, row):
                if name == "cp":
                    assert record[name] is (cell == "true")
                else:
                    assert type(record[name]) is float
                    assert record[name] == float(cell)


    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_blocks_of_seven_grid_times_write_the_same_bytes(self, tmp_path, monkeypatch, fmt):
        # 31 grid times per alpha: four full blocks of seven and one of three
        argv = ["scan", "--alpha", "0.5,1.5", "--grid-points", "30", "--format", fmt]
        assert run(argv + ["--output", str(tmp_path / "whole")]) == 0
        calls = []
        is_cp = superop.is_cp
        monkeypatch.setattr(cli, "_SCAN_BLOCK", 7)
        monkeypatch.setattr(superop, "is_cp", lambda s, *a: calls.append(s) or is_cp(s, *a))
        assert run(argv + ["--output", str(tmp_path / "blocks")]) == 0
        assert ((tmp_path / f"blocks.{fmt}").read_bytes()
                == (tmp_path / f"whole.{fmt}").read_bytes())
        assert len(calls) == 2 * 31

    def test_csv_peak_memory_is_one_block(self, tmp_path, monkeypatch, capsys):
        # 2,001 rows held in one list before writing would take about 2 MB
        monkeypatch.setattr(cli, "_SCAN_BLOCK", 100)
        tracemalloc.start()
        try:
            code = run(["scan", "--grid-points", "2000", "--output", str(tmp_path / "scan")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 1e6

    @pytest.mark.parametrize("bound", [803, 804])
    def test_refuses_a_table_past_its_row_bound_before_building_the_grid(
            self, tmp_path, capsys, monkeypatch, bound):
        # four alphas x 201 grid times = 804 rows, counted before the grid is built
        grids = []
        default_grid = pauli_family.default_grid
        monkeypatch.setattr(cli, "MAX_SCAN_ROWS", bound)
        monkeypatch.setattr(pauli_family, "default_grid",
                            lambda *a: grids.append(a) or default_grid(*a))
        code = run(["scan", "--alpha", "0.5,0.75,1.0,1.5", "--output", str(tmp_path / "scan")])
        if bound == 803:
            assert code == 2
            assert capsys.readouterr().err == (
                "divischeck: error: the scan needs 804 rows, more than the bound "
                "MAX_SCAN_ROWS = 803\n")
            assert grids == [] and not list(tmp_path.iterdir())
        else:
            assert code == 0 and len(grids) == 1


class TestDivisibility:
    @pytest.mark.parametrize("bound", [79, 80])
    def test_refuses_a_probe_walk_past_its_restart_bound_before_building_the_grid(
            self, tmp_path, capsys, monkeypatch, bound):
        # 20 segments x 4 restarts = 80 restarts, counted before the grid is built
        grids, families = [], []
        default_grid, propagate = pauli_family.default_grid, generator.propagate
        monkeypatch.setattr(superop, "MAX_PROBE_RESTARTS", bound)
        monkeypatch.setattr(pauli_family, "default_grid",
                            lambda *a: grids.append(a) or default_grid(*a))
        monkeypatch.setattr(generator, "propagate",
                            lambda *a: families.append(a) or propagate(*a))
        code = run(["divisibility", "--dynamics", "semigroup", "--alpha", "0.6",
                    "--grid-points", "20", "--restarts", "4", "--output", str(tmp_path / "div")])
        if bound == 79:
            assert code == 2
            assert capsys.readouterr().err == (
                "divischeck: error: the probe walk needs 80 restarts, more than the bound "
                "MAX_PROBE_RESTARTS = 79\n")
            assert (grids, families) == ([], []) and not list(tmp_path.iterdir())
        else:
            assert code == 0 and (len(grids), len(families)) == (1, 1)

    def test_model_report(self, tmp_path):
        out = tmp_path / "div"
        code = run(["divisibility", "--alpha", "0.6", "--t-max", "2.0",
                    "--grid-points", "40", "--restarts", "40", "--tol", "1e-6",
                    "--rk4-step", "5e-3", "--seed", "1", "--output", str(out)])
        assert code == 0
        payload = json.loads((tmp_path / "div.json").read_text())
        assert payload["p_divisibility_check"]["satisfied"] is True
        assert payload["cp_divisibility_check"]["satisfied"] is False
        assert payload["cp_divisibility_scan"]["verdict"] == "violated"
        probe = payload["tensor_p_divisibility_probe"]
        assert probe["verdict"] == "violated"
        assert probe["worst_pair"][0] > 0.0
        # the probe reports the value its witness reproduces, bit for bit
        assert payload["tensor_witness_reevaluated"] == probe["worst_value"]

    def test_probe_value_is_what_its_witness_reproduces(self, tmp_path):
        # at this config a value taken from the probe's iterate without
        # renormalizing it differs from the witness's in the last bits
        out = tmp_path / "div"
        assert run(["divisibility", "--alpha", "0.6", "--restarts", "2",
                    "--seed", "1", "--output", str(out)]) == 0
        payload = json.loads((tmp_path / "div.json").read_text())
        probe = payload["tensor_p_divisibility_probe"]
        assert probe["verdict"] == "violated"
        assert probe["worst_value"] == payload["tensor_witness_reevaluated"]

    def test_rk4_step_outside_stability_interval_exits_2(self, tmp_path, capsys):
        # step x rate = 1e-3 x 2 x 1400 = 2.8 lies past RK4's real-axis limit
        out = tmp_path / "div"
        code = run(["divisibility", "--dynamics", "semigroup", "--alpha", "1400",
                    "--grid-points", "4", "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "outside RK4's stability region" in err
        assert "the largest stable step is 0.000994748" in err
        assert not (tmp_path / "div.json").exists()

    def test_rk4_step_past_the_grid_spacing_exits_2(self, tmp_path, capsys):
        # the default grid's spacing is 0.025; the step is stable for the model
        out = tmp_path / "div"
        assert run(["divisibility", "--rk4-step", "0.5", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert ("step must not exceed the grid spacing: step 0.5 against the smallest "
                "spacing 0.025") in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("points, message", [
        ("1001", "the grid needs at least 1001 RK4 substeps, one per segment, more than the "
                 "bound MAX_RK4_SUBSTEPS = 1000"),
        ("1000", "the grid needs 5000 RK4 substeps of at most 0.001, more than the bound "
                 "MAX_RK4_SUBSTEPS = 1000"),
    ], ids=["more-segments-than-the-bound", "as-many-segments-as-the-bound"])
    def test_an_over_budget_grid_exits_2_before_any_c_of_t(self, tmp_path, capsys,
                                                           monkeypatch, points, message):
        # each segment takes at least one substep: a grid of more segments
        # than the bound is refused before it is built, and any other goes to
        # propagate, whose refusal comes before both generator checks
        grids, rates = [], []
        default_grid, model_rates = pauli_family.default_grid, pauli_family.rates
        monkeypatch.setattr(generator, "MAX_RK4_SUBSTEPS", 1000)
        monkeypatch.setattr(pauli_family, "default_grid",
                            lambda *a: grids.append(a) or default_grid(*a))
        monkeypatch.setattr(pauli_family, "rates", lambda *a: rates.append(a) or model_rates(*a))
        assert run(["divisibility", "--alpha", "0.6", "--grid-points", points,
                    "--output", str(tmp_path / "div")]) == 2
        assert capsys.readouterr().err == f"divischeck: error: {message}\n"
        assert (len(grids), rates) == (points == "1000", [])
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("alpha, step", [("1400", "5e-4"), ("1000", "1e-3")])
    def test_stable_rk4_step_at_large_alpha(self, tmp_path, alpha, step):
        out = tmp_path / "div"
        assert run(["divisibility", "--dynamics", "semigroup", "--alpha", alpha,
                    "--grid-points", "4", "--rk4-step", step, "--output", str(out)]) == 0
        payload = json.loads((tmp_path / "div.json").read_text())
        assert payload["cp_divisibility_scan"]["verdict"] == "holds-on-grid"
        assert payload["tensor_p_divisibility_probe"]["verdict"] == "holds-on-grid"

    def test_semigroup_all_pass(self, tmp_path):
        out = tmp_path / "div"
        code = run(["divisibility", "--alpha", "2.0", "--dynamics", "semigroup",
                    "--t-max", "1.0", "--grid-points", "10", "--restarts", "5",
                    "--rk4-step", "5e-3", "--output", str(out)])
        assert code == 0
        payload = json.loads((tmp_path / "div.json").read_text())
        assert payload["cp_divisibility_check"]["satisfied"] is True
        assert payload["p_divisibility_check"]["satisfied"] is True
        assert payload["cp_divisibility_scan"]["verdict"] == "holds-on-grid"
        assert payload["tensor_p_divisibility_probe"]["verdict"] == "holds-on-grid"


@pytest.mark.parametrize("name", list(cli.DYNAMICS))
class TestDynamicsTable:
    """Every ``--dynamics`` name, through every command that takes it."""

    def test_channel_is_the_map_its_generator_integrates_to(self, name):
        channel, make_generator = cli.DYNAMICS[name]
        grid = np.linspace(0.0, 1.0, 5)
        family = generator.propagate(make_generator(0.6), grid, 1e-3)
        for t, m in zip(grid, family.maps):
            np.testing.assert_allclose(m, channel(float(t), 0.6), atol=1e-10)

    def test_divisibility_steps_around_the_largest_stable_step(self, tmp_path, capsys, name):
        # the step an unstable run reports as the largest stable one passes
        # just below and fails just above, from the generator's own spectrum
        def divisibility(step, stem):
            return run(["divisibility", "--dynamics", name, "--alpha", "1400",
                        "--grid-points", "4", "--restarts", "2", "--rk4-step", step,
                        "--output", str(tmp_path / stem)])

        if name == "identity":
            # nothing decays: every step up to the grid spacing is stable
            spacing = np.diff(cli.RunConfig(grid_points=4).grid()).min()
            assert divisibility(repr(float(spacing)), "spacing") == 0
            return
        assert divisibility("1e-3", "unstable") == 2
        reported = re.search(r"the largest stable step is (\S+)$", capsys.readouterr().err)
        largest = float(reported.group(1))
        assert divisibility(repr(largest * (1 - 1e-5)), "below") == 0
        assert divisibility(repr(largest * (1 + 1e-5)), "above") == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["below.json"]

    def test_scan_takes_the_model_only(self, tmp_path, capsys, name):
        # the scan tabulates the model's closed forms; any other --dynamics
        # would be a model table under another name
        out = tmp_path / "scan"
        code = run(["scan", "--dynamics", name, "--grid-points", "4", "--output", str(out)])
        if name == "model":
            assert code == 0
            assert json.loads(capsys.readouterr().out)["config"]["dynamics"] == "model"
        else:
            assert code == 2
            assert f"got --dynamics {name}" in capsys.readouterr().err
            assert not (tmp_path / "scan.csv").exists()

    def test_divisibility(self, tmp_path, name):
        out = tmp_path / "div"
        assert run(["divisibility", "--dynamics", name, "--alpha", "0.6",
                    "--t-max", "1.0", "--grid-points", "6", "--restarts", "3",
                    "--rk4-step", "5e-3", "--output", str(out)]) == 0
        payload = json.loads((tmp_path / "div.json").read_text())
        assert payload["dynamics"] == name
        # only the model's rates go negative
        assert payload["cp_divisibility_check"]["satisfied"] is (name != "model")
        probe = payload["tensor_p_divisibility_probe"]
        assert (probe["verdict"] == "violated") is (name == "model")
        if name == "model":
            # the probe reports the value its witness reproduces, bit for bit
            assert probe["worst_value"] == payload["tensor_witness_reevaluated"]
        else:
            assert payload["tensor_witness_reevaluated"] is None

    def test_infoflow(self, tmp_path, name):
        out = tmp_path / "flow"
        assert run(["infoflow", "--dynamics", name, "--alpha", "0.6",
                    "--t-max", "1.0", "--grid-points", "6", "--samples", "3",
                    "--output", str(out)]) == 0
        payload = json.loads((tmp_path / "flow.json").read_text())
        assert payload["dynamics"] == name
        # a Pauli family with nonnegative pairwise rate sums never shows
        # single-qubit back-flow, and a CP-divisible one none at all
        assert payload["single"]["max_sigma"] <= 1e-6
        if name != "model":
            assert payload["tensor"]["max_sigma"] <= 1e-6
        rows = read_csv(str(out) + ".csv")
        assert rows[0] == cli.INFOFLOW_HEADER
        grid = cli.RunConfig(t_max=1.0, grid_points=6).grid()
        assert len(rows) == 1 + len(payload["tensor"]["pair_labels"]) * len(grid)


class TestWitness:
    def test_model_witness_payload(self, tmp_path):
        out = tmp_path / "wit"
        code = run(["witness", "--alpha", "0.75", "--s", "1.0", "--output", str(out)])
        assert code == 0
        payload = json.loads((tmp_path / "wit.json").read_text())
        assert payload["delta_rate"] < 0
        assert payload["delta_rate"] == pytest.approx(-0.75 * np.tanh(1.0), abs=1e-9)
        assert payload["orthogonality"] <= 1e-10
        assert payload["halving_ratio"] >= 3.5
        checks = payload["finite_dt_checks"]
        assert checks[0]["dt"] == pytest.approx(1e-4)
        assert checks[1]["dt"] == pytest.approx(5e-5)

    @pytest.mark.parametrize("alpha, code", [("13900", 0), ("13950", 2), ("1e300", 2),
                                             ("8e307", 2)])
    def test_fd_step_outside_the_tensor_stability_interval_exits_2(self, tmp_path, capsys,
                                                                   alpha, code):
        # the check steps L itself, whose tensor square is stable iff it is:
        # fd_step x 2 alpha = 2.78 for alpha 13900 and 2.79 for 13950, around
        # RK4's real-axis limit 2.7853; 2 alpha = 1.6e308 for 8e307
        out = tmp_path / "wit"
        assert run(["witness", "--alpha", alpha, "--output", str(out)]) == code
        captured = capsys.readouterr()
        if code == 0:
            assert math.isfinite(json.loads(captured.out)["summary"]["halving_ratio"])
        else:
            assert (f"step 0.0001 is outside RK4's stability region for L(t) at t=1; the "
                    f"largest stable step is {2.785293563405282 / (2 * float(alpha)):.6g}"
                    ) in captured.err
            assert not list(tmp_path.iterdir())

    def test_s_zero_rejected(self, tmp_path, capsys):
        out = tmp_path / "wit"
        code = run(["witness", "--alpha", "0.75", "--s", "0.0", "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "positive semidefinite" in err


@pytest.fixture
def flow_reports(monkeypatch):
    """The reports of the CLI's ``backflow_scan`` calls, in call order."""
    reports = []
    scan = cli.infoflow.backflow_scan

    def recording_scan(*args, **kwargs):
        reports.append(scan(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli.infoflow, "backflow_scan", recording_scan)
    return reports


class TestInfoflow:
    @pytest.mark.parametrize("bound", [22712, 22713])
    def test_refuses_a_scan_past_its_sample_bound_before_drawing_a_pair(
            self, tmp_path, capsys, monkeypatch, bound):
        # the default two-qubit scan takes (13 library + 100 drawn) pairs x
        # 201 grid times = 22,713 samples, counted before any pair is drawn
        draws = []
        library = cli.infoflow.pair_library
        monkeypatch.setattr(cli.infoflow, "MAX_FLOW_SAMPLES", bound)
        monkeypatch.setattr(cli.infoflow, "pair_library",
                            lambda dim, samples=0, seed=0: draws.append(samples)
                            or library(dim, samples, seed))
        code = run(["infoflow", "--output", str(tmp_path / "flow")])
        if bound == 22712:
            assert code == 2
            assert capsys.readouterr().err == (
                "divischeck: error: the scan needs 22713 (pair, time) samples, more than the "
                "bound MAX_FLOW_SAMPLES = 22712\n")
            assert not any(draws) and not list(tmp_path.iterdir())
        else:
            assert code == 0 and draws == [0, 100, 100]

    def test_model_superactivation_summary(self, tmp_path):
        out = tmp_path / "flow"
        code = run(["infoflow", "--alpha", "0.6", "--t-max", "3.0",
                    "--grid-points", "40", "--samples", "15", "--seed", "3",
                    "--output", str(out)])
        assert code == 0
        payload = json.loads((tmp_path / "flow.json").read_text())
        assert payload["single"]["max_sigma"] <= 1e-6
        assert payload["tensor"]["max_sigma"] > 1e-4
        rows = read_csv(str(out) + ".csv")
        assert rows[0] == cli.INFOFLOW_HEADER

    def test_identity_dynamics_flat(self, tmp_path):
        out = tmp_path / "flow"
        code = run(["infoflow", "--dynamics", "identity", "--grid-points", "10",
                    "--t-max", "1.0", "--samples", "5", "--output", str(out)])
        assert code == 0
        rows = read_csv(str(out) + ".csv")
        for row in rows[1:]:
            for cell in (row[2], row[3]):
                if cell:
                    assert abs(float(cell)) <= 1e-8

    def test_determinism(self, tmp_path):
        args = ["infoflow", "--alpha", "0.6", "--t-max", "2.0",
                "--grid-points", "15", "--samples", "8", "--seed", "21"]
        run(args + ["--output", str(tmp_path / "a")])
        run(args + ["--output", str(tmp_path / "b")])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_csv_cells_are_the_report_sigmas(self, tmp_path, flow_reports):
        out = tmp_path / "flow"
        code = run(["infoflow", "--alpha", "0.6", "--grid-points", "9",
                    "--samples", "7", "--seed", "4", "--output", str(out)])
        assert code == 0
        single, tensor = flow_reports
        grid = cli.RunConfig(grid_points=9).grid()
        rows = read_csv(str(out) + ".csv")
        assert rows[0] == cli.INFOFLOW_HEADER
        n_pairs = max(len(single.sigma), len(tensor.sigma))
        assert len(single.sigma) < len(tensor.sigma)
        assert len(rows) == 1 + n_pairs * len(grid)
        for r, row in enumerate(rows[1:]):
            k, ti = divmod(r, len(grid))
            assert row[:2] == [str(k), format(float(grid[ti]), ".17g")]
            for cell, report in zip(row[2:], (single, tensor)):
                if k < len(report.sigma):
                    assert float(cell) == report.sigma[k, ti]
                else:
                    assert cell == ""

    @pytest.mark.parametrize("flags, config", [
        ([], {}),
        (["--grid-points", "9", "--samples", "7"], {"grid_points": 9}),
    ], ids=["default", "small"])
    def test_csv_bytes_are_what_a_csv_writer_writes(self, tmp_path, flow_reports,
                                                    flags, config):
        # the tensor family scans ten more library pairs than the single one,
        # so its last rows have blank single cells
        out = tmp_path / "flow"
        assert run(["infoflow", "--seed", "1", "--output", str(out)] + flags) == 0
        single, tensor = (r.sigma for r in flow_reports)
        grid = cli.RunConfig(**config).grid()
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(cli.INFOFLOW_HEADER)
        for k in range(max(len(single), len(tensor))):
            for ti, t in enumerate(grid):
                writer.writerow([k, format(float(t), ".17g")] + [
                    format(float(sigma[k, ti]), ".17g") if k < len(sigma) else ""
                    for sigma in (single, tensor)])
        assert len(single) < len(tensor)
        assert (tmp_path / "flow.csv").read_bytes() == expected.getvalue().encode("utf-8")

    def test_peak_memory_does_not_grow_with_the_rows(self, tmp_path, capsys):
        # the default grid gives 22,713 CSV rows; held in one list before
        # writing, they would take about 8.5 MB
        tracemalloc.start()
        try:
            code = run(["infoflow", "--samples", "100", "--seed", "1",
                        "--output", str(tmp_path / "flow")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 3e6


class TestConfigAndErrors:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 0.9, "grid_points": 12,
                                   "output_path": str(tmp_path / "from-config")}))
        code = run(["scan", "--config", str(cfg), "--grid-points", "6"])
        assert code == 0
        rows = read_csv(str(tmp_path / "from-config.csv"))
        assert len(rows) == 1 + 7  # header + points+1 grid rows

    def test_integral_float_config_value_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid_points": 6.0, "t_max": 2,
                                   "output_path": str(tmp_path / "x")}))
        assert run(["scan", "--config", str(cfg)]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert config["grid_points"] == 6 and type(config["grid_points"]) is int
        assert config["t_max"] == 2.0 and type(config["t_max"]) is float

    # the scans take no all-pairs option: the consecutive segments decide every
    # pair; the probe's sweep cap is no option either: it stops on convergence
    @pytest.mark.parametrize("name", ["alhpa", "all_pairs", "probe_steps"])
    def test_unknown_config_field(self, tmp_path, capsys, name):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({name: 1.0}))
        assert run(["scan", "--config", str(cfg)]) == 2
        assert f"unknown config fields: [{name!r}]" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", [
        pytest.param({"grid_points": "many"}, id="grid_points-string"),
        pytest.param({"grid_points": 2.9}, id="grid_points-fraction"),
        pytest.param({"restarts": 1.5}, id="restarts-fraction"),
        pytest.param({"seed": True}, id="seed-bool"),
        pytest.param({"tol": True}, id="tol-bool"),
        pytest.param({"alpha": [0.6, False]}, id="alpha-bool"),
        pytest.param({"format": 1}, id="format-int"),
    ])
    def test_mistyped_config_value(self, tmp_path, capsys, raw):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert run(["scan", "--config", str(cfg)]) == 2
        assert "invalid value" in capsys.readouterr().err

    def test_malformed_config_json(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run(["scan", "--config", str(cfg)]) == 2
        capsys.readouterr()

    def test_invalid_values_exit_2(self, tmp_path, capsys):
        assert run(["scan", "--alpha", "-1.0", "--output", str(tmp_path / "x")]) == 2
        assert run(["scan", "--grid-points", "1", "--output", str(tmp_path / "x")]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("flags, message", [
        (["--tol", "nan"], "tol must be finite"),
        (["--alpha", "nan"], "alpha values must be finite"),
        (["--alpha", "0.6,inf"], "alpha values must be finite"),
        (["--t-max", "nan"], "t_max must be finite"),
        (["--rk4-step", "inf"], "rk4_step must be finite"),
        (["--s=-inf"], "error: s must be finite"),
        (["--fd-step", "inf"], "fd_step must be finite"),
    ])
    def test_non_finite_values_exit_2(self, tmp_path, capsys, flags, message):
        code = run(["divisibility", *flags, "--output", str(tmp_path / "x")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("command", ["scan", "divisibility", "witness", "infoflow"])
    def test_alpha_whose_double_overflows_exits_2(self, tmp_path, capsys, command):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run([command, "--alpha", "1e308", "--output", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"at most {sys.float_info.max / 2} so that 2 alpha is finite, got 1e+308" in err
        assert "RuntimeWarning" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["scan", "--alpha", "8e307", "--grid-points", "4"],
        ["infoflow", "--alpha", "1e300", "--grid-points", "4", "--samples", "2"],
    ], ids=["scan", "infoflow"])
    def test_huge_valid_alpha_runs_without_warnings(self, tmp_path, capsys, argv):
        # a t overflows a double here; the closed forms take its limit, and
        # pytest's filterwarnings = error turns any RuntimeWarning into a failure
        assert run(argv + ["--output", str(tmp_path / "x")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("dynamics", ["model", "semigroup"])
    def test_huge_valid_alpha_rejects_the_rk4_step_without_warnings(self, tmp_path, capsys,
                                                                    dynamics):
        # L decays at 2 alpha = 1.6e308: the maps overflow before the check
        # rejects the step, and pytest's filterwarnings = error catches any warning
        assert run(["divisibility", "--dynamics", dynamics, "--alpha", "8e307",
                    "--grid-points", "4", "--output", str(tmp_path / "x")]) == 2
        assert ("outside RK4's stability region for L(t) at t=0; the largest stable step "
                "is 1.74081e-308" in capsys.readouterr().err)
        assert not list(tmp_path.iterdir())

    def test_empty_alpha_list_exits_2(self, tmp_path, capsys):
        assert run(["scan", "--alpha", ",", "--output", str(tmp_path / "x")]) == 2
        assert "at least one alpha is needed" in capsys.readouterr().err

    def test_non_finite_config_value_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"tol": NaN}')
        assert run(["scan", "--config", str(cfg)]) == 2
        assert "tol must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["divisibility", "witness", "infoflow"])
    def test_single_alpha_commands_reject_an_alpha_list(self, tmp_path, capsys, command):
        code = run([command, "--alpha", "0.75,0.5", "--output", str(tmp_path / "x")])
        assert code == 2
        assert f"{command} takes one alpha, got 2" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_output_exits_2(self, capsys):
        code = run(["scan", "--alpha", "1.0", "--grid-points", "5",
                    "--output", "/nonexistent-dir-zz/out"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["scan", "--format", "xml"], "argument --format: invalid choice"),
        (["divisibility", "--all-pairs"], "unrecognized arguments: --all-pairs"),
    ], ids=["invalid-choice", "removed-flag"])
    def test_usage_error_exits_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


class TestFlagsMirrorRunConfig:
    def _actions(self, command):
        sub = next(a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        return [a for a in sub.choices[command]._actions
                if a.dest not in ("help", "config")]

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_one_flag_per_field(self, command):
        actions = self._actions(command)
        assert sorted(a.dest for a in actions) == sorted(f.name for f in fields(cli.RunConfig))
        assert all(len(a.option_strings) == 1 for a in actions)

    def test_every_flag_reaches_the_config(self, tmp_path, capsys):
        expected = {
            "alpha": [0.7], "t_max": 1.0, "grid_points": 4,
            "rk4_step": 5e-3, "restarts": 2, "tol": 1e-6,
            "seed": 3, "output_path": str(tmp_path / "div"), "format": "json",
            "s": 0.5, "dynamics": "semigroup", "samples": 7, "fd_step": 2e-4,
        }
        defaults = asdict(cli.RunConfig())
        assert all(expected[k] != defaults[k] for k in defaults)
        flags = {a.dest: a.option_strings for a in self._actions("divisibility")}
        argv = ["divisibility"]
        for name, value in expected.items():
            if isinstance(value, list):
                argv += flags[name] + [",".join(map(str, value))]
            else:
                argv += flags[name] + [str(value)]
        assert run(argv) == 0
        assert json.loads(capsys.readouterr().out)["config"] == expected


def test_main_builds_the_parser_once_and_keeps_no_flags(monkeypatch, tmp_path, capsys):
    # RunConfig's field types are evaluated once, at import: parsing and
    # casting read that table, not the annotations
    monkeypatch.setattr(cli, "get_type_hints", None)
    cli._build_parser.cache_clear()
    out = str(tmp_path / "scan")
    assert run(["scan", "--alpha", "0.5", "--grid-points", "3", "--seed", "5",
                "--output", out]) == 0
    first = json.loads(capsys.readouterr().out)["config"]
    assert run(["scan", "--alpha", "0.5", "--output", out]) == 0
    second = json.loads(capsys.readouterr().out)["config"]
    assert cli._build_parser.cache_info().misses == 1
    defaults = asdict(cli.RunConfig())
    for name, value in {"grid_points": 3, "seed": 5}.items():
        assert first[name] == value != defaults[name] == second[name]


def test_import_does_not_load_scipy():
    """scipy is a test-only dependency; importing the CLI must not pull it in."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, divischeck.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "False"


def strict_json(text):
    """json.loads that rejects NaN and +-Infinity, which are not JSON."""
    def reject(constant):
        raise ValueError(f"non-finite number {constant} in JSON")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("argv", [
    ["scan", "--alpha", "0.5,1.5", "--grid-points", "4"],
    ["scan", "--alpha", "0.5,8e307", "--grid-points", "4", "--format", "json"],
    ["divisibility", "--alpha", "0.6", "--grid-points", "4", "--restarts", "2"],
    ["divisibility", "--dynamics", "semigroup", "--alpha", "0.6", "--grid-points", "4",
     "--restarts", "2"],
    ["witness", "--alpha", "0.75"],
    ["infoflow", "--alpha", "0.6", "--grid-points", "4", "--samples", "2"],
    ["infoflow", "--dynamics", "identity", "--grid-points", "4", "--samples", "2"],
], ids=lambda argv: "-".join(a.lstrip("-") for a in argv[:3]))
def test_envelope_and_payloads_are_strict_json(tmp_path, capsys, argv):
    assert run(argv + ["--output", str(tmp_path / "out")]) == 0
    envelope = strict_json(capsys.readouterr().out)
    for path in envelope["outputs"]:
        text = Path(path).read_text()
        if path.endswith(".json"):
            strict_json(text)
        else:
            # every CSV cell is a finite number, a bare word or blank
            cells = [c for row in csv.reader(io.StringIO(text)) for c in row]
            assert not [c for c in cells if c.lower() in ("nan", "inf", "-inf")]
