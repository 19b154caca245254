import argparse
import csv
import json
import os
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from divischeck import cli


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


class TestDivisibility:
    def test_model_report(self, tmp_path):
        out = tmp_path / "div"
        code = run(["divisibility", "--alpha", "0.6", "--t-max", "2.0",
                    "--grid-points", "40", "--restarts", "40",
                    "--probe-steps", "300", "--tol", "1e-6",
                    "--rk4-step", "5e-3", "--seed", "1", "--output", str(out)])
        assert code == 0
        payload = json.loads((tmp_path / "div.json").read_text())
        assert payload["p_divisibility_check"]["satisfied"] is True
        assert payload["cp_divisibility_check"]["satisfied"] is False
        assert payload["cp_divisibility_scan"]["verdict"] == "violated"
        probe = payload["tensor_p_divisibility_probe"]
        assert probe["verdict"] == "violated"
        assert probe["worst_pair"][0] > 0.0
        again = payload["tensor_witness_reevaluated"]
        assert abs(again - probe["worst_value"]) <= 1e-9

    def test_semigroup_all_pass(self, tmp_path):
        out = tmp_path / "div"
        code = run(["divisibility", "--alpha", "2.0", "--dynamics", "semigroup",
                    "--t-max", "1.0", "--grid-points", "10", "--restarts", "5",
                    "--probe-steps", "150", "--rk4-step", "5e-3",
                    "--output", str(out)])
        assert code == 0
        payload = json.loads((tmp_path / "div.json").read_text())
        assert payload["cp_divisibility_check"]["satisfied"] is True
        assert payload["p_divisibility_check"]["satisfied"] is True
        assert payload["cp_divisibility_scan"]["verdict"] == "holds-on-grid"
        assert payload["tensor_p_divisibility_probe"]["verdict"] == "holds-on-grid"


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

    def test_s_zero_rejected(self, tmp_path, capsys):
        out = tmp_path / "wit"
        code = run(["witness", "--alpha", "0.75", "--s", "0.0", "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "positive semidefinite" in err


class TestInfoflow:
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

    def test_unknown_config_field(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alhpa": 1.0}))
        assert run(["scan", "--config", str(cfg)]) == 2
        assert "unknown config fields" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", [
        pytest.param({"grid_points": "many"}, id="grid_points-string"),
        pytest.param({"grid_points": 2.9}, id="grid_points-fraction"),
        pytest.param({"restarts": 1.5}, id="restarts-fraction"),
        pytest.param({"seed": True}, id="seed-bool"),
        pytest.param({"tol": True}, id="tol-bool"),
        pytest.param({"alpha": [0.6, False]}, id="alpha-bool"),
        pytest.param({"all_pairs": "false"}, id="all_pairs-string"),
        pytest.param({"all_pairs": 0}, id="all_pairs-int"),
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

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["scan", "--format", "xml"])
        assert exc.value.code == 2


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
            "rk4_step": 5e-3, "restarts": 2, "probe_steps": 50, "tol": 1e-6,
            "seed": 3, "output_path": str(tmp_path / "div"), "format": "json",
            "s": 0.5, "dynamics": "semigroup", "samples": 7, "fd_step": 2e-4,
            "all_pairs": True,
        }
        defaults = asdict(cli.RunConfig())
        assert all(expected[k] != defaults[k] for k in defaults)
        flags = {a.dest: a.option_strings for a in self._actions("divisibility")}
        argv = ["divisibility"]
        for name, value in expected.items():
            if value is True:
                argv += flags[name]
            elif isinstance(value, list):
                argv += flags[name] + [",".join(map(str, value))]
            else:
                argv += flags[name] + [str(value)]
        assert run(argv) == 0
        assert json.loads(capsys.readouterr().out)["config"] == expected


def test_import_does_not_load_scipy():
    """scipy is a test-only dependency; importing the CLI must not pull it in."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, divischeck.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "False"
