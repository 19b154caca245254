"""Command-line front end: parameter scans, divisibility reports, witness
construction, and back-flow demonstrations.

All payload files are deterministic for a fixed config and seed: timing and
other run metadata go to stdout only, never into the output files.  Numbers
are written with 17 significant digits (CSV) or shortest round-trip form
(JSON); both reproduce the underlying doubles exactly.

Exit codes: 0 success (a found violation is an expected result, flagged in
the payload, still 0); 2 usage or I/O error; 3 internal numerical failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from typing import get_type_hints

import numpy as np

from . import __version__, divisibility, generator, infoflow, pauli_family, superop
from .linalg import NumericalError

__all__ = ["RunConfig", "main"]

# --dynamics name -> (channel(t, alpha), generator(alpha)).  Each entry looks
# its function up when called, so a module attribute rebound at run time
# counts.  The library checks each RK4 step against the generator's spectrum.
DYNAMICS = {
    "model": (lambda t, a: pauli_family.channel(t, a),
              lambda a: generator.model_generator(a)),
    "semigroup": (lambda t, a: pauli_family.semigroup_channel(t, a),
                  lambda a: generator.qubit_rate_generator((a, a, a))),
    "identity": (lambda t, a: superop.identity(2),
                 lambda a: generator.qubit_rate_generator((0.0, 0.0, 0.0))),
}
FORMATS = ("csv", "json")

SCAN_HEADER = ["alpha", "t", "p0", "p1", "p2", "p3", "q0", "q1", "q2", "q3",
               "l1", "l3", "choi_min", "cp", "gamma3"]
INFOFLOW_HEADER = ["pair_id", "t", "sigma_single", "sigma_tensor"]
_SCAN_ROW = "%.17g," * 13 + "%s,%.17g\n"  # 13 numbers, the cp word, gamma3
# Rows ``scan`` writes at most, all alphas together: under a minute at 33 us a
# row (46 us as JSON), each holding about 1 KB until written (2-core Xeon).
MAX_SCAN_ROWS = 10**6


def _parse_alpha(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


@dataclass
class RunConfig:
    """Flat run configuration; a JSON config file carries the same fields
    and individual command-line flags override it.

    Each field is one command-line flag, ``--`` plus the field name with
    dashes unless the metadata names the ``flag``.  The metadata also holds
    the flag's ``help``, ``choices``, ``metavar`` and, where the field type
    cannot parse the flag's text, a ``parse`` function.
    """

    alpha: list[float] = field(default_factory=lambda: [0.6], metadata={
        "parse": _parse_alpha, "metavar": "A[,A...]",
        "help": "channel strength(s), comma separated"})
    t_max: float = 5.0
    grid_points: int = 200
    rk4_step: float = 1e-3
    restarts: int = 100
    tol: float = 1e-9
    seed: int = 0
    output_path: str = field(default="divischeck-out", metadata={
        "flag": "--output", "help": "output path stem"})
    format: str = field(default="csv", metadata={
        "choices": FORMATS, "help": "payload format of scan; the other commands ignore it"})
    s: float = field(default=1.0, metadata={"help": "witness construction time"})
    dynamics: str = field(default="model", metadata={"choices": tuple(DYNAMICS)})
    samples: int = field(default=100, metadata={"help": "random state pairs per scan"})
    fd_step: float = field(default=1e-4, metadata={
        "help": "finite-difference step for flow rates / witness checks"})

    def validate(self) -> None:
        if not self.alpha:
            raise ValueError("at least one alpha is needed")
        for a in self.alpha:
            if not math.isfinite(2.0 * a):   # the closed forms double alpha
                raise ValueError("alpha values must be finite, at most "
                                 f"{sys.float_info.max / 2} so that 2 alpha is finite, got {a}")
        for name in ("t_max", "rk4_step", "tol", "s", "fd_step"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if any(a <= 0 for a in self.alpha):
            raise ValueError("alpha values must be positive")
        for name in ("t_max", "rk4_step", "tol", "fd_step"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("grid_points", "restarts", "samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if self.grid_points < 2:
            raise ValueError("grid_points must be at least 2")
        if self.s < 0:
            raise ValueError("s must be nonnegative")
        if self.format not in FORMATS:
            raise ValueError(f"format must be csv or json, got {self.format!r}")
        if self.dynamics not in DYNAMICS:
            raise ValueError(f"dynamics must be one of {tuple(DYNAMICS)}, got {self.dynamics!r}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    def grid(self) -> np.ndarray:
        return pauli_family.default_grid(self.t_max, self.grid_points)


# RunConfig's field types, its string annotations evaluated once
_HINTS = get_type_hints(RunConfig)


def _complex_vector(v: np.ndarray) -> dict:
    v = np.asarray(v)
    return {"re": [float(x) for x in v.real.ravel()],
            "im": [float(x) for x in v.imag.ravel()],
            "shape": list(v.shape)}


def _write_csv(path: str, header: list[str], lines) -> None:
    """The header row, then the text ``lines`` as they are: every cell the
    commands write is a number or a bare word and needs no quoting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _divisibility_report_payload(report: divisibility.DivisibilityReport) -> dict:
    return {
        "kind": report.kind,
        "verdict": report.verdict,
        "worst_pair": list(report.worst_pair) if report.worst_pair else None,
        "worst_value": report.worst_value,
        "witness": _complex_vector(report.witness) if report.witness is not None else None,
        "witness_kind": report.witness_kind,
        "pairs_scanned": report.pairs_scanned,
        "note": report.note,
    }


def cmd_scan(cfg: RunConfig) -> tuple[list[str], dict]:
    if cfg.dynamics != "model":
        raise ValueError(f"scan tabulates the model's closed forms only, got --dynamics "
                         f"{cfg.dynamics}")
    if (total := len(cfg.alpha) * (cfg.grid_points + 1)) > MAX_SCAN_ROWS:
        raise ValueError(f"the scan needs {total} rows, more than the bound "
                         f"MAX_SCAN_ROWS = {MAX_SCAN_ROWS}")
    grid = cfg.grid()
    rows = []
    non_cp_alphas = set()
    for alpha in cfg.alpha:
        # each closed form once over the grid; the rows zip their columns
        l = pauli_family.bloch_eigenvalues(grid, alpha)
        cp = pauli_family.cp_criterion(grid, alpha)
        if not cp.all():
            non_cp_alphas.add(alpha)
        numbers = np.column_stack([pauli_family.pauli_weights(grid, alpha),
                                   pauli_family.squared_pauli_weights(grid, alpha), l[:, [0, 2]]])
        channels = pauli_family.pauli_channel(l[:, 0], l[:, 1], l[:, 2])
        for t, row, ch, cp_t in zip(grid.tolist(), numbers.tolist(), channels, cp.tolist()):
            _, choi_min = superop.is_cp(ch)
            rows.append((alpha, t, *row, choi_min, cp_t, pauli_family.rates(t, alpha)[2]))
    if cfg.format == "csv":
        path = cfg.output_path + ".csv"
        _write_csv(path, SCAN_HEADER, (_SCAN_ROW % (*row[:13], "true" if row[13] else "false",
                                                   row[14]) for row in rows))
    else:
        path = cfg.output_path + ".json"
        _write_json(path, [dict(zip(SCAN_HEADER, row)) for row in rows])
    summary = {
        "rows": len(rows),
        "alphas": cfg.alpha,
        "non_cp_alphas": sorted(non_cp_alphas),
    }
    return [path], summary


def cmd_divisibility(cfg: RunConfig) -> tuple[list[str], dict]:
    # every grid segment takes at least one RK4 substep, and the probe walks
    # every segment: refuse a grid past either bound before any work sized by it
    if cfg.grid_points > generator.MAX_RK4_SUBSTEPS:
        raise ValueError(f"the grid needs at least {cfg.grid_points} RK4 substeps, one per "
                         f"segment, more than the bound MAX_RK4_SUBSTEPS = "
                         f"{generator.MAX_RK4_SUBSTEPS}")
    superop.check_probe_restarts(cfg.grid_points, cfg.restarts)
    alpha = cfg.alpha[0]
    grid = cfg.grid()
    gen = DYNAMICS[cfg.dynamics][1](alpha)
    family = generator.propagate(gen, grid, cfg.rk4_step)
    cp_check = generator.cp_divisibility_check(gen, grid, tol=cfg.tol)
    p_check = generator.p_divisibility_check_pauli(gen, grid, tol=cfg.tol)
    cp_scan = divisibility.cp_divisibility_scan(family, tol=cfg.tol)
    tensor_probe = divisibility.tensor_p_divisibility_probe(
        family, restarts=cfg.restarts, tol=cfg.tol, seed=cfg.seed)

    reevaluated = None
    if tensor_probe.verdict == divisibility.VIOLATED:
        m = tensor_probe.worst_map
        reevaluated = superop.min_output_eigenvalue(superop.tensor(m, m), tensor_probe.witness)

    payload = {
        "alpha": alpha,
        "dynamics": cfg.dynamics,
        "grid": {"t_max": cfg.t_max, "points": len(grid)},
        "cp_divisibility_check": asdict(cp_check),
        "p_divisibility_check": asdict(p_check),
        "cp_divisibility_scan": _divisibility_report_payload(cp_scan),
        "tensor_p_divisibility_probe": _divisibility_report_payload(tensor_probe),
        "tensor_witness_reevaluated": reevaluated,
    }
    path = cfg.output_path + ".json"
    _write_json(path, payload)
    summary = {
        "cp_divisible_on_grid": cp_check.satisfied,
        "p_divisible_on_grid": p_check.satisfied,
        "cp_scan_verdict": cp_scan.verdict,
        "tensor_probe_verdict": tensor_probe.verdict,
    }
    return [path], summary


def cmd_witness(cfg: RunConfig) -> tuple[list[str], dict]:
    alpha = cfg.alpha[0]
    gen = DYNAMICS[cfg.dynamics][1](alpha)
    w = divisibility.first_order_witness(gen, cfg.s)
    checks = []
    for dt in (cfg.fd_step, 0.5 * cfg.fd_step):
        value = divisibility.verify_witness(gen, w, dt=dt)
        checks.append({
            "dt": dt,
            "value": value,
            "first_order_prediction": dt * w.delta_rate,
            "discrepancy": abs(value - dt * w.delta_rate),
        })
    ratio = checks[0]["discrepancy"] / max(checks[1]["discrepancy"], 1e-300)
    payload = {
        "alpha": alpha,
        "s": cfg.s,
        "c_min": w.c_min,
        "u": _complex_vector(w.u),
        "m": _complex_vector(w.m),
        "psi": _complex_vector(w.psi),
        "phi": _complex_vector(w.phi),
        "orthogonality": abs(complex(np.vdot(w.phi, w.psi))),
        "delta_rate": w.delta_rate,
        "finite_dt_checks": checks,
        "halving_ratio": ratio,
    }
    path = cfg.output_path + ".json"
    _write_json(path, payload)
    summary = {"delta_rate": w.delta_rate, "halving_ratio": ratio}
    return [path], summary


def _flow_blocks(grid: np.ndarray, sigma_single: np.ndarray, sigma_tensor: np.ndarray):
    """CSV text of the rows (pair k, t, single sigma, tensor sigma), k-major,
    then t, as one block per pair k.

    Each block is one ``%`` operation on a template that holds the ``.17g``
    time strings, joined by the prefix k; a cell is blank where a family has
    fewer than k + 1 pairs.
    """
    times = ["%.17g" % t for t in grid.tolist()]
    templates = {(a, b): ["", *(f",{t},{a},{b}\n" for t in times)]
                 for a in ("%.17g", "") for b in ("%.17g", "")}
    families = (sigma_single, sigma_tensor)
    for k in range(max(map(len, families))):
        cells = np.column_stack([sigma[k] for sigma in families if k < len(sigma)]).ravel()
        spec = tuple("%.17g" if k < len(sigma) else "" for sigma in families)
        yield str(k).join(templates[spec]) % tuple(cells.tolist())


def _flow_report_payload(report: infoflow.BackflowReport) -> dict:
    return {
        "max_sigma": report.max_sigma,
        "argmax_pair": report.argmax_label,
        "argmax_t": report.argmax_t,
        "pair_labels": list(report.pairs.labels),
    }


def cmd_infoflow(cfg: RunConfig) -> tuple[list[str], dict]:
    # refuse a scan past its bound before any pair is drawn or the grid is
    # built: the two-qubit family, the larger, has the fixed library and the samples
    infoflow.check_flow_samples(len(infoflow.pair_library(4)) + cfg.samples, cfg.grid_points + 1)
    alpha = cfg.alpha[0]
    grid = cfg.grid()
    channel = DYNAMICS[cfg.dynamics][0]

    # both scans ask for maps at the same times: each channel is built once
    @functools.cache
    def single(t):
        return channel(t, alpha)

    def tensor_map(t):
        ch = single(t)
        return superop.tensor(ch, ch)

    rep_single = infoflow.backflow_scan(
        single, infoflow.pair_library(2, cfg.samples, cfg.seed), grid, h=cfg.fd_step)
    rep_tensor = infoflow.backflow_scan(
        tensor_map, infoflow.pair_library(4, cfg.samples, cfg.seed), grid, h=cfg.fd_step)

    csv_path = cfg.output_path + ".csv"
    _write_csv(csv_path, INFOFLOW_HEADER,
               _flow_blocks(grid, rep_single.sigma, rep_tensor.sigma))

    payload = {
        "alpha": alpha,
        "dynamics": cfg.dynamics,
        "samples": cfg.samples,
        "fd_step": cfg.fd_step,
        "single": _flow_report_payload(rep_single),
        "tensor": _flow_report_payload(rep_tensor),
    }
    json_path = cfg.output_path + ".json"
    _write_json(json_path, payload)
    summary = {
        "max_sigma_single": rep_single.max_sigma,
        "max_sigma_tensor": rep_tensor.max_sigma,
    }
    return [csv_path, json_path], summary


# command name -> (function, help)
COMMANDS = {
    "scan": (cmd_scan, "tabulate weights, Bloch eigenvalues and CP verdicts over (alpha, t)"),
    "divisibility": (cmd_divisibility, "generator- and map-level divisibility reports for one alpha"),
    "witness": (cmd_witness, "first-order tensor-square positivity witness at time s"),
    "infoflow": (cmd_infoflow, "trace-distance flow scan for the single and tensor dynamics"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divischeck",
        description="Positivity and divisibility diagnostics for qubit dynamical maps.",
    )
    # the flags every command takes, built once and shared through ``parents``
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file with RunConfig fields")
    for f in fields(RunConfig):
        meta = f.metadata
        common.add_argument(meta.get("flag", "--" + f.name.replace("_", "-")),
                            type=meta.get("parse", _HINTS[f.name]), dest=f.name,
                            choices=meta.get("choices"), metavar=meta.get("metavar"),
                            help=meta.get("help"))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        sub.add_parser(name, help=help_text, parents=[common])
    return parser


def _cast(value, hint):
    """Strict conversion of a config value to the RunConfig field type.

    Numeric fields take numbers but never bools, and int fields only
    integral ones; str fields take exactly a JSON string.
    """
    if hint == list[float]:
        return [_cast(a, float) for a in (value if isinstance(value, list) else [value])]
    if hint is str:
        if isinstance(value, str):
            return value
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        if hint is float:
            return float(value)
        if isinstance(value, int) or value.is_integer():
            return int(value)
    raise ValueError(f"expected {hint.__name__}, got {value!r}")


def _load_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a JSON object")
        known = {f.name for f in fields(RunConfig)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        values.update(raw)
    for f in fields(RunConfig):
        flag_value = getattr(args, f.name, None)
        if flag_value is not None:
            values[f.name] = flag_value
    for name in values:
        try:
            values[name] = _cast(values[name], _HINTS[name])
        except ValueError as exc:
            raise ValueError(f"config field {name!r} has an invalid value: {exc}")
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        cfg = _load_config(args)
        if args.command != "scan" and len(cfg.alpha) > 1:
            raise ValueError(f"{args.command} takes one alpha, got {len(cfg.alpha)}")
        outputs, summary = COMMANDS[args.command][0](cfg)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"divischeck: error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"divischeck: numerical failure: {exc}", file=sys.stderr)
        return 3
    envelope = {
        "command": args.command,
        "version": __version__,
        "config": asdict(cfg),
        "outputs": outputs,
        "wall_time_s": time.monotonic() - started,
        "summary": summary,
    }
    print(json.dumps(envelope, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
