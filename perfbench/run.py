"""Benchmark of the divischeck command-line tool.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload probe-clean --seed 1 --seconds 30 --trace 0

The benchmark imports the package from ``src/`` and drives it from outside
through ``divischeck.cli.main(argv)`` in this one process: a closed loop
with one client and no threads.  Only the set-up measurement starts fresh
interpreters, one at a time.  Each invocation of the workload gets its own
``--seed``, drawn from the workload seed, and writes its payloads into a
temporary directory under the checkout, where the oracle in ``workloads.py``
checks every output after the clock stops.

``--trace 0`` measures the end-to-end metrics with tracing off.  The gated
time is process CPU time divided by the CPU time of a fixed reference kernel
run next to each invocation: the host's speed drifts by tens of percent over
minutes, and its hypervisor steals CPU time in bursts, which inflates wall
time but not CPU time.  ``--trace 1`` alternates untraced and traced invocations and reports the
per-layer metrics of the traced ones (medians over invocations) together
with the tracing overhead.  Human-readable lines come first on stdout; the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md in this directory for what each number means.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Fresh interpreters timed to ``import divischeck.cli`` done; one more runs
# first, untimed, so bytecode compilation is not counted.
SETUP_SAMPLES = 5
# Invocations measured even when one takes longer than the whole run.
MIN_INVOCATIONS = 3
# Flags appended to every call of the untimed warm-up invocation to make it cheap.
WARMUP_FLAGS = ["--grid-points", "4", "--samples", "2"]
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Iterations of the host reference kernel: 0.1 s to 0.16 s on a 2-core x86 host.
REF_ITERATIONS = 3000


@dataclass
class Invocation:
    traced: bool = False
    wall_s: float = 0.0
    cpu_s: float = 0.0
    ref_wall_s: float = 0.0
    ref_cpu_s: float = 0.0
    problems: list[str] = field(default_factory=list)
    layers: dict[str, float] | None = None


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="divischeck CLI benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _src_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(samples: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to ``import divischeck.cli`` done.

    The child reads the system-wide monotonic clock right after the import,
    so interpreter teardown is not counted.
    """
    code = "import time, divischeck.cli; print(time.monotonic())"
    times = []
    for k in range(samples + 1):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], env=_src_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"importing divischeck.cli failed:\n{proc.stderr}")
        if k:
            times.append(float(proc.stdout.split()[-1]) - start)
    return times


def reference_kernel():
    """Fixed work of the same kind as the package's: interpreter overhead
    around small dense complex linear algebra.  It does not touch the
    package, so no change to the package changes its cost; timed next to
    each invocation, it shows how fast the host runs at that moment.
    """
    rng = np.random.default_rng(0)
    mats = (rng.standard_normal((REF_ITERATIONS, 4, 4))
            + 1j * rng.standard_normal((REF_ITERATIONS, 4, 4)))
    right = rng.standard_normal((16, 16)) + 0j

    def run() -> tuple[float, float]:
        """Wall and CPU seconds of one pass."""
        w0, c0 = time.perf_counter(), time.process_time()
        acc = 0.0
        for m in mats:
            acc += float(np.linalg.eigvalsh(m + m.conj().T)[0])
            acc += float(np.abs(np.kron(m, m) @ right).sum())
        if not np.isfinite(acc):
            raise ArithmeticError("reference kernel produced a non-finite sum")
        return time.perf_counter() - w0, time.process_time() - c0

    return run


def environment(loadavg: tuple[float, float, float]) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "loadavg_start": list(loadavg),
        "platform": platform.platform(),
    }


def invoke(cli, workload, seed: int, workdir: Path, tracer=None,
           extra: list[str] | None = None, check: bool = True) -> Invocation:
    """Run every call of one workload invocation; time it, then check it."""
    inv = Invocation(traced=tracer is not None)
    for k, call in enumerate(workload.calls):
        stem = workdir / f"call{k}"
        argv = call.argv + ["--seed", str(seed), "--output", str(stem)] + (extra or [])
        out = io.StringIO()
        span = tracer.open("cli.main") if tracer else None
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main(argv)
        finally:
            inv.wall_s += time.perf_counter() - w0
            inv.cpu_s += time.process_time() - c0
            if span:
                tracer.close(span)
        if rc != 0:
            inv.problems.append(f"{argv[0]} exited with code {rc}")
        elif check:
            inv.problems += call.check(json.loads(out.getvalue()), stem)
    return inv


def run_traced(cli, workload, seed: int, workdir: Path) -> Invocation:
    tracer = Tracer()
    tracer.install()
    try:
        inv = invoke(cli, workload, seed, workdir, tracer=tracer)
    finally:
        tracer.uninstall()
    inv.layers = tracer.layer_metrics()
    for name, expected in workload.expected_counts.items():
        if inv.layers[name] != expected:
            inv.problems.append(f"traced count {name} = {inv.layers[name]}, expected {expected}")
    return inv


def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(values)
    if n < 11:
        return None
    k = n - 10
    return 100 * k // n, sorted(values)[k - 1]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    args = _parse_args(argv)
    if not (SRC / "divischeck" / "cli.py").is_file():
        print(f"perfbench: no divischeck sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # The back-flow scan spreads over threads when this is set; the
    # benchmark measures the default single-threaded configuration.
    os.environ.pop("DIVISCHECK_THREADS", None)

    setup = [] if args.trace else measure_setup(SETUP_SAMPLES)
    from divischeck import cli

    print("env", json.dumps(environment(loadavg), sort_keys=True))
    rng = random.Random(args.seed)
    reference = reference_kernel()
    invocations: list[Invocation] = []
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        invoke(cli, workload, rng.randrange(2**31), workdir, extra=WARMUP_FLAGS, check=False)
        deadline = time.perf_counter() + args.seconds
        minimum = 2 * MIN_INVOCATIONS if args.trace else MIN_INVOCATIONS
        ref_before = reference()
        while True:
            started = time.perf_counter()
            seed = rng.randrange(2**31)
            traced = bool(args.trace) and len(invocations) % 2 == 1
            try:
                if traced:
                    inv = run_traced(cli, workload, seed, workdir)
                else:
                    inv = invoke(cli, workload, seed, workdir)
            except (Exception, SystemExit):
                inv = Invocation(traced=traced, problems=[traceback.format_exc()])
            ref_after = reference()
            inv.ref_wall_s = 0.5 * (ref_before[0] + ref_after[0])
            inv.ref_cpu_s = 0.5 * (ref_before[1] + ref_after[1])
            ref_before = ref_after
            invocations.append(inv)
            for problem in inv.problems:
                print(f"perfbench: invocation {len(invocations)} (seed {seed}): {problem}",
                      file=sys.stderr)
            now = time.perf_counter()
            if len(invocations) >= minimum and now + (now - started) > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(invocations)
    failed = sum(1 for inv in invocations if inv.problems)
    plain = [inv for inv in invocations if not inv.traced]
    walls = [inv.wall_s for inv in plain]
    print(f"workload {workload.name}: {attempted} invocations, {failed} failed; "
          f"reference kernel p50 {statistics.median(inv.ref_wall_s for inv in invocations):.6g} s "
          f"wall, {statistics.median(inv.ref_cpu_s for inv in invocations):.6g} s CPU")

    if args.trace:
        traced = [inv for inv in invocations if inv.layers is not None]
        metrics = {}
        for name in traced[0].layers if traced else []:
            metrics[name] = _metric(statistics.median(inv.layers[name] for inv in traced),
                                    _layer_unit(name))
        if traced:
            traced_p50 = statistics.median(inv.wall_s for inv in traced)
            metrics["trace.wall_s.p50"] = _metric(traced_p50, "s")
            metrics["trace.overhead_s"] = _metric(traced_p50 - statistics.median(walls), "s")
        for name, m in metrics.items():
            print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    else:
        cpus = [inv.cpu_s for inv in plain]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics = {
            "cpu_rel.p50": _metric(statistics.median(inv.cpu_s / inv.ref_cpu_s for inv in plain),
                                   "ref"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "peak_rss_mb": _metric(rss_mb, "MB"),
        }
        for name, m in metrics.items():
            print(f"  {name:12s} {m['value']:.6g} {m['unit']}")
        t = tail(walls)
        print(f"  wall_s.p50   {statistics.median(walls):.6g} s; each: "
              + " ".join(f"{w:.4g}" for w in walls))
        print("  wall_s.tail  " + (f"p{t[0]} = {t[1]:.6g} s (n={len(walls)})" if t else
                                   f"n/a: {len(walls)} samples, a tail needs at least 11"))
        print(f"  cpu_s.p50    {statistics.median(cpus):.6g} s")
        print(f"  wall_rel.p50 {statistics.median(inv.wall_s / inv.ref_wall_s for inv in plain):.6g} ref")
        print(f"  fail_ratio   {failed / attempted:.6g} ratio ({failed} failed / {attempted} attempted)")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith(".s_per_eval"):
        return "s/eval"
    if name.endswith(".s_per_sample"):
        return "s/sample"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
