"""The benchmark's own checks, run once per workload as part of the suite.

``perfbench/run.py`` and ``perfbench/workloads.py`` are imported as they
are.  One traced invocation of each workload must pass the output oracle
and the traced count self-check (RK4 steps, probe calls, ``tensor`` calls),
so a change that breaks either fails here and not only in a benchmark run.
"""
import importlib
import sys
from pathlib import Path

import pytest

from divischeck import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    # run.py imports its siblings ``tracer`` and ``workloads`` by bare name
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("run")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("name", ["probe-clean", "backflow", "violation-report"])
def test_traced_invocation_passes_the_benchmark_checks(perfbench, name, tmp_path):
    inv = perfbench.run_traced(cli, perfbench.WORKLOADS[name], 1, tmp_path)
    assert inv.problems == []
    if name != "backflow":
        # intermediate maps come from the integrator's segments, never an inverse
        assert inv.layers["superop.intermediate.calls"] == 0
        assert inv.layers["linalg.inverse.calls"] == 0


def test_backflow_channel_calls_reach_the_traced_module_function(perfbench, tmp_path):
    # the --dynamics table looks up pauli_family.channel when it is called,
    # so the tracer's wrapper sees every map built: 402, once per map time,
    # shared by both scans
    inv = perfbench.run_traced(cli, perfbench.WORKLOADS["backflow"], 1, tmp_path)
    assert inv.problems == []
    assert inv.layers["pauli_family.channel.calls"] == 402


def test_probe_clean_validates_its_fixed_coefficients_once(perfbench, tmp_path):
    # the semigroup's C is fixed: validated on construction, never per L(t)
    inv = perfbench.run_traced(cli, perfbench.WORKLOADS["probe-clean"], 1, tmp_path)
    assert inv.problems == []
    assert inv.layers["linalg.check_hermitian.calls"] <= 2
    assert inv.layers["generator.propagate.rk4_steps"] == 5000


def test_violation_report_checks_rates_without_hermiticity(perfbench, tmp_path):
    # the model's C(t) is a callable rate vector: each L(t) evaluation checks
    # its rates' finiteness, not a matrix's Hermiticity (the remaining calls
    # are the CP scan's Choi checks)
    inv = perfbench.run_traced(cli, perfbench.WORKLOADS["violation-report"], 1, tmp_path)
    assert inv.problems == []
    assert inv.layers["linalg.check_hermitian.calls"] <= 1000
    assert inv.layers["generator.propagate.rk4_steps"] == 5000
