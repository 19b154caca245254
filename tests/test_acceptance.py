"""Acceptance suite: the headline numerical claims at fixed tolerances.

Each test prints one PASS/FAIL line; run with ``pytest -s`` to see them all.
"""
import contextlib
import math

import numpy as np

from divischeck import cli
from divischeck import divisibility as dv
from divischeck import generator as gen
from divischeck import infoflow as iflow
from divischeck import pauli_family as pf
from divischeck import superop as so


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def test_criterion_1_cp_sharpness():
    with criterion(1, "complete positivity is sharp at unit strength"):
        grid = pf.default_grid()
        for alpha in (0.5, 0.75, 0.9):
            assert pf.pauli_weights(grid, alpha)[:, 3].min() < -1e-4
        for alpha in (1.0, 1.25, 2.0):
            assert pf.pauli_weights(grid, alpha)[:, 3].min() >= -1e-12
        for alpha in (0.5, 0.75, 0.9, 1.0, 1.25, 2.0):
            for t, p3 in zip(grid, pf.pauli_weights(grid, alpha)[:, 3]):
                _, min_eig = so.is_cp(pf.channel(float(t), alpha))
                assert abs(min_eig - 2.0 * p3) <= 1e-10


def test_criterion_2_squared_weights_identity():
    with criterion(2, "squared-channel weights equal doubled-strength weights"):
        grid = np.linspace(0.0, 5.0, 200)
        for alpha in (0.3, 0.5, 0.75):
            q = pf.squared_pauli_weights(grid, alpha)
            p2 = pf.pauli_weights(grid, 2.0 * alpha)
            assert np.max(np.abs(q - p2)) <= 1e-13
        for alpha in (0.5, 0.75):
            assert pf.squared_pauli_weights(grid, alpha)[:, 3].min() >= -1e-12


def test_criterion_3_tensor_square_positivity_evidence():
    with criterion(3, "tensor square shows no positivity violation at a=0.6"):
        alpha = 0.6
        for k, t in enumerate((0.5, 1.0, 2.0)):
            ch = pf.channel(t, alpha)
            big = so.tensor(ch, ch)
            result = so.positivity_probe(big, restarts=100, steps=500,
                                         tol=1e-9, seed=1000 + k)
            assert result.min_value >= -1e-9, (t, result.min_value)


def test_criterion_4_tensor_intermediates_violated():
    with criterion(4, "tensor-squared intermediate maps fail positivity at a=0.6"):
        family = gen.propagate(gen.model_generator(0.6), pf.default_grid(), 1e-3)
        report = dv.tensor_p_divisibility_probe(family, restarts=100, steps=500,
                                                tol=1e-6, seed=7)
        assert report.verdict == dv.VIOLATED
        s, t = report.worst_pair
        assert s > 0.0
        assert report.worst_value < -1e-6
        big = so.tensor(report.worst_map, report.worst_map)
        again = so.min_output_eigenvalue(big, report.witness)
        assert abs(again - report.worst_value) <= 1e-9


def test_criterion_5_first_order_witness():
    with criterion(5, "first-order witness at s=1, a=0.75 verifies to second order"):
        g = gen.model_generator(0.75)
        w = dv.first_order_witness(g, 1.0)
        assert w.delta_rate < 0
        assert abs(np.vdot(w.phi, w.psi)) <= 1e-10
        v1 = dv.verify_witness(g, w, dt=1e-4)
        v2 = dv.verify_witness(g, w, dt=5e-5)
        d1 = abs(v1 - 1e-4 * w.delta_rate)
        d2 = abs(v2 - 5e-5 * w.delta_rate)
        assert d1 / d2 >= 3.5


def test_criterion_6_divisibility_classification():
    with criterion(6, "every strength: P-divisible but never CP-divisible"):
        grid = pf.default_grid()
        for alpha in (0.5, 0.75, 0.9, 1.0, 1.25, 2.0):
            g = gen.model_generator(alpha)
            cp = gen.cp_divisibility_check(g, grid)
            assert not cp.satisfied
            np.testing.assert_allclose(cp.worst_value, -alpha * math.tanh(5.0),
                                       rtol=1e-9)
            p = gen.p_divisibility_check_pauli(g, grid)
            assert p.satisfied


def test_criterion_7_propagator_fidelity():
    with criterion(7, "RK4 reproduces the closed form and converges at 4th order"):
        grid = np.linspace(0.0, 3.0, 31)
        for alpha in (0.6, 1.0):
            g = gen.model_generator(alpha)

            def sup_err(step, g=g, alpha=alpha):
                fam = gen.propagate(g, grid, step)
                return max(np.linalg.norm(m - pf.channel(float(t), alpha))
                           for t, m in zip(fam.grid, fam.maps))

            assert sup_err(1e-3) <= 1e-8
            # halving at truncation-dominated steps shows the 4th-order rate;
            # at step 1e-3 the error (~1e-14) sits at the roundoff floor
            assert sup_err(0.05) / sup_err(0.025) >= 12.0


def test_criterion_8_backflow_superactivation():
    with criterion(8, "no single-map back-flow, tensor back-flow found at a=0.6"):
        alpha = 0.6
        grid = pf.default_grid()

        def single(t):
            return pf.channel(t, alpha)

        def tensor_map(t):
            ch = pf.channel(t, alpha)
            return so.tensor(ch, ch)

        rep1 = iflow.backflow_scan(single, iflow.pair_library(2, 100, 42), grid)
        assert rep1.sigma.shape[0] >= 100
        assert rep1.max_sigma <= 1e-6
        rep2 = iflow.backflow_scan(tensor_map, iflow.pair_library(4, 100, 42), grid)
        assert rep2.max_sigma > 1e-4


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "scan and infoflow commands are byte-deterministic"):
        scan_args = ["scan", "--alpha", "0.5,1.0", "--grid-points", "50",
                     "--seed", "9"]
        assert cli.main(scan_args + ["--output", str(tmp_path / "s1")]) == 0
        assert cli.main(scan_args + ["--output", str(tmp_path / "s2")]) == 0
        assert (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()

        flow_args = ["infoflow", "--alpha", "0.6", "--t-max", "3.0",
                     "--grid-points", "30", "--samples", "20", "--seed", "9"]
        assert cli.main(flow_args + ["--output", str(tmp_path / "f1")]) == 0
        assert cli.main(flow_args + ["--output", str(tmp_path / "f2")]) == 0
        assert (tmp_path / "f1.csv").read_bytes() == (tmp_path / "f2.csv").read_bytes()
        assert (tmp_path / "f1.json").read_bytes() == (tmp_path / "f2.json").read_bytes()
