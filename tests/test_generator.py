import math

import numpy as np
import pytest
from scipy.linalg import expm

from divischeck import generator as gen
from divischeck import pauli_family as pf
from divischeck import superop as so
from divischeck.linalg import PAULI


class TestGellMannBasis:
    def test_qubit_case_is_scaled_paulis(self):
        basis = gen.gell_mann_basis(2)
        for f, sigma in zip(basis, PAULI[1:]):
            np.testing.assert_allclose(f, sigma / math.sqrt(2.0), atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_orthonormal_traceless(self, d):
        basis = gen.gell_mann_basis(d)
        assert len(basis) == d * d - 1
        for i, fi in enumerate(basis):
            assert abs(np.trace(fi)) <= 1e-14
            np.testing.assert_allclose(fi, fi.conj().T, atol=1e-14)
            for j, fj in enumerate(basis):
                expected = 1.0 if i == j else 0.0
                assert abs(np.trace(fi.conj().T @ fj) - expected) <= 1e-14


class TestGeneratorSpec:
    def test_rejects_wrong_basis_count(self):
        with pytest.raises(ValueError, match="basis"):
            gen.GeneratorSpec(2, lambda t: np.eye(3, dtype=complex),
                              gen.gell_mann_basis(2)[:2])

    def test_rejects_non_orthonormal_basis(self):
        basis = [2.0 * f for f in gen.gell_mann_basis(2)]
        with pytest.raises(ValueError, match="orthonormal"):
            gen.GeneratorSpec(2, lambda t: np.eye(3, dtype=complex), basis)

    def test_rejects_non_hermitian_coefficients(self):
        g = gen.GeneratorSpec(2, lambda t: np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]],
                                                    dtype=complex),
                              gen.gell_mann_basis(2))
        with pytest.raises(ValueError, match="Hermitian"):
            g.coefficient_matrix(0.5)


class TestModelGenerator:
    def test_coefficients(self):
        g = gen.model_generator(0.8)
        np.testing.assert_allclose(g.coefficient_matrix(0.0),
                                   np.diag([0.8, 0.8, 0.0]), atol=1e-15)
        c = g.coefficient_matrix(1.5)
        assert np.linalg.eigvalsh(c)[0] == pytest.approx(-0.8 * math.tanh(1.5))

    def test_pauli_eigenrelation(self):
        # the four Pauli operators are eigenoperators of the generator
        for alpha in (0.5, 1.0, 1.7):
            g = gen.model_generator(alpha)
            for t in (0.0, 0.8, 2.5):
                expected = pf.generator_eigenvalues(t, alpha)
                for mu, sigma in enumerate(PAULI):
                    out = gen.apply_generator(g, t, sigma)
                    np.testing.assert_allclose(out, expected[mu] * sigma,
                                               atol=1e-14)

    def test_identity_maps_to_zero(self):
        g = gen.model_generator(1.0)
        np.testing.assert_allclose(gen.apply_generator(g, 0.7, PAULI[0]),
                                   np.zeros((2, 2)), atol=1e-14)

    def test_output_traceless_on_random_states(self):
        g = gen.model_generator(0.9)
        rng = np.random.default_rng(0)
        for _ in range(10):
            b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            rho = b @ b.conj().T
            rho /= np.trace(rho).real
            assert abs(np.trace(gen.apply_generator(g, 1.1, rho))) <= 1e-13


class TestLiouvillian:
    def test_matches_apply_generator(self):
        g = gen.model_generator(0.7)
        lmat = gen.liouvillian(g)
        rng = np.random.default_rng(1)
        for t in (0.0, 0.6, 2.0):
            mat = lmat(t)
            for _ in range(5):
                x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                lhs = so.unvec(mat @ so.vec(x), 2)
                np.testing.assert_allclose(lhs, gen.apply_generator(g, t, x),
                                           atol=1e-13)

    def test_hamiltonian_part(self):
        h = 0.5 * PAULI[3]
        g = gen.GeneratorSpec(2, lambda t: np.zeros((3, 3), dtype=complex),
                              gen.gell_mann_basis(2), hamiltonian=lambda t: h)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lhs = so.unvec(gen.liouvillian(g)(0.3) @ so.vec(x), 2)
        np.testing.assert_allclose(lhs, -1j * (h @ x - x @ h), atol=1e-14)


class TestPropagate:
    def test_zero_generator_stays_identity(self):
        g = gen.qubit_rate_generator((0.0, 0.0, 0.0))
        fam = gen.propagate(g, np.linspace(0.0, 2.0, 5), 0.05)
        for m in fam.maps:
            np.testing.assert_allclose(m.mat, np.eye(4), atol=1e-12)

    def test_matches_closed_form(self):
        alpha = 1.0
        g = gen.model_generator(alpha)
        grid = np.linspace(0.0, 3.0, 13)
        fam = gen.propagate(g, grid, 1e-3)
        worst = max(np.linalg.norm(m.mat - pf.channel(float(t), alpha).mat)
                    for t, m in zip(fam.grid, fam.maps))
        assert worst <= 1e-8

    def test_matches_matrix_exponential_for_constant_rates(self):
        g = gen.qubit_rate_generator((1.0, 1.0, 1.0))
        lmat = gen.liouvillian(g)(0.0)
        grid = np.linspace(0.0, 2.0, 5)
        fam = gen.propagate(g, grid, 1e-3)
        for t, m in zip(grid, fam.maps):
            np.testing.assert_allclose(m.mat, expm(lmat * t), atol=1e-8)

    def test_hamiltonian_and_nondiagonal_coefficients_match_expm(self):
        h = 0.35 * PAULI[1]
        c = np.array([[0.3, 0.1j, 0.0],
                      [-0.1j, 0.2, 0.05],
                      [0.0, 0.05, 0.1]], dtype=complex)
        g = gen.GeneratorSpec(2, lambda t: c, gen.gell_mann_basis(2),
                              hamiltonian=lambda t: h)
        lmat = gen.liouvillian(g)(0.0)
        grid = np.linspace(0.0, 1.5, 4)
        fam = gen.propagate(g, grid, 1e-3)
        for t, m in zip(grid, fam.maps):
            np.testing.assert_allclose(m.mat, expm(lmat * t), atol=1e-8)
        for m in fam.maps:
            assert so.is_trace_preserving(m, tol=1e-8)

    def test_first_map_is_identity_and_trace_preserving(self):
        g = gen.model_generator(0.6)
        fam = gen.propagate(g, np.linspace(0.0, 1.0, 6), 1e-2)
        np.testing.assert_allclose(fam.maps[0].mat, np.eye(4), atol=1e-15)
        for m in fam.maps:
            assert so.is_trace_preserving(m, tol=1e-8)

    def test_fourth_order_convergence(self):
        # large enough steps that truncation dominates roundoff
        g = gen.model_generator(1.0)
        grid = np.linspace(0.0, 3.0, 7)

        def sup_err(step):
            fam = gen.propagate(g, grid, step)
            return max(np.linalg.norm(m.mat - pf.channel(float(t), 1.0).mat)
                       for t, m in zip(fam.grid, fam.maps))

        ratio = sup_err(0.05) / sup_err(0.025)
        assert ratio >= 12.0

    def test_propagated_choi_matches_weights(self):
        alpha = 0.75
        g = gen.model_generator(alpha)
        grid = np.linspace(0.0, 3.0, 7)
        fam = gen.propagate(g, grid, 1e-3)
        for t, m in zip(grid, fam.maps):
            eigs = np.sort(np.linalg.eigvalsh(so.choi(m)))
            expected = np.sort(2 * pf.pauli_weights(float(t), alpha).as_array())
            np.testing.assert_allclose(eigs, expected, atol=1e-7)

    def test_nonnegative_coefficients_give_cp_intermediates(self):
        g = gen.qubit_rate_generator((1.0, 1.0, 1.0))
        fam = gen.propagate(g, np.linspace(0.0, 2.0, 9), 1e-3)
        for i in range(len(fam.maps) - 1):
            inter = so.intermediate(fam.maps[i + 1], fam.maps[i])
            ok, min_eig = so.is_cp(inter, tol=1e-7)
            assert ok, f"intermediate {i} has Choi eigenvalue {min_eig}"

    def test_argument_validation(self):
        g = gen.model_generator(1.0)
        with pytest.raises(ValueError, match="step"):
            gen.propagate(g, np.linspace(0.0, 1.0, 3), -0.1)
        with pytest.raises(ValueError, match="ascending"):
            gen.propagate(g, np.array([0.0, 0.5, 0.2]), 0.01)
        with pytest.raises(ValueError, match="start at 0"):
            gen.propagate(g, np.array([0.5, 1.0]), 0.01)
        with pytest.raises(ValueError, match="spacing"):
            gen.propagate(g, np.array([0.0, 0.1, 0.2]), 0.5)


class TestCpDivisibilityCheck:
    def test_model_never_cp_divisible(self):
        grid = pf.default_grid()
        for alpha in (0.5, 1.0, 2.0):
            report = gen.cp_divisibility_check(gen.model_generator(alpha), grid)
            assert not report.satisfied
            assert report.worst_time == pytest.approx(5.0)
            assert report.worst_value == pytest.approx(-alpha * math.tanh(5.0),
                                                       rel=1e-10)

    def test_constant_positive_rates_pass(self):
        grid = np.linspace(0.0, 3.0, 31)
        report = gen.cp_divisibility_check(gen.qubit_rate_generator((1.0, 1.0, 1.0)),
                                           grid)
        assert report.satisfied

    def test_boundary_zero_rate_passes(self):
        grid = np.linspace(0.0, 3.0, 31)
        report = gen.cp_divisibility_check(gen.qubit_rate_generator((1.0, 1.0, 0.0)),
                                           grid)
        assert report.satisfied
        assert report.worst_value == pytest.approx(0.0, abs=1e-14)


class TestPDivisibilityCheckPauli:
    def test_model_p_divisible_any_strength(self):
        grid = pf.default_grid()
        for alpha in (0.3, 0.75, 2.0):
            report = gen.p_divisibility_check_pauli(gen.model_generator(alpha), grid)
            assert report.satisfied
            # worst pair sum approaches a(1 - tanh t) > 0
            assert report.worst_value == pytest.approx(
                alpha * (1.0 - math.tanh(5.0)), rel=1e-9)

    def test_strongly_negative_rate_fails(self):
        grid = np.linspace(0.0, 2.0, 21)
        report = gen.p_divisibility_check_pauli(
            gen.qubit_rate_generator((1.0, 1.0, -1.5)), grid)
        assert not report.satisfied
        assert report.worst_value == pytest.approx(-0.5)

    def test_zero_rates_pass(self):
        grid = np.linspace(0.0, 2.0, 5)
        report = gen.p_divisibility_check_pauli(
            gen.qubit_rate_generator((0.0, 0.0, 0.0)), grid)
        assert report.satisfied

    def test_rejects_non_diagonal_coefficients(self):
        c = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]],
                     dtype=complex)
        g = gen.GeneratorSpec(2, lambda t: c, gen.gell_mann_basis(2))
        with pytest.raises(ValueError, match="diagonal"):
            gen.p_divisibility_check_pauli(g, np.linspace(0.0, 1.0, 3))


@pytest.mark.parametrize("check, pair", [
    (gen.cp_divisibility_check, None),
    (gen.p_divisibility_check_pauli, (0, 1)),
])
def test_grid_checks_keep_first_worst_on_ties(check, pair):
    # constant equal rates: every grid time and every rate pair ties
    report = check(gen.qubit_rate_generator((1.0, 1.0, 1.0)),
                   np.linspace(0.0, 2.0, 5))
    assert report.worst_time == 0.0
    assert report.worst_pair == pair
