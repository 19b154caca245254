import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from divischeck import generator as gen
from divischeck import pauli_family as pf
from divischeck import superop as so
from divischeck.linalg import PAULI, check_hermitian
from oracles import (generator_eigenvalues, is_trace_preserving, segment_loop_propagate,
                     unvec)


def apply_generator(g, t, rho):
    """Reference L_t[rho], evaluated directly from the defining form."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (g.dim, g.dim):
        raise ValueError(f"state shape {rho.shape} does not match dimension {g.dim}")
    out = np.zeros_like(rho)
    if g.hamiltonian is not None:
        h = check_hermitian(g.hamiltonian(t))
        out += -1j * (h @ rho - rho @ h)
    c = g.coefficient_matrix(t)
    for i, fi in enumerate(g.basis):
        for j, fj in enumerate(g.basis):
            cij = c[i, j]
            if cij == 0:
                continue
            a = fj.conj().T @ fi
            out += cij * (fi @ rho @ fj.conj().T - 0.5 * (a @ rho + rho @ a))
    return out


def sequential_propagate(g, grid, step):
    """Reference propagation, one full RK4 step M -> M + (h/6)(k1 + 2k2 + 2k3 + k4)
    at a time: the per-step loop ``propagate`` ran before it was block-batched."""
    lmat = gen.liouvillian(g)
    m = np.eye(g.dim * g.dim, dtype=complex)
    maps = [m.copy()]
    l_left = lmat(float(grid[0]))
    for t0, t1 in zip(grid[:-1], grid[1:]):
        span = float(t1 - t0)
        nsub = max(1, math.ceil(span / step - 1e-12))
        h = span / nsub
        for k in range(nsub):
            t = float(t0) + k * h
            l_mid = lmat(t + 0.5 * h)
            l_right = lmat(t + h)
            k1 = l_left @ m
            k2 = l_mid @ (m + 0.5 * h * k1)
            k3 = l_mid @ (m + 0.5 * h * k2)
            k4 = l_right @ (m + h * k3)
            m = m + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            l_left = l_right
        maps.append(m.copy())
    return maps


def hamiltonian_nondiagonal_generator(fixed=True, scale=1.0, drive=0.35):
    """Qubit generator with a constant drive ``drive`` sigma_1 and a positive
    non-diagonal C times ``scale``, given as a fixed matrix or, with
    ``fixed=False``, as its constant callable twin.  Its L is not normal."""
    h = drive * PAULI[1]
    c = scale * np.array([[0.3, 0.1j, 0.0],
                          [-0.1j, 0.2, 0.05],
                          [0.0, 0.05, 0.1]], dtype=complex)
    return gen.GeneratorSpec(2, c if fixed else (lambda t: c), hamiltonian=lambda t: h)


def switched_rates(start, stop):
    """Rates (0.6, 0.6, -0.2) for start <= t < stop and (0.6, 0.6, 0.6) at
    every other time: L(t) is piecewise constant."""
    return gen.qubit_rate_generator(
        lambda t: (0.6, 0.6, -0.2) if start <= t < stop else (0.6, 0.6, 0.6))


def count_liouvillian_calls(monkeypatch) -> list:
    """Record the time of every call of every ``liouvillian(g)`` closure."""
    closure = gen.liouvillian
    calls = []

    def counted(g):
        at = closure(g)

        def evaluate(t):
            calls.append(t)
            return at(t)

        return evaluate

    monkeypatch.setattr(gen, "liouvillian", counted)
    return calls


def record_increment_args(monkeypatch) -> list:
    """Record the left-end L argument of every ``rk4_increment`` call."""
    increment = gen.rk4_increment
    lefts = []

    def recorded(l_left, l_mid, l_right, h):
        lefts.append(l_left)
        return increment(l_left, l_mid, l_right, h)

    monkeypatch.setattr(gen, "rk4_increment", recorded)
    return lefts


def record_constant_trees(monkeypatch) -> list:
    """Record the copy count k of every ``_tree`` built over one block, the
    constant-L memo's builds; the stacked trees have a leading stack axis."""
    tree = gen._tree
    counts = []

    def recorded(d):
        if d.ndim == 3:
            counts.append(d.shape[0])
        return tree(d)

    monkeypatch.setattr(gen, "_tree", recorded)
    return counts


def assert_same_family(fam, ref):
    """Every map and every segment of ``fam`` equals ``ref``'s bit for bit."""
    assert np.array_equal(fam.maps, ref.maps)
    assert np.array_equal(fam.segments, ref.segments)


def rotating_drive_generator(rates, omega):
    """Fixed rates under a rotating drive; its L(t) at different times do not
    commute, so the order of every product shows."""
    return gen.GeneratorSpec(2, rates, hamiltonian=lambda t: omega * (
        math.cos(3.0 * t) * PAULI[1] + math.sin(3.0 * t) * PAULI[3]))


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
    @pytest.mark.parametrize("d", [2, 3])
    def test_basis_is_the_read_only_gell_mann_basis(self, d):
        g = gen.GeneratorSpec(d, np.zeros(d * d - 1))
        np.testing.assert_array_equal(g.basis, gen.gell_mann_basis(d))
        with pytest.raises(ValueError, match="read-only"):
            g.basis[0, 0, 0] = 1.0

    def test_basis_is_not_an_argument(self):
        # When the basis was an argument, rates (-0.1, 1, 1) over
        # (sigma+, sigma-, sigma_z/sqrt(2)) passed the pairwise rate-sum
        # check (worst 0.9), yet the map they generate sends |1><1| to an
        # operator with eigenvalue -0.0049 at t = 0.05.  A third positional
        # argument now fails instead of binding as the Hamiltonian.
        sp = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(TypeError):
            gen.GeneratorSpec(2, np.array([-0.1, 1.0, 1.0]),
                              [sp, sp.T, PAULI[3] / math.sqrt(2.0)])

    def test_other_basis_enters_as_rotated_coefficients(self):
        # a generator over another orthonormal traceless basis B is the
        # Gell-Mann one with C' = W C W†, W_ki = Tr(F_k† B_i); the sigma+-
        # example above becomes a non-diagonal C' the Pauli check refuses
        sp = np.array([[0, 1], [0, 0]], dtype=complex)
        other = np.stack([sp, sp.T, PAULI[3] / math.sqrt(2.0)])
        c = np.diag([-0.1, 1.0, 1.0]).astype(complex)
        w = np.einsum("kba,iba->ki", gen.gell_mann_basis(2).conj(), other)
        g = gen.GeneratorSpec(2, w @ c @ w.conj().T)
        direct = SimpleNamespace(dim=2, basis=other, hamiltonian=None,
                                 coefficient_matrix=lambda t: c)
        x = np.array([[0.3, 0.2 - 0.1j], [0.4j, 0.7]])
        np.testing.assert_allclose(apply_generator(g, 0.0, x),
                                   apply_generator(direct, 0.0, x), atol=1e-15)
        with pytest.raises(ValueError, match="not diagonal"):
            gen.p_divisibility_check_pauli(g, np.array([0.0, 0.05]))

    def test_rejects_nonfinite_coefficients(self):
        g = gen.qubit_rate_generator(lambda t: (1.0, math.nan, 1.0))
        with pytest.raises(ValueError, match="non-finite"):
            g.coefficient_matrix(0.5)
        # the L(t) closure contracts the rates without coefficient_matrix
        with pytest.raises(ValueError, match="non-finite"):
            gen.liouvillian(g)(0.5)
        # a fixed triple is validated on construction
        with pytest.raises(ValueError, match="non-finite"):
            gen.qubit_rate_generator((1.0, math.nan, 1.0))

    def test_rejects_non_hermitian_coefficients(self):
        c = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=complex)
        g = gen.GeneratorSpec(2, lambda t: c)
        with pytest.raises(ValueError, match="Hermitian"):
            g.coefficient_matrix(0.5)
        with pytest.raises(ValueError, match="Hermitian"):
            gen.GeneratorSpec(2, c)
        # complex rates: a complex diagonal is not Hermitian either
        with pytest.raises(ValueError, match="rates must be real"):
            gen.qubit_rate_generator(np.array([1, 1 + 0.5j, 1]))
        g = gen.qubit_rate_generator(lambda t: (1.0, complex(1.0, 0.5), 1.0))
        with pytest.raises(ValueError, match="rates must be real"):
            g.coefficient_matrix(0.5)
        with pytest.raises(ValueError, match="rates must be real"):
            gen.liouvillian(g)(0.5)

    @pytest.mark.parametrize("n", [2, 4])
    def test_rejects_wrong_coefficient_shape(self, n):
        c = np.eye(n, dtype=complex)
        with pytest.raises(ValueError, match=r"coefficient matrix has shape"):
            gen.GeneratorSpec(2, c)
        g = gen.GeneratorSpec(2, lambda t: c)
        with pytest.raises(ValueError, match=r"coefficient matrix at t=0.5 has shape"):
            g.coefficient_matrix(0.5)
        # a rate vector of the wrong length, fixed and callable
        rates = np.ones(n)
        with pytest.raises(ValueError, match="shape"):
            gen.qubit_rate_generator(rates)
        g = gen.qubit_rate_generator(lambda t: rates)
        with pytest.raises(ValueError, match="shape"):
            g.coefficient_matrix(0.5)
        with pytest.raises(ValueError, match="shape"):
            gen.liouvillian(g)(0.5)

    def test_fixed_coefficients_are_read_only(self):
        c = np.diag([1.0, 0.5, 0.2]).astype(complex)
        g = gen.GeneratorSpec(2, c)
        assert c.flags.writeable  # the caller's matrix is not frozen
        np.testing.assert_array_equal(g.coefficient_matrix(0.3), c)
        with pytest.raises(ValueError, match="read-only"):
            g.coefficient_matrix(0.3)[0, 0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            gen.liouvillian(g)(0.3)[0, 0] = 2.0

    @pytest.mark.parametrize("bad, message", [
        ((1.0, complex(1.0, 0.5), 1.0), "rates must be real, got dtype complex128"),
        ((1.0, math.nan, 1.0), "rates have non-finite entries"),
        ((1.0, math.inf, 1.0), "rates have non-finite entries"),
        ((1.0, 1.0, -math.inf), "rates have non-finite entries"),
        ((1.0, 1.0), r"coefficient rate vector at t=0\.50*5? has shape \(2,\), expected \(3,\)"),
        ((1.0, 1.0, 1.0, 1.0),
         r"coefficient rate vector at t=0\.50*5? has shape \(4,\), expected \(3,\)"),
        (np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=complex), "matrix is not Hermitian"),
    ], ids=["complex", "nan", "inf", "minus-inf", "wrong-length", "four-rates", "non-hermitian"])
    def test_closure_rejects_a_bad_value_after_valid_rates(self, bad, message):
        # valid rate vectors before t = 0.5 have filled the closure's coefficients
        g = gen.GeneratorSpec(2, lambda t: bad if t >= 0.5 else (0.6, 0.6, 0.2))
        lmat = gen.liouvillian(g)
        lmat(0.25)
        with pytest.raises(ValueError, match=message):
            lmat(0.5)
        with pytest.raises(ValueError, match=message):
            gen.propagate(g, [0.0, 1.0], 0.01)

    @pytest.mark.parametrize("value, twin", [
        ((1, 2, -1), (1.0, 2.0, -1.0)),
        ((1e308, 1e308, 0.0), np.array([1e308, 1e308, 0.0])),
    ], ids=["ints", "huge"])
    def test_closure_accepts_rates_beside_the_float_tuple(self, value, twin):
        # ints take the array path and give the bits of the same floats; two
        # rates whose sum overflows are each finite, so they are accepted
        l_value = gen.liouvillian(gen.GeneratorSpec(2, lambda t: value))(0.5)
        l_twin = gen.liouvillian(gen.GeneratorSpec(2, lambda t: twin))(0.5)
        assert l_value.dtype == np.float64 and np.isfinite(l_value).all()
        assert np.array_equal(l_value, l_twin)

    def test_switching_forms_match_the_matrix_twin(self):
        # rate vectors on [0, 0.1), [0.2, 0.3), ... and a non-diagonal matrix
        # between them: the matrix form must not leave its off-diagonal
        # entries in the rate vectors' coefficients
        c = np.array([[0.6, 0.1j, 0.0], [-0.1j, 0.6, 0.05], [0.0, 0.05, 0.3]])

        def form(t, rates):
            return c if int(10 * t) % 2 else rates(t)

        switching = gen.GeneratorSpec(2, lambda t: form(t, lambda t: pf.rates(t, 0.6)))
        twin = gen.GeneratorSpec(2, lambda t: form(
            t, lambda t: np.diag(pf.rates(t, 0.6)).astype(complex)))
        l_switching, l_twin = gen.liouvillian(switching), gen.liouvillian(twin)
        for t in (0.05, 0.15, 0.25, 0.15, 0.05):
            assert np.array_equal(l_switching(t), l_twin(t))
        grid = np.linspace(0.0, 1.0, 11)
        assert_same_family(gen.propagate(switching, grid, 1e-3), gen.propagate(twin, grid, 1e-3))


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
                expected = generator_eigenvalues(t, alpha)
                for mu, sigma in enumerate(PAULI):
                    out = apply_generator(g, t, sigma)
                    np.testing.assert_allclose(out, expected[mu] * sigma,
                                               atol=1e-14)

    def test_identity_maps_to_zero(self):
        g = gen.model_generator(1.0)
        np.testing.assert_allclose(apply_generator(g, 0.7, PAULI[0]),
                                   np.zeros((2, 2)), atol=1e-14)

    def test_output_traceless_on_random_states(self):
        g = gen.model_generator(0.9)
        rng = np.random.default_rng(0)
        for _ in range(10):
            b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            rho = b @ b.conj().T
            rho /= np.trace(rho).real
            assert abs(np.trace(apply_generator(g, 1.1, rho))) <= 1e-13


def random_qutrit_generator():
    """Qutrit generator with a seeded random Hermitian C and Hamiltonian."""
    rng = np.random.default_rng(3)
    b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return gen.GeneratorSpec(3, (b + b.conj().T) / 2,
                             hamiltonian=lambda t: (h + h.conj().T) / 2)


class TestLiouvillian:
    @pytest.mark.parametrize("g", [
        gen.model_generator(0.7),
        hamiltonian_nondiagonal_generator(),
        hamiltonian_nondiagonal_generator(fixed=False),
        random_qutrit_generator(),
    ], ids=["model", "driven-fixed", "driven-callable", "qutrit"])
    def test_matches_apply_generator(self, g):
        lmat = gen.liouvillian(g)
        rng = np.random.default_rng(1)
        d = g.dim
        for t in (0.0, 0.6, 2.0):
            mat = lmat(t)
            for _ in range(5):
                x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                lhs = unvec(mat @ so.vec(x), d)
                np.testing.assert_allclose(lhs, apply_generator(g, t, x),
                                           atol=1e-13)

    def test_hamiltonian_part(self):
        h = 0.5 * PAULI[3]
        g = gen.GeneratorSpec(2, lambda t: np.zeros((3, 3), dtype=complex),
                              hamiltonian=lambda t: h)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lhs = unvec(gen.liouvillian(g)(0.3) @ so.vec(x), 2)
        np.testing.assert_allclose(lhs, -1j * (h @ x - x @ h), atol=1e-14)

    @pytest.mark.parametrize("shape", [(3, 3), (1, 1), (2, 2, 2)], ids=["3x3", "1x1", "stack"])
    def test_rejects_a_hamiltonian_of_the_wrong_shape(self, shape):
        # each is Hermitian, matrix by matrix, so only the shape check stops it
        g = gen.GeneratorSpec(2, (0.5, 0.5, 0.5), hamiltonian=lambda t: np.ones(shape))
        for t, call in ((0.5, lambda: gen.liouvillian(g)(0.5)),
                        (0.0, lambda: gen.propagate(g, [0.0, 1.0], 0.01))):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == f"Hamiltonian at t={t} has shape {shape}, expected (2, 2)"

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_rate_vector_contracts_in_real_arithmetic(self, d):
        # the diagonal dissipator rows are real in every Gell-Mann basis, so
        # the real contraction is the complex one without its zero imaginary
        # parts: the same bits for qubits, and within the rounding of a sum
        # taken in another order for longer contractions
        for seed in range(20):
            rates = np.random.default_rng(seed).uniform(-0.5, 1.5, d * d - 1)
            l_twin = gen.liouvillian(gen.GeneratorSpec(d, np.diag(rates).astype(complex)))(0.3)
            assert l_twin.dtype == np.complex128 and not l_twin.imag.any()
            for value in (tuple(rates.tolist()), rates):
                l_rated = gen.liouvillian(gen.GeneratorSpec(d, lambda t: value))(0.3)
                assert l_rated.dtype == np.float64
                if d == 2:
                    assert np.array_equal(l_rated, l_twin)
                else:
                    scale = np.abs(l_twin).max()
                    np.testing.assert_allclose(l_rated, l_twin.real, rtol=0,
                                               atol=4 * np.finfo(float).eps * scale)


class TestPropagate:
    def test_zero_generator_stays_identity(self):
        g = gen.qubit_rate_generator((0.0, 0.0, 0.0))
        fam = gen.propagate(g, np.linspace(0.0, 2.0, 5), 0.05)
        for m in fam.maps:
            np.testing.assert_allclose(m, np.eye(4), atol=1e-12)

    def test_matches_closed_form(self):
        alpha = 1.0
        g = gen.model_generator(alpha)
        grid = np.linspace(0.0, 3.0, 13)
        fam = gen.propagate(g, grid, 1e-3)
        worst = max(np.linalg.norm(m - pf.channel(float(t), alpha))
                    for t, m in zip(fam.grid, fam.maps))
        assert worst <= 1e-8

    def test_matches_matrix_exponential_for_constant_rates(self):
        g = gen.qubit_rate_generator((1.0, 1.0, 1.0))
        lmat = gen.liouvillian(g)(0.0)
        grid = np.linspace(0.0, 2.0, 5)
        fam = gen.propagate(g, grid, 1e-3)
        for t, m in zip(grid, fam.maps):
            np.testing.assert_allclose(m, expm(lmat * t), atol=1e-8)

    def test_hamiltonian_and_nondiagonal_coefficients_match_expm(self):
        g = hamiltonian_nondiagonal_generator()
        lmat = gen.liouvillian(g)(0.0)
        grid = np.linspace(0.0, 1.5, 4)
        fam = gen.propagate(g, grid, 1e-3)
        for t, m in zip(grid, fam.maps):
            np.testing.assert_allclose(m, expm(lmat * t), atol=1e-8)
        for m in fam.maps:
            assert is_trace_preserving(m, tol=1e-8)

    @pytest.mark.parametrize("points", [1, 2, 6])
    def test_maps_and_segments_are_stacks(self, points):
        # one complex (n, n) matrix per grid time and per segment
        fam = gen.propagate(gen.model_generator(0.6), np.linspace(0.0, 0.5, points), 1e-2)
        assert fam.maps.shape == (points, 4, 4) and fam.maps.dtype == complex
        assert fam.segments.shape == (points - 1, 4, 4) and fam.segments.dtype == complex
        np.testing.assert_array_equal(fam.maps[0], np.eye(4))

    def test_first_map_is_identity_and_trace_preserving(self):
        g = gen.model_generator(0.6)
        fam = gen.propagate(g, np.linspace(0.0, 1.0, 6), 1e-2)
        np.testing.assert_allclose(fam.maps[0], np.eye(4), atol=1e-15)
        for m in fam.maps:
            assert is_trace_preserving(m, tol=1e-8)

    def test_fourth_order_convergence(self):
        # large enough steps that truncation dominates roundoff
        g = gen.model_generator(1.0)
        grid = np.linspace(0.0, 3.0, 7)

        def sup_err(step):
            fam = gen.propagate(g, grid, step)
            return max(np.linalg.norm(m - pf.channel(float(t), 1.0))
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
            expected = np.sort(2 * pf.pauli_weights(float(t), alpha))
            np.testing.assert_allclose(eigs, expected, atol=1e-7)

    def test_nonnegative_coefficients_give_cp_intermediates(self):
        g = gen.qubit_rate_generator((1.0, 1.0, 1.0))
        fam = gen.propagate(g, np.linspace(0.0, 2.0, 9), 1e-3)
        for i, inter in enumerate(fam.segments):
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

    def test_step_past_the_grid_spacing_names_both(self):
        message = (r"^step must not exceed the grid spacing: step 0\.15 "
                   r"against the smallest spacing 0\.1$")
        with pytest.raises(ValueError, match=message):
            gen.propagate(gen.model_generator(1.0), np.array([0.0, 0.2, 0.3, 0.6]), 0.15)

    def test_rk4_real_limit_bounds_the_stable_steps_on_a_decay_rate(self):
        # one RK4 step of dy/dt = -y multiplies y by R(-h), |R(-h)| <= 1 up to
        # the root of R(-x) = 1, which the check gives as the largest stable
        # step for the 1 x 1 L = -1
        limit = 2.785293563405282

        def gain(h):
            return abs(1.0 + gen.rk4_increment(*[-np.eye(1)] * 3, h)[0, 0])

        assert gain(limit) == pytest.approx(1.0, abs=1e-14)
        assert gain(0.5 * limit) < 1.0 < gain(1.001 * limit)
        gen.check_rk4_step(limit, [0.0], [-np.eye(1)])
        with pytest.raises(ValueError, match=r"the largest stable step is 2\.78529$"):
            gen.check_rk4_step(1.001 * limit, [0.0], [-np.eye(1)])

    def test_rejects_an_unstable_step_instead_of_growing_the_maps(self):
        # rates 1400 decay at 2800: step x rate = 2.8 lies past RK4's
        # real-axis limit, where the default grid's maps reached entries of
        # 1.3e48; the overflowing loop warns of nothing
        g = gen.qubit_rate_generator((1400.0, 1400.0, 1400.0))
        message = (r"^step 0\.001 is outside RK4's stability region for L\(t\) at t=0; "
                   r"the largest stable step is 0\.000994748$")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                gen.propagate(g, pf.default_grid(), 1e-3)

    @pytest.mark.parametrize("omega, limit", [(1400.0, None), (1450.0, "0.00097537"),
                                              (2000.0, "0.000707133")])
    def test_checks_a_strong_drive_over_rk4s_whole_region(self, omega, limit):
        # eigenvalues -0.2 +- 2 omega i: the decay alone is far inside RK4's
        # real-axis limit, but a step of 1e-3 leaves the region near the
        # imaginary axis, at about 2 sqrt 2 / (2 omega).  At 1450 the maps
        # reached entries of 2.2e7, and at 2000 they overflowed
        g = gen.GeneratorSpec(2, [0.1, 0.1, 0.1], hamiltonian=lambda t: omega * PAULI[1])
        grid = np.linspace(0.0, 0.1, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if limit is None:
                assert np.abs(gen.propagate(g, grid, 1e-3).maps).max() <= 1.0 + 1e-9
            else:
                with pytest.raises(ValueError, match=(
                        r"^step 0\.001 is outside RK4's stability region for L\(t\) at t=0; "
                        rf"the largest stable step is {limit}$")):
                    gen.propagate(g, grid, 1e-3)

    def test_rejects_a_step_on_a_non_finite_spectrum(self):
        # rates of 1e308 overflow L itself, whose eigenvalues then count as NaN
        g = gen.qubit_rate_generator((1e308, 1e308, 1e308))
        message = (r"^step 0\.001 is outside RK4's stability region for L\(t\) at t=0; "
                   r"an eigenvalue of L\(t\) there is not finite$")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                gen.propagate(g, np.array([0.0, 0.1]), 1e-3)

    def test_one_gain_test_rejects_every_step_past_rk4s_region(self):
        # RK4's region lies within |z| <= 2.96: on 2,001 rays from the
        # positive imaginary axis round the left half-plane to the negative
        # one, every z = step lam with |z| in (3, 1e300] has a gain above
        # _MAX_GAIN, or an inf or NaN one once R overflows, and no warning;
        # the check takes each as the 1 x 1 L = lam
        rays = np.exp(1j * np.linspace(0.5 * math.pi, 1.5 * math.pi, 2001))
        radii = np.concatenate([[np.nextafter(3.0, 4.0)], np.geomspace(3.0, 1e300, 400)[1:]])
        z = rays[:, None] * radii
        assert (z.real <= 1e-12 * np.abs(z)).all()   # every one is checked
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore", invalid="ignore"):
                assert not (gen._rk4_gain(z) <= gen._MAX_GAIN).any()
            for lam in z[::100, [0, 200, -1]].ravel():
                with pytest.raises(ValueError, match="outside RK4's stability region"):
                    gen.check_rk4_step(1.0, [0.0], [[[lam]]])

    @pytest.mark.parametrize("lam", [
        math.nan, math.inf, -math.inf, complex(math.inf, -1.0), complex(-math.inf, -math.inf),
        complex(math.nan, 1.0), complex(0.0, math.inf), complex(-1.0, math.inf),
    ])
    def test_one_gain_test_rejects_every_non_finite_eigenvalue(self, lam):
        # a diagonal L's eigenvalues are its entries
        ls = [np.diag([-1.0, -2.0]), np.diag([lam, -1.0])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"at t=0\.5; an eigenvalue of L\(t\) there "
                                                 r"is not finite$"):
                gen.check_rk4_step(1e-3, [0.0, 0.5], ls)

    def test_clear_bound_lies_inside_rk4s_region(self):
        # a stack is cleared without an eigensolve when step n max |L_ij| <=
        # _CLEAR, which bounds every |step lam|: on 100,001 rays round the
        # checked half-plane, and the two edges of its 1e-12 sliver, every z
        # with |z| <= _CLEAR has a gain within _MAX_GAIN, and no warning
        rays = np.concatenate([np.exp(1j * np.linspace(0.5 * math.pi, 1.5 * math.pi, 100_001)),
                               [complex(1e-12, 1.0), complex(1e-12, -1.0)]])
        assert (rays.real <= 1e-12 * np.abs(rays)).all()   # every one is checked
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for r in np.linspace(0.0, gen._CLEAR, 53):
                assert (gen._rk4_gain(r * rays) <= gen._MAX_GAIN).all()
            assert gen._rk4_gain(gen._CLEAR * rays).max() < 0.99
            assert gen._rk4_reach(rays).min() == pytest.approx(2.6156, abs=1e-4)

    def test_a_norm_past_the_bound_only_sends_l_to_its_spectrum(self):
        # a non-normal L with both eigenvalues -1: step n max |L_ij| is 2e6,
        # far past _CLEAR, yet the step is stable, and the eigensolve says so
        ls = np.array([[[-1.0, 1e6], [0.0, -1.0]]])
        gen.check_rk4_step(1.0, [0.0], ls)
        with pytest.raises(ValueError, match=r"at t=0; the largest stable step is 2\.78529$"):
            gen.check_rk4_step(2.8, [0.0], ls)

    def test_rejects_a_pulse_between_grid_times(self):
        # rates of 3e3 on [0.4, 0.45] lie wholly inside the one segment
        # [0, 0.5]: a check of L at the grid times alone passed them, and the
        # maps reached entries of 8.4e66
        g = gen.qubit_rate_generator(
            lambda t: (3e3, 3e3, 3e3) if 0.4 <= t <= 0.45 else (1.0, 1.0, -1.0))
        message = (r"^step 0\.001 is outside RK4's stability region for L\(t\) at t=0\.4005; "
                   r"the largest stable step is 0\.000464216$")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                gen.propagate(g, np.linspace(0.0, 1.0, 3), 1e-3)

    def test_a_default_model_run_solves_no_spectrum_for_stability(self, monkeypatch):
        # step n max |L_ij| stays far below _CLEAR on every stack
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a) or eigvals(a))
        gen.propagate(gen.model_generator(0.6), pf.default_grid(), 1e-3)
        gen.propagate(gen.qubit_rate_generator((0.6, 0.6, 0.6)), pf.default_grid(5.0, 20), 1e-3)
        assert calls == []

    @pytest.mark.parametrize("grid, step, count", [
        ([0.0, 1.25, 2.5, 5.0], 1e-9, "5000000000"),
        ([0.0, 1e9], 1e-3, "1000000000000"),
        ([0.0, 1.0], 1e-320, "inf"),
    ], ids=["tiny-step", "long-grid", "step-overflows-the-count"])
    def test_refuses_a_run_past_the_substep_bound_before_evaluating_l(self, grid, step,
                                                                      count):
        calls = []

        def rates(t):
            calls.append(t)
            return (0.5, 0.5, 0.5)

        message = (rf"^the grid needs {count} RK4 substeps of at most {step:g}, more than "
                   rf"the bound MAX_RK4_SUBSTEPS = 10000000$")
        with pytest.raises(ValueError, match=message):
            gen.propagate(gen.qubit_rate_generator(rates), np.array(grid), step)
        assert calls == []

    def test_substep_bound_counts_by_the_stacks_rounding(self, monkeypatch):
        # 0.4 / 0.1 and 0.6 / 0.1 land within 1e-12 of 4 and 6: ten
        # substeps, at the bound; a step of 0.0999 takes 5 + 7
        monkeypatch.setattr(gen, "MAX_RK4_SUBSTEPS", 10)
        g = gen.qubit_rate_generator((0.5, 0.5, 0.5))
        assert len(gen.propagate(g, np.array([0.0, 0.4, 1.0]), 0.1).maps) == 3
        with pytest.raises(ValueError, match="needs 12 RK4 substeps"):
            gen.propagate(g, np.array([0.0, 0.4, 1.0]), 0.0999)

    @pytest.mark.parametrize("grid, step, message", [
        ([0.0, math.nan], 0.01, "grid must be finite"),
        ([0.0, math.inf], 0.01, "grid must be finite"),
        ([0.0, 1.0], math.nan, "step must be finite"),
        ([0.0, 1.0], math.inf, "step must be finite"),
    ], ids=["grid-nan", "grid-inf", "step-nan", "step-inf"])
    def test_rejects_nonfinite_input(self, grid, step, message):
        with pytest.raises(ValueError, match=message):
            gen.propagate(gen.model_generator(1.0), np.array(grid), step)

    @pytest.mark.parametrize("g, grid, step", [
        # non-uniform grid; span/step is not an integer on any segment
        (gen.model_generator(0.6), [0.0, 0.013, 0.05, 0.2, 0.237, 1.0], 0.004),
        # one segment of 500 substeps, several blocks and a partial one
        (gen.model_generator(0.6), [0.0, 0.5], 1e-3),
        (hamiltonian_nondiagonal_generator(), np.linspace(0.0, 1.5, 4), 1e-3),
        # L(t) that do not commute, over several blocks: the order of every product shows
        (rotating_drive_generator((0.6, 0.3, 0.1), 1.0), [0.0, 0.5], 1e-3),
    ], ids=["model-nonuniform", "model-long-segment", "hamiltonian-nondiagonal",
            "rotating-drive-long-segment"])
    def test_matches_sequential_rk4(self, g, grid, step):
        fam = gen.propagate(g, grid, step)
        expected = sequential_propagate(g, grid, step)
        assert len(fam.maps) == len(expected)
        for m, ref in zip(fam.maps, expected):
            np.testing.assert_allclose(m, ref, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("fixed, twin", [
        (gen.qubit_rate_generator((0.6, 0.6, 0.6)),
         gen.qubit_rate_generator(lambda t: (0.6, 0.6, 0.6))),
        (hamiltonian_nondiagonal_generator(), hamiltonian_nondiagonal_generator(fixed=False)),
    ], ids=["semigroup", "hamiltonian-nondiagonal"])
    def test_fixed_coefficients_match_callable_twin(self, fixed, twin):
        # the fixed-C shortcut changes no bit of L(t) or of the maps
        l_fixed, l_twin = gen.liouvillian(fixed), gen.liouvillian(twin)
        for t in (0.0, 0.37, 2.0):
            assert np.array_equal(l_fixed(t), l_twin(t))
        grid = np.linspace(0.0, 1.5, 4)
        for m, ref in zip(gen.propagate(fixed, grid, 1e-3).maps,
                          gen.propagate(twin, grid, 1e-3).maps):
            assert np.array_equal(m, ref)

    @pytest.mark.parametrize("rated, twin", [
        (gen.qubit_rate_generator((0.6, 0.6, -0.3)),
         gen.GeneratorSpec(2, np.diag((0.6, 0.6, -0.3)).astype(complex))),
        (gen.model_generator(0.6),
         gen.GeneratorSpec(2, lambda t: np.diag(pf.rates(t, 0.6)).astype(complex))),
    ], ids=["fixed", "callable"])
    def test_rate_vector_matches_matrix_twin(self, rated, twin):
        # rates contracted directly give the diagonal matrix's L(t) and maps, bit for bit
        l_rated, l_twin = gen.liouvillian(rated), gen.liouvillian(twin)
        for t in (0.0, 0.37, 2.0):
            assert np.array_equal(rated.coefficient_matrix(t), twin.coefficient_matrix(t))
            assert np.array_equal(l_rated(t), l_twin(t))
        grid = np.linspace(0.0, 1.5, 4)
        for m, ref in zip(gen.propagate(rated, grid, 1e-3).maps,
                          gen.propagate(twin, grid, 1e-3).maps):
            assert np.array_equal(m, ref)

    @pytest.mark.parametrize("g, closed", [
        (gen.model_generator(0.6), lambda t: pf.channel(t, 0.6)),
        (gen.qubit_rate_generator((0.6, 0.6, 0.6)), lambda t: pf.semigroup_channel(t, 0.6)),
    ], ids=["model", "semigroup"])
    def test_closed_form_error_on_default_grid(self, g, closed):
        grid = pf.default_grid()
        fam = gen.propagate(g, grid, 1e-3)
        worst = max(np.max(np.abs(m - closed(float(t))))
                    for t, m in zip(grid, fam.maps))
        assert worst <= 1e-14

    def test_liouvillian_calls_and_stack_bound(self, monkeypatch):
        # the closure is called 2N + 1 times for N substeps (the benchmark
        # derives its RK4 step count from this); every block stays within
        # _BLOCK, and blocks of equal length stack in at most _STACK substeps
        calls = count_liouvillian_calls(monkeypatch)
        grid, step = [0.0, 0.013, 0.05, 0.2, 0.237, 1.0], 0.004
        gen.propagate(gen.model_generator(0.6), grid, step)
        nsub = [max(1, math.ceil((t1 - t0) / step - 1e-12)) for t0, t1 in zip(grid, grid[1:])]
        assert len(calls) == 1 + 2 * sum(nsub)

        lefts = record_increment_args(monkeypatch)
        gen.propagate(gen.model_generator(0.6), [0.0, 0.5], 1e-3)
        assert [left.shape[:-2] for left in lefts] == [(2, 64)] * 3 + [(1, 64), (1, 52)]
        assert gen._BLOCK == 64

        # the default grid's 200 segments of 25 substeps go five to a stack
        lefts.clear()
        gen.propagate(gen.model_generator(0.6), pf.default_grid(), 1e-3)
        assert [left.shape[:-2] for left in lefts] == [(gen._STACK // 25, 25)] * 40
        assert gen._STACK == 128

    def test_constant_generator_squares_one_increment_per_block(self, monkeypatch):
        # L is still evaluated at all 2N + 1 substep times, but each block
        # length (64 and 52 here) forms its single increment and its tree once
        calls = count_liouvillian_calls(monkeypatch)
        lefts = record_increment_args(monkeypatch)
        trees = record_constant_trees(monkeypatch)
        gen.propagate(gen.qubit_rate_generator((0.6, 0.6, 0.6)), [0.0, 0.5], 1e-3)
        assert len(calls) == 1 + 2 * 500
        assert len(lefts) == 2
        assert all(left.ndim == 2 for left in lefts)
        assert trees == [gen._BLOCK, 500 % gen._BLOCK]

    @pytest.mark.parametrize("grid, powers", [
        (np.linspace(0.0, 5.0, 21), 2),   # spans of 250 substeps: blocks of 64 and 58
        (pf.default_grid(), 9),           # 200 spans of 25 substeps, 9 distinct float h
    ], ids=["probe-clean", "default-grid"])
    def test_fixed_generator_forms_each_block_power_once(self, monkeypatch, grid, powers):
        # the callable-rate twin returns a fresh L on every call, so every
        # block takes the stacked tree and nothing is reused
        rates = (0.6, 0.6, 0.6)
        twin = gen.propagate(gen.GeneratorSpec(2, lambda t: rates), grid, 1e-3)
        lefts = record_increment_args(monkeypatch)
        trees = record_constant_trees(monkeypatch)
        fam = gen.propagate(gen.qubit_rate_generator(rates), grid, 1e-3)
        assert len(trees) == powers
        assert all(left.ndim == 2 for left in lefts)
        assert_same_family(fam, twin)

    def test_block_powers_are_not_reused_across_a_change_of_l(self, monkeypatch):
        # L is one object on t < 1 and another after it; the blocks on either
        # side have the same (h, k)
        la = gen.liouvillian(gen.qubit_rate_generator((0.6, 0.6, 0.6)))(0.0)
        lb = gen.liouvillian(gen.qubit_rate_generator((0.2, 0.4, 0.9)))(0.0)

        def piecewise(fresh):
            def at(t):
                lm = la if t < 1.0 else lb
                return lm.copy() if fresh else lm
            return at

        g, grid = gen.qubit_rate_generator((0.0, 0.0, 0.0)), np.linspace(0.0, 2.0, 9)
        monkeypatch.setattr(gen, "liouvillian", lambda g: piecewise(fresh=True))
        twin = gen.propagate(g, grid, 1e-3)
        monkeypatch.setattr(gen, "liouvillian", lambda g: piecewise(fresh=False))
        trees = record_constant_trees(monkeypatch)
        fam = gen.propagate(g, grid, 1e-3)
        assert trees == [64, 58, 64, 58]
        assert_same_family(fam, twin)

    @pytest.mark.parametrize("start, stop", [
        (0.2505, math.inf),   # one jump, at a midpoint inside the fourth block
        (0.2505, 0.2525),     # a pulse: the block's ends agree
        (0.2504, 0.2506),     # a single midpoint differs
        (0.2509, 0.2511),     # a single right end differs
    ], ids=["jump", "pulse", "one-midpoint", "one-right-end"])
    def test_block_with_a_change_inside_takes_the_tree(self, monkeypatch, start, stop):
        g, grid = switched_rates(start, stop), [0.0, 0.5]
        lefts = record_increment_args(monkeypatch)
        fam = gen.propagate(g, grid, 1e-3)
        # blocks of substeps 0-63, 64-127, ... in stacks of two: only 192-255
        # holds the change, but the callable returns a fresh L on every call,
        # so every stack, equal L values or not, takes the stacked tree
        assert [left.shape[:-2] for left in lefts] == [(2, 64)] * 3 + [(1, 64), (1, 52)]
        for m, ref in zip(fam.maps, sequential_propagate(g, grid, 1e-3)):
            np.testing.assert_allclose(m, ref, rtol=0, atol=1e-14)


# Rate triples with nonnegative pairwise sums generate contractive maps, so
# an absolute bound measures the rounding of the map itself.
RATES = st.tuples(*[st.floats(-0.5, 1.5)] * 3).filter(
    lambda r: min(r[0] + r[1], r[0] + r[2], r[1] + r[2]) >= 0)
QUBIT_GENERATORS = st.one_of(RATES.map(gen.qubit_rate_generator),
                             st.floats(0.05, 3.0).map(gen.model_generator),
                             st.builds(rotating_drive_generator, RATES, st.floats(0.1, 2.0)),
                             st.builds(hamiltonian_nondiagonal_generator, st.booleans(),
                                       st.floats(0.0, 3.0), st.floats(0.0, 2.0)))


@st.composite
def grids_and_steps(draw):
    """An ascending grid from 0 of at most 6 segments, and a step that
    covers it in at most 300 substeps."""
    step = draw(st.floats(1e-3, 0.02))
    gaps = draw(st.lists(st.floats(1.0, 49.0), min_size=1, max_size=6))
    return np.concatenate([[0.0], np.cumsum(gaps) * step]), step


@settings(max_examples=40, deadline=None)
@given(QUBIT_GENERATORS, grids_and_steps())
def test_tree_product_matches_sequential_rk4(g, grid_step):
    grid, step = grid_step
    fam = gen.propagate(g, grid, step)
    expected = sequential_propagate(g, grid, step)
    assert len(fam.maps) == len(expected) == len(fam.segments) + 1
    for m, ref in zip(fam.maps, expected):
        np.testing.assert_allclose(m, ref, rtol=0, atol=1e-14)
    for seg, before, after in zip(fam.segments, fam.maps, fam.maps[1:]):
        np.testing.assert_allclose(after, seg @ before, rtol=0, atol=1e-14)


@settings(max_examples=30, deadline=None)
@given(RATES, st.lists(st.floats(0.03, 0.3), min_size=1, max_size=5))
def test_fixed_generator_matches_callable_twin_bit_for_bit(rates, spans):
    # unequal, non-dyadic spans of up to 300 substeps: the reused block
    # powers give the maps the twin computes block by block
    grid = np.concatenate([[0.0], np.cumsum(spans)])
    twin = gen.propagate(gen.GeneratorSpec(2, lambda t: rates), grid, 1e-3)
    assert_same_family(gen.propagate(gen.qubit_rate_generator(rates), grid, 1e-3), twin)


@settings(max_examples=40, deadline=None)
@given(RATES, st.integers(1, 59), st.integers(1, 6), st.integers(1, 50))
def test_fixed_generator_repeats_its_segment_bit_for_bit(rates, ticks, segments, substeps):
    # dyadic grid spacing: every segment has the same span, substeps and L;
    # a step of at most 59/64 on decay rates of at most 3 is stable for RK4
    spacing = ticks / 64
    grid = np.arange(segments + 1) * spacing
    fam = gen.propagate(gen.qubit_rate_generator(rates), grid, spacing / substeps)
    for seg in fam.segments[1:]:
        assert np.array_equal(seg, fam.segments[0])


@settings(max_examples=500, deadline=None)
@given(RATES.filter(lambda r: max(r[0] + r[1], r[0] + r[2], r[1] + r[2]) >= 0.1),
       st.floats(0.0, 4.0), st.floats(2.6, 3.0))
def test_propagate_rejects_a_step_exactly_where_one_rk4_step_amplifies(rates, omega, x):
    # fixed rates under a constant drive omega sigma_x: a spectrum at Re <= 0,
    # and a step of x over its largest |lam|, around where every ray leaves
    # RK4's region (2.79 on the real axis, 2.83 on the imaginary one, 2.96 at
    # most).  One step I + D keeps the trace mode at 1 for every h, so its
    # spectral radius exceeds 1 iff that of its Bloch matrix on the traceless
    # operators does.  Draws within 1e-9 of 1 are skipped
    g = gen.GeneratorSpec(2, rates, hamiltonian=lambda t: omega * PAULI[1])
    lmat = gen.liouvillian(g)(0.0)
    h = x / np.abs(np.linalg.eigvals(lmat)).max()
    paulis = np.array([p.reshape(-1, order="F") for p in PAULI[1:]]).T
    bloch = 0.5 * paulis.conj().T @ (np.eye(4) + gen.rk4_increment(lmat, lmat, lmat, h)) @ paulis
    radius = np.abs(np.linalg.eigvals(bloch)).max()
    assume(abs(radius - 1.0) > 1e-9)
    try:
        gen.propagate(g, np.array([0.0, h]), h)
    except ValueError as err:
        assert "outside RK4's stability region" in str(err)
        assert radius > 1.0
    else:
        assert radius < 1.0


@st.composite
def packed_grids_and_steps(draw):
    """A grid from 0 in runs of segments with equal substep counts, some
    longer than _BLOCK; spans are not whole multiples of the step, so the
    segments of one run share their substep count but not their h."""
    step = draw(st.floats(1e-3, 0.01))
    spans = []
    for nsub, repeats in draw(st.lists(st.tuples(st.integers(1, 90), st.integers(1, 7)),
                                       min_size=1, max_size=4)):
        spans += [max(1.0, nsub - draw(st.floats(0.0, 0.5))) * step for _ in range(repeats)]
    return np.concatenate([[0.0], np.cumsum(spans)]), step


@settings(max_examples=30, deadline=None)
@given(st.one_of(QUBIT_GENERATORS,
                 st.builds(switched_rates, st.floats(0.0, 0.5), st.floats(0.0, 2.0))),
       packed_grids_and_steps())
def test_stacked_segments_match_the_segment_loop_bit_for_bit(g, grid_step):
    # packed stacks, long segments in several blocks, constant and varying L alike
    grid, step = grid_step
    assert_same_family(gen.propagate(g, grid, step), segment_loop_propagate(g, grid, step))


def rate_twins(rates_at, drive=None):
    """A generator with the callable rate vector ``rates_at`` and its twin
    with the complex matrix diag(rates), both under a constant drive
    ``drive`` sigma_1 unless ``drive`` is None."""
    h = None if drive is None else (lambda t: drive * PAULI[1])
    return (gen.GeneratorSpec(2, rates_at, hamiltonian=h),
            gen.GeneratorSpec(2, lambda t: np.diag(rates_at(t)).astype(complex), hamiltonian=h))


RATE_CALLABLES = st.one_of(RATES.map(lambda r: lambda t: r),
                           RATES.map(lambda r: lambda t: np.array(r)),
                           st.floats(0.05, 3.0).map(lambda a: lambda t: pf.rates(t, a)))


@settings(max_examples=30, deadline=None)
@given(RATE_CALLABLES, st.one_of(st.none(), st.floats(0.0, 2.0)), packed_grids_and_steps())
def test_rate_vectors_propagate_in_real_arithmetic_bit_for_bit(rates_at, drive, grid_step):
    # without a Hamiltonian the RK4 stacks run in float64; the complex
    # matrix twin gives the same maps and segments, bit for bit
    grid, step = grid_step
    rated, twin = rate_twins(rates_at, drive)
    l_rated = gen.liouvillian(rated)(step)
    assert l_rated.dtype == (np.float64 if drive is None else np.complex128)
    assert gen.rk4_increment(l_rated, l_rated, l_rated, step).dtype == l_rated.dtype
    assert gen.liouvillian(twin)(step).dtype == np.complex128
    fam = gen.propagate(rated, grid, step)
    assert fam.maps.dtype == fam.segments.dtype == np.complex128
    assert_same_family(fam, gen.propagate(twin, grid, step))


def test_model_on_the_default_grid_propagates_its_matrix_twins_family():
    rated, twin = rate_twins(lambda t: pf.rates(t, 0.6))
    grid = pf.default_grid()
    fam = gen.propagate(rated, grid, 1e-3)
    assert fam.maps.dtype == fam.segments.dtype == np.complex128
    assert_same_family(fam, gen.propagate(twin, grid, 1e-3))


@settings(max_examples=100, deadline=None)
@given(packed_grids_and_steps())
def test_stacks_cover_each_segment_once_in_bounded_blocks(grid_step):
    grid, step = grid_step
    stacks = list(gen._stacks(grid, step))
    for stack in stacks:
        assert len({k for *_, k, _ in stack}) == 1
        assert len(stack) * stack[0][3] <= gen._STACK
    blocks = [block for stack in stacks for block in stack]
    assert all(1 <= k <= gen._BLOCK for *_, k, _ in blocks)
    # the blocks marked last cut the sequence into the grid's segments; each
    # segment's blocks run on from substep 0 without a gap or overlap and
    # cover its span in substeps of at most ``step``
    segments, current = [], []
    for block in blocks:
        current.append(block)
        if block[4]:
            segments.append(current)
            current = []
    assert not current and len(segments) == len(grid) - 1
    for segment, t0, t1 in zip(segments, grid[:-1], grid[1:]):
        h = segment[0][1]
        starts = np.cumsum([0] + [k for *_, k, _ in segment]).tolist()
        assert [block[:3] for block in segment] == [(float(t0), h, s) for s in starts[:-1]]
        assert h == float(t1 - t0) / starts[-1] <= step * (1 + 1e-12)


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
        g = gen.GeneratorSpec(2, lambda t: c)
        with pytest.raises(ValueError, match="diagonal"):
            gen.p_divisibility_check_pauli(g, np.linspace(0.0, 1.0, 3))

    def test_names_the_first_non_diagonal_time(self):
        # off-diagonal from t = 0.5 on, larger from t = 0.75 on
        def coefficients(t):
            off = 1e-3 * ((t >= 0.5) + (t >= 0.75))
            return np.array([[1.0, off, 0.0], [off, 1.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex)

        g = gen.GeneratorSpec(2, coefficients)
        with pytest.raises(ValueError, match=r"at t=0\.5 is not diagonal"):
            gen.p_divisibility_check_pauli(g, np.linspace(0.0, 1.0, 5))


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


@pytest.mark.parametrize("check, pair", [
    (gen.cp_divisibility_check, None),
    (gen.p_divisibility_check_pauli, (0, 2)),
])
def test_grid_checks_find_a_minimum_at_the_last_time(check, pair):
    # the third rate falls through zero: the last time is the worst, and the
    # pairs (0, 2) and (1, 2) tie there
    report = check(gen.qubit_rate_generator(lambda t: (1.0, 1.0, 1.0 - 2.0 * t)),
                   np.linspace(0.0, 2.0, 5))
    assert not report.satisfied
    assert report.worst_time == 2.0
    assert report.worst_value == (-3.0 if pair is None else -2.0)
    assert report.worst_pair == pair


def dipping_rates(t):
    # the third rate is negative on 1 < t < 2 only
    return (1.0, 1.0, -1.0 if 1.0 < t < 2.0 else 1.0)


CHECKS = pytest.mark.parametrize(
    "check", [gen.cp_divisibility_check, gen.p_divisibility_check_pauli],
    ids=["cp-check", "p-check"])


@CHECKS
def test_grid_checks_report_the_largest_gap(check):
    # fine near 0 only, this grid steps over the dip a uniform 51-point
    # grid finds; its resolution is the 4.999 gap, not the 0.001 one
    report = check(gen.qubit_rate_generator(dipping_rates), np.array([0.0, 0.001, 5.0]))
    assert report.satisfied
    assert report.grid_spacing == 5.0 - 0.001
    assert report.note == "verdict holds at grid resolution 4.999 only"
    assert not gen.cp_divisibility_check(gen.qubit_rate_generator(dipping_rates),
                                         np.linspace(0.0, 5.0, 51)).satisfied


@CHECKS
@pytest.mark.parametrize("rates, satisfied", [((1.0, 1.0, 1.0), True), ((1.0, 1.0, -1.5), False)],
                         ids=["satisfied", "violated"])
@pytest.mark.parametrize("grid", [[0.0, 0.001, 5.0], [1.0]], ids=["gapped", "one-time"])
def test_grid_checks_of_a_fixed_c_hold_at_every_t(check, rates, satisfied, grid):
    # C is the same at every t, and a Hamiltonian enters neither criterion:
    # the grid samples nothing, whatever its gaps
    g = gen.GeneratorSpec(2, rates, hamiltonian=lambda t: t * PAULI[3])
    report = check(g, np.array(grid))
    assert report.satisfied is satisfied
    assert report.note == "verdict holds at every t: C does not depend on t"
    assert check(gen.qubit_rate_generator(lambda t: rates), np.array(grid)).note.endswith(" only")


@CHECKS
def test_grid_checks_on_one_time_name_that_time(check):
    report = check(gen.qubit_rate_generator(dipping_rates), np.array([1.0]))
    assert report.grid_points == 1
    assert report.grid_spacing == math.inf
    assert report.note == "verdict holds at t = 1 only"


@pytest.mark.parametrize("grid, message", [
    ([], "grid is empty"),
    ([[0.0, 1.0], [2.0, 3.0]], "grid must be a 1-d array of times"),
    ([math.nan], "grid must be finite"),
    ([0.0, math.inf], "grid must be finite"),
    ([2.0, 1.0], "grid must be strictly ascending"),
    ([0.0, 0.5, 0.5], "grid must be strictly ascending"),
], ids=["empty", "2-d", "nan", "inf", "descending", "repeated"])
@pytest.mark.parametrize("check", [
    gen.cp_divisibility_check,
    gen.p_divisibility_check_pauli,
    lambda g, grid: gen.propagate(g, grid, 0.01),
], ids=["cp-check", "p-check", "propagate"])
def test_grid_taking_routines_reject_an_invalid_grid(check, grid, message):
    with pytest.raises(ValueError, match=message):
        check(gen.qubit_rate_generator((1.0, 1.0, 1.0)), np.array(grid))
