import math
import re

import numpy as np
import pytest

from divischeck import pauli_family as pf
from divischeck import superop as so
from divischeck.generator import model_generator, propagate
from divischeck.linalg import PAULI, NumericalError
from oracles import (compose, intermediate_channel, is_hermiticity_preserving,
                     is_trace_preserving, unvec)


def random_state(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_operator(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def transpose_map():
    mat = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            mat[:, j * 2 + i] = so.vec(e.T)
    return mat


MAP_TAKERS = {
    "apply": lambda m: so.apply(m, np.eye(2)),
    "tensor-first": lambda m: so.tensor(m, so.identity(2)),
    "tensor-second": lambda m: so.tensor(so.identity(2), m),
    "choi": so.choi,
    "is_cp": so.is_cp,
    "positivity_probe": lambda m: so.positivity_probe(m, restarts=1, steps=1),
    "min_output_eigenvalue": lambda m: so.min_output_eigenvalue(m, np.ones(2)),
    "intermediate-first": lambda m: so.intermediate(m, so.identity(2)),
    "intermediate-second": lambda m: so.intermediate(so.identity(2), m),
}


class TestMapShape:
    """A map is a (d^2, d^2) array; every public function that takes one
    rejects any other shape with one message."""

    @pytest.mark.parametrize("name", sorted(MAP_TAKERS))
    @pytest.mark.parametrize("shape, message", [
        ((4, 5), "superoperator on dimension 2 needs a 4 x 4 matrix, got shape (4, 5)"),
        ((3, 3), "superoperator on dimension 1 needs a 1 x 1 matrix, got shape (3, 3)"),
        ((4,), "superoperator on dimension 2 needs a 4 x 4 matrix, got shape (4,)"),
        ((0, 0), "superoperator on dimension 0 needs a 0 x 0 matrix, got shape (0, 0)"),
        ((), "superoperator on dimension 0 needs a 0 x 0 matrix, got shape ()"),
    ])
    def test_rejects_a_non_square_dimension(self, name, shape, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            MAP_TAKERS[name](np.zeros(shape, dtype=complex))

    @pytest.mark.parametrize("name", sorted(set(MAP_TAKERS) - {"apply", "choi"}))
    def test_rejects_a_stack_where_one_map_is_taken(self, name):
        message = "superoperator on dimension 2 needs a 4 x 4 matrix, got shape (2, 4, 4)"
        with pytest.raises(ValueError, match=re.escape(message)):
            MAP_TAKERS[name](np.stack([so.identity(2)] * 2))

    def test_choi_takes_a_stack(self):
        stack = np.stack([so.identity(2), pf.channel(1.0, 0.6)])
        np.testing.assert_array_equal(so.choi(stack), [so.choi(m) for m in stack])

    @pytest.mark.parametrize("lead", [(3,), (2, 3)], ids=["k", "j-k"])
    @pytest.mark.parametrize("ops", [(), (5,)], ids=["one-operator", "operator-stack"])
    def test_apply_takes_a_stack(self, lead, ops):
        rng = np.random.default_rng(5)
        maps = np.stack([pf.channel(t, 0.6) for t in rng.uniform(0.0, 3.0, math.prod(lead))])
        maps = maps.reshape(lead + (4, 4)) + 0.01j * rng.standard_normal(lead + (4, 4))
        x = rng.standard_normal(ops + (2, 2)) + 1j * rng.standard_normal(ops + (2, 2))
        got = so.apply(maps, x)
        assert got.shape == lead + x.shape
        want = np.reshape([so.apply(m, x) for m in maps.reshape(-1, 4, 4)], got.shape)
        assert np.array_equal(got, want)

    def test_intermediate_rejects_a_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
            so.intermediate(so.identity(2), so.identity(3))

    def test_maps_are_complex_arrays(self):
        for m in (so.identity(2), pf.channel(1.0, 0.6), pf.semigroup_channel(1.0, 0.6),
                  so.tensor(so.identity(2), pf.channel(1.0, 0.6)),
                  so.intermediate(pf.channel(2.0, 0.6), pf.channel(1.0, 0.6))):
            assert isinstance(m, np.ndarray) and m.dtype == complex


class TestVec:
    def test_column_stacking_roundtrip(self):
        a = np.arange(4.0).reshape(2, 2)
        v = so.vec(a)
        np.testing.assert_allclose(v, [0.0, 2.0, 1.0, 3.0])
        np.testing.assert_allclose(unvec(v, 2), a)

    def test_vec_of_product(self):
        rng = np.random.default_rng(0)
        a, x, b = (random_operator(rng, 3) for _ in range(3))
        lhs = so.vec(a @ x @ b)
        rhs = np.kron(b.T, a) @ so.vec(x)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestApply:
    def test_identity(self):
        rng = np.random.default_rng(1)
        rho = random_state(rng, 3)
        np.testing.assert_allclose(so.apply(so.identity(3), rho), rho, atol=1e-14)

    def test_model_map_is_unital(self):
        ch = pf.channel(1.3, 0.8)
        np.testing.assert_allclose(so.apply(ch, np.eye(2) / 2), np.eye(2) / 2,
                                   atol=1e-12)

    def test_model_map_contracts_transverse_bloch(self):
        # Bloch vector (1, 0, 0) picks up the transverse contraction
        ch = pf.channel(1.0, 1.0)
        rho = 0.5 * (np.eye(2) + PAULI[1])
        out = so.apply(ch, rho)
        r1 = np.real(np.trace(out @ PAULI[1]))
        assert r1 == pytest.approx(math.exp(-1.0) * math.cosh(1.0), abs=1e-12)
        assert abs(np.trace(out @ PAULI[2])) < 1e-12
        assert abs(np.trace(out @ PAULI[3])) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            so.apply(so.identity(2), np.eye(3))
        with pytest.raises(ValueError, match="dimension"):
            so.apply(so.identity(2), np.zeros((5, 3, 3)))

    def test_stack_matches_single_operators(self):
        rng = np.random.default_rng(9)
        ch = pf.channel(0.8, 0.6)
        stack = np.stack([[random_operator(rng, 2) for _ in range(3)] for _ in range(4)])
        out = so.apply(ch, stack)
        assert out.shape == (4, 3, 2, 2)
        for idx in np.ndindex(4, 3):
            np.testing.assert_allclose(out[idx], so.apply(ch, stack[idx]),
                                       rtol=0, atol=1e-13)


class TestCompose:
    def test_identity_neutral(self):
        ch = pf.channel(0.7, 0.6)
        np.testing.assert_allclose(compose(ch, so.identity(2)), ch)

    def test_pauli_channels_multiply_eigenvalues(self):
        s1 = pf.pauli_channel(0.9, 0.8, 0.7)
        s2 = pf.pauli_channel(0.5, 0.4, 0.3)
        expected = pf.pauli_channel(0.45, 0.32, 0.21)
        np.testing.assert_allclose(compose(s1, s2), expected, atol=1e-12)

    def test_intermediate_recomposes_to_closed_form(self):
        alpha = 0.75
        s_t, s_s = pf.channel(2.0, alpha), pf.channel(0.8, alpha)
        inter = so.intermediate(s_t, s_s)
        np.testing.assert_allclose(compose(inter, s_s), s_t, atol=1e-10)

    def test_apply_compose_consistency(self):
        rng = np.random.default_rng(2)
        s1, s2 = pf.channel(0.5, 0.6), pf.channel(1.5, 0.6)
        for _ in range(10):
            x = random_operator(rng, 2)
            lhs = so.apply(compose(s1, s2), x)
            rhs = so.apply(s1, so.apply(s2, x))
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestTensor:
    def test_identity(self):
        t = so.tensor(so.identity(2), so.identity(2))
        np.testing.assert_allclose(t, np.eye(16), atol=1e-14)

    def test_product_action(self):
        rng = np.random.default_rng(3)
        s1, s2 = pf.channel(0.9, 0.7), pf.channel(0.4, 1.2)
        big = so.tensor(s1, s2)
        for _ in range(10):
            rho, tau = random_state(rng, 2), random_state(rng, 2)
            lhs = so.apply(big, np.kron(rho, tau))
            rhs = np.kron(so.apply(s1, rho), so.apply(s2, tau))
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_choi_spectrum_of_tensor_is_product_multiset(self):
        alpha, t = 1.0, 0.9
        ch = pf.channel(t, alpha)
        big = so.tensor(ch, ch)
        eigs = np.sort(np.linalg.eigvalsh(so.choi(big)))
        p = pf.pauli_weights(t, alpha)
        expected = np.sort([4 * a * b for a in p for b in p])
        np.testing.assert_allclose(eigs, expected, atol=1e-10)

    def test_choi_spectrum_multiplies_for_distinct_channels(self):
        s1 = pf.channel(0.7, 0.6)
        s2 = pf.channel(1.8, 1.4)
        eigs = np.sort(np.linalg.eigvalsh(so.choi(so.tensor(s1, s2))))
        e1 = np.linalg.eigvalsh(so.choi(s1))
        e2 = np.linalg.eigvalsh(so.choi(s2))
        expected = np.sort([a * b for a in e1 for b in e2])
        np.testing.assert_allclose(eigs, expected, atol=1e-10)


class TestChoi:
    def test_identity_choi(self):
        c = so.choi(so.identity(2))
        eigs = np.sort(np.linalg.eigvalsh(c))
        np.testing.assert_allclose(eigs, [0.0, 0.0, 0.0, 2.0], atol=1e-12)
        assert np.trace(c).real == pytest.approx(2.0)

    def test_transpose_map_choi_is_swap(self):
        c = so.choi(transpose_map())
        swap = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                swap[j * 2 + i, i * 2 + j] = 1.0
        np.testing.assert_allclose(c, swap, atol=1e-14)
        assert np.linalg.eigvalsh(c)[0] == pytest.approx(-1.0)

    def test_pauli_channel_choi_spectrum(self):
        rng = np.random.default_rng(4)
        w = rng.dirichlet(np.ones(4))
        mat = sum(wi * np.kron(s.conj(), s) for wi, s in zip(w, PAULI))
        ch = mat
        eigs = np.sort(np.linalg.eigvalsh(so.choi(ch)))
        np.testing.assert_allclose(eigs, np.sort(2 * w), atol=1e-12)


class TestIsCp:
    def test_model_cp_at_unit_strength(self):
        for t in (0.0, 0.5, 1.0, 3.0):
            ok, min_eig = so.is_cp(pf.channel(t, 1.0))
            assert ok
            assert min_eig >= -1e-12

    def test_model_not_cp_below_unit_strength(self):
        ok, min_eig = so.is_cp(pf.channel(1.0, 0.75))
        assert not ok
        assert min_eig == pytest.approx(2 * pf.pauli_weights(1.0, 0.75)[3], abs=1e-12)

    def test_transpose_map_not_cp(self):
        ok, min_eig = so.is_cp(transpose_map())
        assert not ok
        assert min_eig == pytest.approx(-1.0, abs=1e-12)

    def test_min_choi_eig_tracks_p3_on_grid(self):
        alpha = 0.8
        times = np.linspace(0.0, 5.0, 26)
        for t, p3 in zip(times, pf.pauli_weights(times, alpha)[:, 3]):
            _, min_eig = so.is_cp(pf.channel(float(t), alpha))
            assert min_eig == pytest.approx(2 * p3, abs=1e-10)


class TestFlags:
    def test_model_maps_preserve_trace_and_hermiticity(self):
        ch = pf.channel(1.7, 0.65)
        assert is_trace_preserving(ch, tol=1e-10)
        assert is_hermiticity_preserving(ch, tol=1e-10)

    def test_tensor_preserves_flags(self):
        big = so.tensor(pf.channel(0.9, 0.6), pf.channel(0.9, 0.6))
        assert is_trace_preserving(big, tol=1e-9)

    def test_scaled_identity_not_trace_preserving(self):
        doubled = 2 * so.identity(2)
        assert is_trace_preserving(doubled) is False
        assert is_hermiticity_preserving(doubled) is True

    def test_imaginary_identity_not_hermiticity_preserving(self):
        rotated = 1j * so.identity(2)
        assert is_hermiticity_preserving(rotated) is False


class TestPositivityProbe:
    def test_identity_clean(self):
        result = so.positivity_probe(so.identity(2), restarts=10, steps=200, seed=0)
        assert result.min_value >= -1e-9
        assert result.min_value >= -1e-12

    def test_tensor_square_of_model_positive(self):
        ch = pf.channel(1.0, 0.6)
        big = so.tensor(ch, ch)
        result = so.positivity_probe(big, restarts=25, steps=400, seed=1)
        assert result.min_value >= -1e-9

    def test_finds_tensor_intermediate_violation(self):
        inter = intermediate_channel(1.2, 1.0, 0.6)
        big = so.tensor(inter, inter)
        result = so.positivity_probe(big, restarts=40, steps=400, seed=2)
        assert result.min_value < -1e-6
        assert result.min_value < -1e-3
        again = so.min_output_eigenvalue(big, result.argmin_state)
        assert again == pytest.approx(result.min_value, abs=1e-10)

    @pytest.mark.parametrize("stop_at", [None, -1e-6])
    def test_restarts_used_is_the_batch(self, stop_at):
        inter = intermediate_channel(1.2, 1.0, 0.6)
        big = so.tensor(inter, inter)
        result = so.positivity_probe(big, restarts=50, steps=400, seed=3, stop_at=stop_at)
        assert result.restarts_used == 50
        assert result.min_value < -1e-6

    @pytest.mark.parametrize("case", ["intermediate", "model-segment"])
    def test_an_early_stop_is_the_run_capped_where_it_stopped(self, case):
        # the early stop reports its whole batch's lowest restart: exactly what
        # the same call without stop_at gives when capped at the stopping sweep
        if case == "intermediate":
            inter = intermediate_channel(1.2, 1.0, 0.6)
            big, restarts, seed, stop_at = so.tensor(inter, inter), 200, 3, -1e-6
        else:
            # the last segment [4.975, 5.0] of the alpha = 0.6 model run, searched
            # with the seed ``divisibility --seed 1`` gives it; its batch holds a
            # restart below the first one in draw order that falls below -tol
            grid = pf.default_grid(5.0, 200)
            seg = propagate(model_generator(0.6), grid, 1e-3).segments[-1]
            i = len(grid) - 2
            big, restarts, stop_at = so.tensor(seg, seg), 100, -1e-9
            seed = np.random.SeedSequence([1, i, i + 1]).generate_state(1)[0]
        early = so.positivity_probe(big, restarts=restarts, steps=400, seed=seed,
                                    stop_at=stop_at)
        assert early.min_value < stop_at and early.restarts_used == restarts
        for steps in range(1, 401):
            capped = so.positivity_probe(big, restarts=restarts, steps=steps, seed=seed)
            if capped.min_value < stop_at:
                break
        assert capped.min_value == early.min_value
        assert np.array_equal(capped.argmin_state, early.argmin_state)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_rejects_a_non_finite_map(self, bad):
        big = so.tensor(so.identity(2), so.identity(2))
        big[3, 5] = bad
        with pytest.raises(ValueError, match="^map has non-finite entries$"):
            so.positivity_probe(big, restarts=2, steps=2)

    @pytest.mark.parametrize("steps", [0, -1])
    def test_rejects_nonpositive_steps(self, steps):
        big = so.tensor(so.identity(2), so.identity(2))
        with pytest.raises(ValueError, match="steps must be >= 1"):
            so.positivity_probe(big, restarts=2, steps=steps)

    @pytest.mark.parametrize("seed", range(20))
    def test_value_never_rises_with_more_steps(self, seed):
        inter = intermediate_channel(1.2, 1.0, 0.6)
        big = so.tensor(inter, inter)
        values = [so.positivity_probe(big, restarts=1, steps=k, seed=seed).min_value
                  for k in range(1, 11)]
        assert all(later <= earlier for earlier, later in zip(values, values[1:]))
        assert values[-1] < values[0]

    def test_deterministic_given_seed(self):
        ch = pf.channel(0.8, 0.55)
        big = so.tensor(ch, ch)
        r1 = so.positivity_probe(big, restarts=5, steps=100, seed=7)
        r2 = so.positivity_probe(big, restarts=5, steps=100, seed=7)
        assert r1.min_value == r2.min_value
        np.testing.assert_array_equal(r1.argmin_state, r2.argmin_state)

    def test_cp_implies_no_violation_across_grid(self):
        alpha = 1.25
        for t in (0.5, 1.5, 3.0):
            ch = pf.channel(t, alpha)
            ok, _ = so.is_cp(ch)
            assert ok
            result = so.positivity_probe(ch, restarts=10, steps=200, seed=8)
            assert result.min_value >= -1e-9


class TestMinOutputEigenvalue:
    MESSAGE = "^the map must be finite, and the state vector's norm finite and nonzero$"

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_a_non_finite_map(self, bad):
        s = so.identity(2)
        s[1, 2] = bad
        with pytest.raises(ValueError, match=self.MESSAGE):
            so.min_output_eigenvalue(s, np.array([1.0, 0.0]))

    # a nonzero psi whose norm underflows to 0 cannot be normalized either,
    # nor a finite psi whose norm overflows, which must raise no warning
    @pytest.mark.parametrize("psi", [[0.0, 0.0], [math.nan, 1.0], [1.0, math.inf],
                                     [1e-200, 0.0], [1e200, 1e200]],
                             ids=["zero", "nan", "inf", "underflow", "overflow"])
    def test_rejects_a_state_without_a_finite_nonzero_norm(self, psi):
        with pytest.raises(ValueError, match=self.MESSAGE):
            so.min_output_eigenvalue(so.identity(2), np.array(psi))


class TestIntermediate:
    def test_self_intermediate_is_identity(self):
        ch = pf.channel(1.1, 0.7)
        inter = so.intermediate(ch, ch)
        np.testing.assert_allclose(inter, np.eye(4), atol=1e-10)

    def test_intermediate_from_origin_is_the_map(self):
        ch_t, ch_0 = pf.channel(1.4, 0.7), pf.channel(0.0, 0.7)
        inter = so.intermediate(ch_t, ch_0)
        np.testing.assert_allclose(inter, ch_t, atol=1e-12)

    def test_matches_closed_form_ratios(self):
        alpha, s, t = 0.6, 0.9, 2.2
        inter = so.intermediate(pf.channel(t, alpha), pf.channel(s, alpha))
        np.testing.assert_allclose(inter,
                                   intermediate_channel(t, s, alpha),
                                   atol=1e-10)

    def test_rejects_singular(self):
        bad = np.diag([1.0, 1.0, 1.0, 1e-13]).astype(complex)
        with pytest.raises(NumericalError):
            so.intermediate(so.identity(2), bad)
