import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divischeck.linalg import (
    PAULI,
    NumericalError,
    check_hermitian,
    inverse,
    similarity_to_transpose,
)
from oracles import max_asymmetry


@st.composite
def perturbed_stacks(draw):
    """(rtol, stack): a (k, n, n) or (j, k, n, n) stack of Hermitian matrices,
    n in 1-4, one of them scaled to entries near 1e3, and some pushed to an
    asymmetry just below or just above their own bound rtol * max(1, max |a|)."""
    n = draw(st.integers(1, 4))
    lead = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    rtol = draw(st.sampled_from([1e-12, 1e-10]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((*lead, n, n)) + 1j * rng.standard_normal((*lead, n, n))
    stack = 0.5 * (x + x.conj().swapaxes(-1, -2))    # exactly Hermitian
    ks = list(np.ndindex(*lead))
    stack[draw(st.sampled_from(ks))] *= 1e3
    for k in ks:
        factor = draw(st.sampled_from([None, 0.9, 1.1]))
        if factor is None:
            continue
        bound = rtol * max(1.0, np.abs(stack[k]).max())
        p, q = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        # off the diagonal d adds d to the asymmetry, on it i d adds 2 d
        stack[k][p, q] += factor * bound if p != q else 0.5j * factor * bound
    return rtol, stack


class TestCheckHermitian:
    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            check_hermitian(np.ones((2, 3)))

    @pytest.mark.parametrize("shape", [(), (3,), (2, 2, 3), (3, 2, 2, 1)])
    def test_rejects_a_stack_that_is_not_square(self, shape):
        with pytest.raises(ValueError, match=rf"^expected a square matrix or a stack of them, "
                                             rf"got shape {re.escape(str(shape))}$"):
            check_hermitian(np.zeros(shape))

    @settings(max_examples=300, deadline=None)
    @given(perturbed_stacks())
    def test_a_stack_is_checked_matrix_by_matrix(self, rtol_stack):
        # each matrix against its own scale: the stack's result is the stack of
        # the single results, and its error the first single error, indexed
        rtol, stack = rtol_stack
        singles, first = [], None
        for k in np.ndindex(*stack.shape[:-2]):
            try:
                singles.append(check_hermitian(stack[k], rtol))
            except ValueError as err:
                first = first or str(err).replace("matrix", f"matrix {list(k)}", 1)
        if first is None:
            assert np.array_equal(check_hermitian(stack, rtol),
                                  np.reshape(singles, stack.shape))
        else:
            with pytest.raises(ValueError) as err:
                check_hermitian(stack, rtol)
            assert str(err.value) == first

    def test_rejects_nonhermitian_with_diagnostic(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="asymmetry"):
            check_hermitian(bad)
        assert max_asymmetry(bad) == 1.0

    @pytest.mark.parametrize("bad", [
        [[np.nan, 0.0], [0.0, 1.0]],
        [[np.inf, 0.0], [0.0, 1.0]],
        [[1.0, np.nan], [0.0, 1.0]],
        [[1.0, np.inf], [0.0, 1.0]],
        [[-np.inf, 0.0], [0.0, 1.0]],
        [[complex(1.0, np.inf), 0.0], [0.0, 1.0]],
        [[1.0, complex(0.0, np.nan)], [0.0, 1.0]],
    ], ids=["nan", "inf", "offdiagonal-nan", "one-corner-inf", "diagonal-minus-inf",
            "diagonal-imaginary-inf", "offdiagonal-imaginary-nan"])
    def test_rejects_nonfinite(self, bad):
        # the asymmetry is read first: each placement must make it inf or
        # NaN, so that the finiteness pass runs before any "not Hermitian"
        with pytest.raises(ValueError, match="non-finite"):
            check_hermitian(bad)

    def test_asymmetry_is_relative_to_max_entry(self):
        # asymmetry above rtol = 1e-12 but within rtol * 100 passes
        ok = np.array([[100.0, 5e-11], [0.0, 1.0]])
        np.testing.assert_array_equal(check_hermitian(ok), 0.5 * (ok + ok.conj().T))
        bad = np.array([[100.0, 2e-10], [0.0, 1.0]])
        msg = "matrix is not Hermitian: max asymmetry 2.000e-10 exceeds 1.0e-12 * 1.000e+02"
        with pytest.raises(ValueError) as err:
            check_hermitian(bad)
        assert str(err.value) == msg


@pytest.mark.parametrize("k", range(4))
def test_pauli_matrices_are_read_only(k):
    # every module shares them: an edit would change every later pair library
    # and witness
    with pytest.raises(ValueError, match="read-only"):
        PAULI[k][0, 0] = 2.0
    assert PAULI[k][0, 0] == (0.0 if k in (1, 2) else 1.0)


class TestInverse:
    def test_identity(self):
        np.testing.assert_allclose(inverse(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(inverse(np.diag([2.0, 4.0])),
                                   np.diag([0.5, 0.25]))

    def test_random_residual(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) + 4 * np.eye(4)
        inv = inverse(a)
        assert np.linalg.norm(a @ inv - np.eye(4)) <= 1e-10

    def test_rejects_singular(self):
        with pytest.raises(NumericalError, match="cond"):
            inverse(np.diag([1.0, 0.0]))

    def test_rejects_ill_conditioned(self):
        with pytest.raises(NumericalError):
            inverse(np.diag([1.0, 1e-13]))

    @pytest.mark.parametrize("shape", [(2,), (2, 3), (2, 2, 2)])
    def test_rejects_a_non_square_matrix(self, shape):
        with pytest.raises(ValueError, match=rf"^expected a square matrix, got shape "
                                             rf"{re.escape(str(shape))}$"):
            inverse(np.ones(shape))


PAULI_COEFFS = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


def coefficient_vectors():
    """Complex a for m = c I + a.sigma: generic draws and the structured
    ones where Re a and Im a are parallel or a vanishes."""
    real = st.lists(PAULI_COEFFS, min_size=3, max_size=3).map(np.array)
    phase = st.floats(0.0, 2.0 * np.pi)
    return st.one_of(
        st.tuples(real, real).map(lambda ri: ri[0] + 1j * ri[1]),
        real.map(lambda r: r + 0j),
        st.tuples(phase, real).map(lambda pr: np.exp(1j * pr[0]) * pr[1]),
        st.tuples(PAULI_COEFFS, PAULI_COEFFS).map(
            lambda xy: np.array([0.0, xy[0] + 1j * xy[1], 0.0])),
        st.just(np.array([0.5, 0.5j, 0.0])),     # sigma_+
        st.just(np.zeros(3, dtype=complex)),
    )


class TestSimilarityToTranspose:
    def residual(self, m, u):
        return np.linalg.norm(m.T - u @ m @ np.linalg.inv(u))

    @settings(max_examples=300, deadline=None)
    @given(coefficient_vectors(), PAULI_COEFFS, PAULI_COEFFS)
    def test_unitary_closed_form(self, a, c_re, c_im):
        m = (c_re + 1j * c_im) * PAULI[0] + sum(x * s for x, s in zip(a, PAULI[1:]))
        u = similarity_to_transpose(m)
        assert np.linalg.norm(u @ u.conj().T - np.eye(2)) <= 1e-12
        assert self.residual(m, u) <= 1e-8 * max(1.0, np.linalg.norm(m))
        if np.array_equal(m, m.T):
            np.testing.assert_array_equal(u, np.eye(2))

    def test_symmetric_input_gives_identity_class(self):
        m = np.array([[1.0, 2.0], [2.0, -1.0]], dtype=complex)
        u = similarity_to_transpose(m)
        assert self.residual(m, u) <= 1e-8 * max(1.0, np.linalg.norm(m))

    def test_pauli_y(self):
        m = PAULI[2]
        u = similarity_to_transpose(m)
        assert self.residual(m, u) <= 1e-8

    def test_random_diagonalizable(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            u = similarity_to_transpose(m)
            assert self.residual(m, u) <= 1e-8 * max(1.0, np.linalg.norm(m))

    @pytest.mark.parametrize("m", [
        np.array([[0.0, 1.0], [0.0, 0.0]]),
        np.array([[2.0 - 1.0j, 1.0], [0.0, 2.0 - 1.0j]]),
    ], ids=["nilpotent-2", "jordan-2"])
    def test_defective(self, m):
        # no eigenbasis exists; the closed form needs none
        u = similarity_to_transpose(m)
        assert self.residual(m, u) <= 1e-8 * max(1.0, np.linalg.norm(m))
        assert np.linalg.cond(u) <= 1e12

    @pytest.mark.parametrize("x", [2.04129716e-200, 1e-170, 5e-324])
    def test_tiny_antisymmetric_part(self, x):
        # |a| squared underflows, so both norms of Re a and Im a read 0; the
        # nonzero part must still be the one normalized
        m = np.array([[0.0, x], [-x, 0.0]], dtype=complex)
        u = similarity_to_transpose(m)
        assert np.linalg.norm(u @ u.conj().T - np.eye(2)) <= 1e-12
        assert self.residual(m, u) <= 1e-8

    def test_rejects_non_2x2(self):
        m = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
        for bad in (m, np.ones(4), np.ones((1, 2, 2))):
            with pytest.raises(ValueError, match="2x2"):
                similarity_to_transpose(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            similarity_to_transpose(np.array([[0.0, bad], [1.0, 0.0]]))

    def test_traceless_witness_style_input(self):
        # the shape that the witness construction feeds in: sums of weighted
        # orthonormal traceless operators
        rng = np.random.default_rng(12)
        for _ in range(10):
            coeff = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            m = sum(c * s / np.sqrt(2) for c, s in zip(coeff, PAULI[1:]))
            u = similarity_to_transpose(m)
            assert self.residual(m, u) <= 1e-8 * max(1.0, np.linalg.norm(m))
