import numpy as np
import pytest

from divischeck.linalg import (
    PAULI,
    NumericalError,
    check_hermitian,
    inverse,
    max_asymmetry,
    similarity_to_transpose,
)


class TestCheckHermitian:
    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            check_hermitian(np.ones((2, 3)))

    def test_rejects_nonhermitian_with_diagnostic(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="asymmetry"):
            check_hermitian(bad)
        assert max_asymmetry(bad) == 1.0


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


class TestSimilarityToTranspose:
    def residual(self, m, u):
        return np.linalg.norm(m.T - u @ m @ np.linalg.inv(u))

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
            m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            u = similarity_to_transpose(m)
            assert self.residual(m, u) <= 1e-8 * max(1.0, np.linalg.norm(m))

    def test_traceless_witness_style_input(self):
        # the shape that the witness construction feeds in: sums of weighted
        # orthonormal traceless operators
        rng = np.random.default_rng(12)
        for _ in range(10):
            coeff = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            m = sum(c * s / np.sqrt(2) for c, s in zip(coeff, PAULI[1:]))
            u = similarity_to_transpose(m)
            assert self.residual(m, u) <= 1e-8 * max(1.0, np.linalg.norm(m))
