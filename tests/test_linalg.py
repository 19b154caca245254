import math

import numpy as np
import pytest

from divischeck.linalg import (
    PAULI,
    NumericalError,
    hermitian_eig,
    inverse,
    max_asymmetry,
    similarity_to_transpose,
    trace_norm,
)


def random_hermitian(rng, n):
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return b + b.conj().T


def cubic_hermitian_eigenvalues(a):
    """Closed-form roots of the characteristic cubic of a 3x3 Hermitian
    matrix (trigonometric method).  Independent of any eigensolver."""
    a = np.asarray(a, dtype=complex)
    q = np.trace(a).real / 3.0
    p1 = abs(a[0, 1]) ** 2 + abs(a[0, 2]) ** 2 + abs(a[1, 2]) ** 2
    if p1 == 0:
        return np.sort(np.diag(a).real)
    p2 = sum((a[i, i].real - q) ** 2 for i in range(3)) + 2 * p1
    p = math.sqrt(p2 / 6.0)
    b = (a - q * np.eye(3)) / p
    det_b = (
        b[0, 0] * (b[1, 1] * b[2, 2] - b[1, 2] * b[2, 1])
        - b[0, 1] * (b[1, 0] * b[2, 2] - b[1, 2] * b[2, 0])
        + b[0, 2] * (b[1, 0] * b[2, 1] - b[1, 1] * b[2, 0])
    )
    r = max(-1.0, min(1.0, det_b.real / 2.0))
    phi = math.acos(r) / 3.0
    eig1 = q + 2 * p * math.cos(phi)
    eig3 = q + 2 * p * math.cos(phi + 2 * math.pi / 3.0)
    eig2 = 3 * q - eig1 - eig3
    return np.sort([eig1, eig2, eig3])


class TestHermitianEig:
    def test_pauli_z_spectrum(self):
        w, _ = hermitian_eig(PAULI[3])
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)

    def test_identity_spectrum(self):
        w, _ = hermitian_eig(np.eye(4))
        np.testing.assert_allclose(w, np.ones(4), atol=1e-14)

    def test_matches_characteristic_cubic(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            h = random_hermitian(rng, 3)
            w, _ = hermitian_eig(h)
            np.testing.assert_allclose(w, cubic_hermitian_eigenvalues(h), atol=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_reconstruction_and_orthonormality(self, n):
        rng = np.random.default_rng(7 + n)
        for _ in range(10):
            h = random_hermitian(rng, n)
            w, v = hermitian_eig(h)
            scale = np.linalg.norm(h)
            assert np.linalg.norm((v * w) @ v.conj().T - h) <= 1e-9 * scale
            assert np.linalg.norm(v.conj().T @ v - np.eye(n)) <= 1e-10
            for k in range(n):
                assert np.linalg.norm(h @ v[:, k] - w[k] * v[:, k]) <= 1e-10 * scale

    def test_eigenvalues_ascending(self):
        rng = np.random.default_rng(3)
        w, _ = hermitian_eig(random_hermitian(rng, 5))
        assert np.all(np.diff(w) >= 0)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            hermitian_eig(np.ones((2, 3)))

    def test_rejects_nonhermitian_with_diagnostic(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="asymmetry"):
            hermitian_eig(bad)
        assert max_asymmetry(bad) == 1.0


class TestTraceNorm:
    def test_pauli_z(self):
        assert trace_norm(PAULI[3]) == pytest.approx(2.0, abs=1e-14)

    def test_density_matrices_have_unit_norm(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            rho = b @ b.conj().T
            rho /= np.trace(rho).real
            assert trace_norm(rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_projector_difference(self):
        diff = np.diag([1.0, -1.0]).astype(complex)
        assert trace_norm(diff) == pytest.approx(2.0, abs=1e-14)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            u, _ = np.linalg.qr(rng.standard_normal((4, 4))
                                + 1j * rng.standard_normal((4, 4)))
            v, _ = np.linalg.qr(rng.standard_normal((4, 4))
                                + 1j * rng.standard_normal((4, 4)))
            assert trace_norm(u @ a @ v) == pytest.approx(trace_norm(a), rel=1e-10)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = random_hermitian(rng, 4)
            b = random_hermitian(rng, 4)
            assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-10

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            trace_norm(np.ones((2, 3)))


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
