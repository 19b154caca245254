"""Closed forms, defining constructions and exact map checks that tests
compare the package against.  Nothing under ``src/`` uses them.
"""
import math

import numpy as np

from divischeck import pauli_family as pf
from divischeck.infoflow import EIGEN_FLOOR
from divischeck.linalg import PAULI
from divischeck.superop import Superoperator, apply, choi, unvec, vec


def generator_eigenvalues(t: float, alpha: float) -> tuple[float, float, float, float]:
    """Eigenvalues of the model generator on (identity, sigma_1, sigma_2, sigma_3).

    The identity eigenvalue is 0 (trace preservation); the transverse pair
    is a (tanh t - 1) and the longitudinal one is -2a.
    """
    pf._validate(t, alpha)
    transverse = alpha * (math.tanh(t) - 1.0)
    return (0.0, transverse, transverse, -2.0 * alpha)


def intermediate_channel(t: float, s: float, alpha: float) -> Superoperator:
    """Two-time propagator of the model family from s to t, t >= s >= 0.

    A Pauli channel with eigenvalue ratios l_k(t)/l_k(s); the ratios lie in
    (0, 1] because every l_k is positive and non-increasing.
    """
    if t < s:
        raise ValueError(f"need t >= s, got t={t}, s={s}")
    lt = pf.bloch_eigenvalues(t, alpha)
    ls = pf.bloch_eigenvalues(s, alpha)
    return pf.pauli_channel(lt.l1 / ls.l1, lt.l2 / ls.l2, lt.l3 / ls.l3)


def loop_pauli_channel(l1: float, l2: float, l3: float) -> np.ndarray:
    """Matrix of the unital qubit channel with Bloch eigenvalues (l1, l2, l3),
    summed Pauli by Pauli with each outer product built in place."""
    mat = np.zeros((4, 4), dtype=complex)
    for lam, sigma in zip((1.0, l1, l2, l3), PAULI):
        v = vec(sigma)
        mat += 0.5 * lam * np.outer(v, v.conj())
    return mat


def apply_single(s: Superoperator, x) -> np.ndarray:
    """The map applied to one dim x dim operator as a matrix-vector product,
    unvec(S vec(X))."""
    return unvec(s.mat @ vec(x), s.dim)


def compose(s1: Superoperator, s2: Superoperator) -> Superoperator:
    """The map s1 after s2."""
    if s1.dim != s2.dim:
        raise ValueError(f"dimension mismatch: {s1.dim} vs {s2.dim}")
    return Superoperator(s1.dim, s1.mat @ s2.mat)


def is_trace_preserving(s: Superoperator, tol: float = 1e-10) -> bool:
    """Exact check vec(I)^dagger S = vec(I)^dagger, entrywise within tol."""
    row = vec(np.eye(s.dim))
    return bool(np.max(np.abs(row @ s.mat - row)) <= tol)


def max_asymmetry(a) -> float:
    """Largest entrywise deviation of a square matrix from its adjoint."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - a.conj().T)))


def is_hermiticity_preserving(s: Superoperator, tol: float = 1e-10) -> bool:
    """Exact check that the Choi matrix is Hermitian, entrywise within tol."""
    return max_asymmetry(choi(s)) <= tol


def trace_norms(x: np.ndarray) -> np.ndarray:
    """Trace norms of a stack of near-Hermitian matrices: one batched
    ``eigvalsh`` of their Hermitian parts, eigenvalues below EIGEN_FLOOR
    counted as zeros."""
    w = np.linalg.eigvalsh(0.5 * (x + x.conj().swapaxes(-1, -2)))
    w[np.abs(w) < EIGEN_FLOOR] = 0.0
    return np.abs(w).sum(axis=-1)


def flow_column(map_at, deltas: np.ndarray, t: float, h: float) -> np.ndarray:
    """Finite-difference flow rates at time t for a stack of pair differences,
    with every trace norm from :func:`trace_norms` (one-sided for t < h)."""
    if t < h:
        t_lo, t_hi, denom = t, t + h, h
    else:
        t_lo, t_hi, denom = t - h, t + h, 2.0 * h
    out = np.stack([apply(map_at(t_lo), deltas), apply(map_at(t_hi), deltas)])
    n_lo, n_hi = trace_norms(out)
    return (n_hi - n_lo) / denom
