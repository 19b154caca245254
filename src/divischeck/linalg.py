"""Dense complex linear algebra primitives.

Everything operates on plain numpy ``complex128`` arrays.  Validation is
strict: routines that assume Hermiticity or invertibility check those
properties and raise instead of returning garbage, and factorization-style
results are verified against explicit residual bounds.
"""
from __future__ import annotations

import warnings

import numpy as np

__all__ = [
    "PAULI",
    "NumericalError",
    "check_hermitian",
    "inverse",
    "max_asymmetry",
    "similarity_to_transpose",
]

#: Pauli matrices, identity first.
PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

HERMITICITY_RTOL = 1e-12
RESIDUAL_TOL = 1e-8
CONDITION_LIMIT = 1e12


class NumericalError(ArithmeticError):
    """A residual or conditioning contract could not be met."""


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {a.shape}")
    return a


def _require_square(a: np.ndarray) -> None:
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")


def max_asymmetry(a) -> float:
    """Largest entrywise deviation of a square matrix from its adjoint."""
    a = _as_matrix(a)
    _require_square(a)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - a.conj().T)))


def check_hermitian(a, rtol: float = HERMITICITY_RTOL) -> np.ndarray:
    """Validate Hermiticity within ``rtol`` (relative to max entry size).

    Returns the exactly Hermitian part (a + a†)/2 for downstream use so
    callers never propagate the asymmetric rounding noise.
    """
    a = _as_matrix(a)
    _require_square(a)
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    asym = max_asymmetry(a)
    if asym > rtol * scale:
        raise ValueError(
            f"matrix is not Hermitian: max asymmetry {asym:.3e} exceeds "
            f"{rtol:.1e} * {scale:.3e}"
        )
    return 0.5 * (a + a.conj().T)


def inverse(a) -> np.ndarray:
    """Matrix inverse gated on conditioning and verified by residual.

    Raises :class:`NumericalError` when the condition estimate exceeds
    ``CONDITION_LIMIT`` or when ``||A A^-1 - I||_F`` ends up above 1e-8.
    """
    a = _as_matrix(a)
    _require_square(a)
    cond = float(np.linalg.cond(a))
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise NumericalError(
            f"matrix is singular or ill-conditioned: cond estimate {cond:.3e} "
            f"exceeds {CONDITION_LIMIT:.1e}"
        )
    inv = np.linalg.inv(a)
    residual = float(np.linalg.norm(a @ inv - np.eye(a.shape[0])))
    if residual > RESIDUAL_TOL:
        raise NumericalError(
            f"inverse residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e} "
            f"(cond estimate {cond:.3e})"
        )
    return inv


def _transpose_similarity_candidate(m: np.ndarray):
    """One shot at U with m.T = U m U^-1 via the eigendecomposition of m.

    If m = V D V^-1 then transpose-inverse(V) diagonalizes m.T with the same
    eigenvalue ordering, which collapses to U = inv(V V^T).  Returns
    (U, residual) or (None, inf) when V V^T is numerically singular.
    """
    w, v = np.linalg.eig(m)
    u_inv = v @ v.T
    cond = float(np.linalg.cond(u_inv))
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        return None, np.inf
    u = np.linalg.inv(u_inv)
    residual = float(np.linalg.norm(m.T - u @ m @ u_inv))
    return u, residual


def _min_eigenvalue_separation(m: np.ndarray) -> float:
    w = np.linalg.eigvals(m)
    if len(w) < 2:
        return np.inf
    diffs = np.abs(w[:, None] - w[None, :])
    diffs[np.diag_indices_from(diffs)] = np.inf
    return float(np.min(diffs))


def similarity_to_transpose(m) -> np.ndarray:
    """Invertible U with ``m.T = U @ m @ inv(U)``.

    The primary path needs m to be diagonalizable with reasonably separated
    eigenvalues; near-defective input is perturbed once by seeded noise at
    1e-10 scale (reported through a warning) before giving up.  The returned
    U always satisfies ``||m.T - U m U^-1||_F <= RESIDUAL_TOL * max(1, ||m||_F)``.
    """
    m = _as_matrix(m)
    _require_square(m)
    scale = max(1.0, float(np.linalg.norm(m)))
    u, residual = _transpose_similarity_candidate(m)
    if u is not None and residual <= RESIDUAL_TOL * scale:
        return u

    amp = 1e-10 * max(1.0, float(np.max(np.abs(m))) if m.size else 0.0)
    rng = np.random.default_rng(7)    # fixed seed: the retry is deterministic
    noise = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
    warnings.warn(
        "transpose-similarity construction hit a near-defective matrix; "
        f"retrying once with a seeded perturbation of scale {amp:.1e}",
        stacklevel=2,
    )
    u2, _ = _transpose_similarity_candidate(m + amp * noise)
    if u2 is not None:
        residual2 = float(np.linalg.norm(m.T - u2 @ m @ np.linalg.inv(u2)))
        if residual2 <= RESIDUAL_TOL * scale:
            return u2

    sep = _min_eigenvalue_separation(m)
    raise NumericalError(
        "no transpose similarity found within residual "
        f"{RESIDUAL_TOL:.1e} * {scale:.3e}: best residual {residual:.3e}, "
        f"eigenvalue separation {sep:.3e}"
    )
