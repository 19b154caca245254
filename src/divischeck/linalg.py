"""Dense complex linear algebra primitives.

Everything operates on plain numpy ``complex128`` arrays.  Validation is
strict: routines that assume Hermiticity or invertibility check those
properties and raise instead of returning garbage, and factorization-style
results are verified against explicit residual bounds.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "PAULI",
    "NumericalError",
    "check_grid",
    "check_hermitian",
    "inverse",
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


def check_hermitian(a, rtol: float = HERMITICITY_RTOL) -> np.ndarray:
    """Validate Hermiticity within ``rtol`` (relative to max entry size).

    Non-finite entries are rejected.  Returns the exactly Hermitian part
    (a + a†)/2 for downstream use so callers never propagate the asymmetric
    rounding noise.  The scale max(1, max |a_ij|) is computed only when the
    asymmetry exceeds ``rtol``, since below that it cannot exceed
    ``rtol * scale``.
    """
    a = _as_matrix(a)
    _require_square(a)
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    adj = a.conj().T
    asym = float(np.abs(a - adj).max(initial=0.0))
    if asym > rtol:
        scale = max(1.0, float(np.abs(a).max()))
        if asym > rtol * scale:
            raise ValueError(
                f"matrix is not Hermitian: max asymmetry {asym:.3e} exceeds "
                f"{rtol:.1e} * {scale:.3e}"
            )
    return 0.5 * (a + adj)


def check_grid(grid) -> np.ndarray:
    """The time grid as a float array, checked to be 1-d, nonempty, finite and strictly ascending."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1:
        raise ValueError("grid must be a 1-d array of times")
    if grid.size == 0:
        raise ValueError("grid is empty")
    if not np.all(np.isfinite(grid)):
        raise ValueError("grid must be finite")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly ascending")
    return grid


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


def _scale(m: np.ndarray) -> float:
    return max(1.0, float(np.linalg.norm(m)))


def _well_conditioned(a: np.ndarray) -> bool:
    cond = float(np.linalg.cond(a))
    return np.isfinite(cond) and cond <= CONDITION_LIMIT


def _eigenvector_similarity(m: np.ndarray):
    """(U, U^-1) from the eigendecomposition of m, or None.

    If m = V D V^-1 then transpose-inverse(V) diagonalizes m.T with the same
    eigenvalue ordering, which collapses to U = inv(V V^T).  None when V V^T
    is numerically singular, as it is for a defective m.
    """
    _, v = np.linalg.eig(m)
    u_inv = v @ v.T
    if not _well_conditioned(u_inv):
        return None
    return np.linalg.inv(u_inv), u_inv


def _null_space_similarity(m: np.ndarray):
    """(U, U^-1) from the solutions of m.T U = U m, or None.

    Under column stacking the solutions are the null space of
    kron(I, m.T) - kron(m.T, I), which has dimension at least n for every
    n x n matrix.  The sum of its orthonormal basis is the candidate U; None
    when that sum is numerically singular.
    """
    eye = np.eye(m.shape[0])
    _, sv, vh = np.linalg.svd(np.kron(eye, m.T) - np.kron(m.T, eye))
    null = vh[sv <= RESIDUAL_TOL * _scale(m)].conj()
    u = null.sum(axis=0).reshape(m.shape, order="F")
    if not _well_conditioned(u):
        return None
    return u, np.linalg.inv(u)


def similarity_to_transpose(m) -> np.ndarray:
    """Invertible U with ``m.T = U @ m @ inv(U)``.

    The eigendecomposition gives U for diagonalizable m.  Where it fails, as
    for a defective m such as a Jordan block, U is solved for exactly from
    the linear equation m.T U = U m.  The returned U always satisfies
    ``||m.T - U m U^-1||_F <= RESIDUAL_TOL * max(1, ||m||_F)`` and has
    condition number at most ``CONDITION_LIMIT``.
    """
    m = _as_matrix(m)
    _require_square(m)
    scale = _scale(m)
    best = np.inf
    for solve in (_eigenvector_similarity, _null_space_similarity):
        candidate = solve(m)
        if candidate is None:
            continue
        u, u_inv = candidate
        residual = float(np.linalg.norm(m.T - u @ m @ u_inv))
        if residual <= RESIDUAL_TOL * scale:
            return u
        best = min(best, residual)
    raise NumericalError(
        "no transpose similarity found within residual "
        f"{RESIDUAL_TOL:.1e} * {scale:.3e}: best residual {best:.3e}"
    )
