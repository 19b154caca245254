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
    "hermitian_faults",
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
PARALLEL_TOL = 1e-12


class NumericalError(ArithmeticError):
    """A residual or conditioning contract could not be met."""


def hermitian_faults(a: np.ndarray, adj: np.ndarray, rtol: float) -> np.ndarray | None:
    """Which matrices of a finite stack ``a`` (..., n, n), with adjoint
    ``adj``, are not Hermitian: a mask, True where the asymmetry
    max |a_k - a_k†| exceeds ``rtol * max(1, max |a_k|)``, its own scale.
    Below ``rtol`` no matrix can fail, so a stack whose largest asymmetry is
    within it gives None before any per-matrix scale is taken.
    """
    asym = np.abs(a - adj)
    if asym.max(initial=0.0) <= rtol:
        return None
    return asym.max(axis=(-2, -1)) > rtol * np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))


def check_hermitian(a, rtol: float = HERMITICITY_RTOL) -> np.ndarray:
    """Validate Hermiticity of a matrix or of each matrix in a stack (..., n, n).

    Matrix k fails by ``hermitian_faults``, and the error names the first
    failing matrix in C order; non-finite entries are rejected first.  Returns
    the exactly Hermitian part (a + a†)/2, so callers never propagate the
    asymmetric rounding noise.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    adj = a.conj().swapaxes(-1, -2)
    bad = hermitian_faults(a, adj, rtol)
    if bad is not None and bad.any():
        k = np.unravel_index(np.argmax(bad), bad.shape)
        at = f" {list(map(int, k))}" if k else ""
        raise ValueError(f"matrix{at} is not Hermitian: max asymmetry "
                         f"{np.abs(a[k] - adj[k]).max():.3e} exceeds {rtol:.1e} * "
                         f"{max(1.0, np.abs(a[k]).max()):.3e}")
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
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
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


def similarity_to_transpose(m) -> np.ndarray:
    """Unitary U with ``m.T = U @ m @ U^-1`` for a 2 x 2 matrix m, in closed form.

    With m = cI + a.sigma, m.T = cI + (D a).sigma for D = diag(1, -1, 1).  For
    a real unit n normal to Re a and Im a, U = sigma_y (n.sigma) turns a into
    D (I - 2 n n^T) a = D a.  Where Re a and Im a are parallel, n is the
    admissible direction nearest the y axis (else the x axis); the first
    nonzero of (n_y, n_x, n_z) is positive, and a symmetric m gets U = I
    exactly.  Non-finite entries and other shapes are rejected, and U meets
    ``||m.T - U m U^-1||_F <= RESIDUAL_TOL * max(1, ||m||_F)``.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    if m[0, 1] == m[1, 0]:
        return np.eye(2, dtype=complex)
    a = np.array([m[0, 1] + m[1, 0], 1j * (m[0, 1] - m[1, 0]), m[0, 0] - m[1, 1]])
    # the largest entry breaks ties of the norm, which underflows to 0 below ~1e-162
    r, s = sorted((a.real, a.imag), key=lambda v: (np.linalg.norm(v), np.abs(v).max()),
                  reverse=True)
    r = r / np.abs(r).max()
    q = s - (s @ r) / (r @ r) * r      # the part of s normal to r keeps r x q accurate
    if np.linalg.norm(q) <= PARALLEL_TOL * np.linalg.norm(s):
        q = np.cross([0.0, 1.0, 0.0], r) if r[[0, 2]].any() else np.array([0.0, 0.0, 1.0])
    n = np.cross(r, q / np.abs(q).max())
    n = n / np.linalg.norm(n) * np.sign(n[1] or n[0] or n[2])
    u = n[1] * PAULI[0] + 1j * (n[2] * PAULI[1] - n[0] * PAULI[3])
    scale = max(1.0, float(np.linalg.norm(m)))
    residual = float(np.linalg.norm(m.T - u @ m @ u.conj().T))
    if not residual <= RESIDUAL_TOL * scale:
        raise NumericalError(
            f"transpose similarity residual {residual:.3e} exceeds "
            f"{RESIDUAL_TOL:.1e} * {scale:.3e}"
        )
    return u
