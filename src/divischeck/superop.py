"""Superoperators as dense matrices acting on column-vectorized operators.

Conventions, fixed package-wide:

* ``vec`` stacks columns, so that vec(A X B) = (B.T kron A) vec(X).
* The Choi matrix of a map S on d x d operators is
  C = sum_ij S[E_ij] kron E_ij, with the map output on the first tensor
  factor and the ancilla on the second.  It is Hermitian for
  hermiticity-preserving S and has trace d for trace-preserving S.

Mixing either convention with its alternative silently corrupts Choi
spectra, so all conversions go through the helpers in this module.

Complete positivity is decided exactly (Choi spectrum).  Plain positivity
of a map cannot be decided by a finite computation here; instead
:func:`positivity_probe` searches for a pure input state with a negative
output eigenvalue.  A probe can therefore *certify non-positivity*
(constructively, with a witness state) but can only gather evidence in
favour of positivity: "no-violation-found" is never a certificate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .linalg import NumericalError, check_hermitian, inverse, max_asymmetry

__all__ = [
    "ChoiMatrix",
    "HOLDS_NO_VIOLATION",
    "PositivityProbeResult",
    "Superoperator",
    "VIOLATED",
    "apply",
    "choi",
    "compose",
    "identity",
    "intermediate",
    "is_cp",
    "is_hermiticity_preserving",
    "is_trace_preserving",
    "min_output_eigenvalue",
    "positivity_probe",
    "tensor",
    "unvec",
    "vec",
]

VIOLATED = "violated"
HOLDS_NO_VIOLATION = "no-violation-found"


def vec(x) -> np.ndarray:
    """Column-stacking vectorization of a matrix."""
    return np.asarray(x, dtype=complex).reshape(-1, order="F")


def unvec(v, dim: int) -> np.ndarray:
    """Inverse of :func:`vec` for a square dim x dim matrix."""
    return np.asarray(v, dtype=complex).reshape((dim, dim), order="F")


@dataclass(eq=False)
class Superoperator:
    """A linear map on d x d matrices stored as a d^2 x d^2 matrix.

    ``mat`` acts on column-vectorized operators.  ``trace_preserving`` is
    metadata set by constructors that guarantee it; ``None`` means unknown.
    """

    dim: int
    mat: np.ndarray
    trace_preserving: bool | None = None

    def __post_init__(self):
        self.mat = np.asarray(self.mat, dtype=complex)
        d2 = self.dim * self.dim
        if self.dim <= 0 or self.mat.shape != (d2, d2):
            raise ValueError(
                f"superoperator on dimension {self.dim} needs a {d2} x {d2} "
                f"matrix, got shape {self.mat.shape}"
            )


@dataclass(eq=False)
class ChoiMatrix:
    """Choi matrix of a map on d x d operators (unnormalized, trace d if TP)."""

    dim: int
    mat: np.ndarray


@dataclass
class PositivityProbeResult:
    """Outcome of a randomized search for a positivity violation.

    ``verdict`` is ``"violated"`` only when ``min_value < -tol``; the
    reported state then reproduces ``min_value`` on re-evaluation.  The
    opposite verdict, ``"no-violation-found"``, is evidence only.
    """

    min_value: float
    argmin_state: np.ndarray
    restarts_used: int
    verdict: str


def identity(dim: int) -> Superoperator:
    """The identity map on dim x dim operators."""
    return Superoperator(dim, np.eye(dim * dim, dtype=complex), trace_preserving=True)


def apply(s: Superoperator, x) -> np.ndarray:
    """Apply the map to a dim x dim matrix or to a stack of shape (..., dim, dim)."""
    x = np.asarray(x, dtype=complex)
    if x.shape[-2:] != (s.dim, s.dim):
        raise ValueError(
            f"operator shape {x.shape} does not match superoperator dimension {s.dim}"
        )
    if x.ndim == 2:
        return unvec(s.mat @ vec(x), s.dim)
    # column stacking of each operator is the row-major flattening of its transpose
    vecs = x.swapaxes(-1, -2).reshape(*x.shape[:-2], -1)
    return (vecs @ s.mat.T).reshape(x.shape).swapaxes(-1, -2)


def compose(s1: Superoperator, s2: Superoperator) -> Superoperator:
    """The map s1 after s2."""
    if s1.dim != s2.dim:
        raise ValueError(f"dimension mismatch: {s1.dim} vs {s2.dim}")
    tp = True if (s1.trace_preserving and s2.trace_preserving) else None
    return Superoperator(s1.dim, s1.mat @ s2.mat, trace_preserving=tp)


def tensor(s1: Superoperator, s2: Superoperator) -> Superoperator:
    """Tensor product map, defined by (s1 tensor s2)[X kron Y] = s1[X] kron s2[Y].

    Under column stacking the rows of a d x d map split as (column, row)
    of the output and the columns as (column, row) of the input, each index
    of the product space being (factor 1, factor 2).  Interleaving the
    factor indices of the two matrices is one broadcast product.
    """
    d1, d2 = s1.dim, s2.dim
    d = d1 * d2
    mat = (s1.mat.reshape(d1, 1, d1, 1, d1, 1, d1, 1)
           * s2.mat.reshape(1, d2, 1, d2, 1, d2, 1, d2)).reshape(d * d, d * d)
    tp = True if (s1.trace_preserving and s2.trace_preserving) else None
    return Superoperator(d, mat, trace_preserving=tp)


def choi(s: Superoperator) -> ChoiMatrix:
    """Choi matrix C = sum_ij S[E_ij] kron E_ij (output factor first).

    The entry C[(k, i), (l, j)] = S[E_ij][k, l] sits at S[(l, k), (j, i)],
    so C is a realignment of the superoperator matrix.
    """
    d = s.dim
    c = s.mat.reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d * d, d * d)
    return ChoiMatrix(d, c)


def is_cp(s: Superoperator, tol: float = 1e-9) -> tuple[bool, float]:
    """Complete positivity test: min Choi eigenvalue >= -tol.

    Returns (verdict, min eigenvalue).  The input must be
    hermiticity-preserving, otherwise the Choi matrix fails its
    Hermiticity check and the call is rejected.
    """
    c = choi(s)
    h = check_hermitian(c.mat, rtol=1e-10)
    w = np.linalg.eigvalsh(h)
    min_eig = float(w[0])
    return min_eig >= -tol, min_eig


def is_trace_preserving(s: Superoperator, tol: float = 1e-10) -> bool:
    """Exact check vec(I)^dagger S = vec(I)^dagger, entrywise within tol."""
    row = vec(np.eye(s.dim))
    return bool(np.max(np.abs(row @ s.mat - row)) <= tol)


def is_hermiticity_preserving(s: Superoperator, tol: float = 1e-10) -> bool:
    """Exact check that the Choi matrix is Hermitian, entrywise within tol."""
    return max_asymmetry(choi(s).mat) <= tol


def _min_output_eigenvalue(s: Superoperator, psi: np.ndarray) -> float:
    out = apply(s, np.outer(psi, psi.conj()))
    return float(np.linalg.eigvalsh(0.5 * (out + out.conj().T))[0])


def positivity_probe(s: Superoperator, restarts: int = 100, steps: int = 500,
                     tol: float = 1e-9, seed: int = 0,
                     stop_at: float | None = None) -> PositivityProbeResult:
    """Minimize the smallest output eigenvalue over pure input states.

    Each restart draws a random start on the unit sphere of C^dim
    (parametrized by 2*dim real coordinates, global phase left free) and
    runs Nelder-Mead for at most ``steps`` iterations.  Sequential and
    deterministic for a fixed seed.  ``stop_at`` lets constructive searches
    return as soon as the best value drops below that threshold.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    d = s.dim

    def objective(x: np.ndarray) -> float:
        v = x[:d] + 1j * x[d:]
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            return 0.0
        return _min_output_eigenvalue(s, v / norm)

    rng = np.random.default_rng(seed)
    best_val = np.inf
    best_x = None
    used = 0
    for _ in range(restarts):
        used += 1
        x0 = rng.standard_normal(2 * d)
        res = minimize(
            objective, x0, method="Nelder-Mead",
            options={"maxiter": steps, "maxfev": 2 * steps,
                     "xatol": 1e-12, "fatol": 1e-14},
        )
        if res.fun < best_val:
            best_val = float(res.fun)
            best_x = res.x
        if stop_at is not None and best_val < stop_at:
            break

    state = best_x[:d] + 1j * best_x[d:]
    state = state / np.linalg.norm(state)
    min_value = _min_output_eigenvalue(s, state)
    verdict = VIOLATED if min_value < -tol else HOLDS_NO_VIOLATION
    return PositivityProbeResult(min_value, state, used, verdict)


def intermediate(s_t: Superoperator, s_s: Superoperator,
                 residual_tol: float = 1e-8) -> Superoperator:
    """Two-time propagator s_t composed with the inverse of s_s.

    Requires s_s to be invertible (condition estimate below 1e12) and
    verifies the composition residual || (result) s_s - s_t ||_F <= 1e-8.
    """
    if s_t.dim != s_s.dim:
        raise ValueError(f"dimension mismatch: {s_t.dim} vs {s_s.dim}")
    inv_s = inverse(s_s.mat)
    mat = s_t.mat @ inv_s
    residual = float(np.linalg.norm(mat @ s_s.mat - s_t.mat))
    if residual > residual_tol:
        raise NumericalError(
            f"intermediate-map residual {residual:.3e} exceeds {residual_tol:.1e}"
        )
    tp = True if (s_t.trace_preserving and s_s.trace_preserving) else None
    return Superoperator(s_t.dim, mat, trace_preserving=tp)


def min_output_eigenvalue(s: Superoperator, psi) -> float:
    """Smallest eigenvalue of S[|psi><psi|]; psi is normalized first.

    This is the quantity the positivity probe minimizes, exposed so callers
    can re-evaluate reported witness states.
    """
    psi = np.asarray(psi, dtype=complex)
    return _min_output_eigenvalue(s, psi / np.linalg.norm(psi))
