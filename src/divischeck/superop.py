"""Maps as dense matrices acting on column-vectorized operators.

A map on d x d operators is a complex (d^2, d^2) numpy array, d the integer
square root of its last axis.  :func:`apply` and :func:`choi` also take a
stack of maps (..., d^2, d^2); every other function takes one map.

Conventions, fixed package-wide:

* ``vec`` stacks columns, so that vec(A X B) = (B.T kron A) vec(X).
* The Choi matrix of a map S on d x d operators is
  C = sum_ij S[E_ij] kron E_ij, with the map output on the first tensor
  factor and the ancilla on the second.  It is Hermitian for
  hermiticity-preserving S and has trace d for trace-preserving S.

Mixing either convention with its alternative silently corrupts Choi
spectra, so all conversions go through the helpers in this module.

Complete positivity is decided exactly (Choi spectrum).  Plain positivity
of a map is not decided here; instead :func:`positivity_probe` measures the
lowest output eigenvalue it finds over pure input states.  It runs a batch
of random restarts through a seesaw: the output-side and the input-side
vector alternate as exact lowest eigenvectors, of the map's output and of
its dual's output, with an extrapolation step that speeds up the seesaw's
linear convergence.  The lowest value of the batch comes with the state that
reproduces it: a negative one *certifies non-positivity*; a nonnegative one
is evidence only, as a local search can miss the global minimum.  The probe
names no verdict: its callers compare the value with their own tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import RESIDUAL_TOL, NumericalError, check_hermitian, inverse

__all__ = [
    "PositivityProbeResult",
    "apply",
    "choi",
    "identity",
    "intermediate",
    "is_cp",
    "min_output_eigenvalue",
    "positivity_probe",
    "tensor",
    "vec",
]

CHOI_RTOL = 1e-10   # a Choi matrix's Hermiticity tolerance, for is_cp and family checks

# The seesaw stops once no restart has lowered its value by more than this
# over one extrapolation cycle.
_SEESAW_GAIN = 1e-13
# A smaller drop than this fraction of the map's norm is rounding noise; the
# restart keeps its state.
_ROUNDING = 1e-14


def vec(x) -> np.ndarray:
    """Column-stacking vectorization of a matrix."""
    return np.asarray(x, dtype=complex).reshape(-1, order="F")


def _check_map(s, stack: bool = False) -> np.ndarray:
    """The map ``s`` as a complex (d^2, d^2) array, d >= 1, or with ``stack``
    a stack (..., d^2, d^2) of them: the shape check of every public entry."""
    mat = np.asarray(s, dtype=complex)
    d = math.isqrt(mat.shape[-1]) if mat.ndim else 0
    if d < 1 or mat.shape[-2:] != (d * d, d * d) or not (stack or mat.ndim == 2):
        raise ValueError(f"superoperator on dimension {d} needs a {d * d} x {d * d} "
                         f"matrix, got shape {mat.shape}")
    return mat


@dataclass(eq=False)
class PositivityProbeResult:
    """The lowest output eigenvalue ``min_value`` a randomized search found in
    its whole batch of ``restarts_used`` restarts, each run through every
    sweep, and the pure input state ``argmin_state`` that reproduces it."""

    min_value: float
    argmin_state: np.ndarray
    restarts_used: int


def identity(dim: int) -> np.ndarray:
    """The identity map on dim x dim operators."""
    return np.eye(dim * dim, dtype=complex)


def apply(s, x) -> np.ndarray:
    """Apply a map, or a stack of maps (..., d^2, d^2), to one d x d operator
    or a stack (n, d, d): every map acts on every operator, and the result
    has shape ``s.shape[:-2] + x.shape``."""
    mats, x = _check_map(s, stack=True), np.asarray(x, dtype=complex)
    dim = math.isqrt(mats.shape[-1])
    if x.shape[-2:] != (dim, dim):
        raise ValueError(f"operator shape {x.shape} does not match superoperator "
                         f"dimension {dim}")
    # column stacking of each operator is the row-major flattening of its transpose
    vecs = x.swapaxes(-1, -2).reshape(*x.shape[:-2], -1)
    out = vecs @ mats.swapaxes(-1, -2)
    return out.reshape(*out.shape[:-1], dim, dim).swapaxes(-1, -2)


def tensor(s1, s2) -> np.ndarray:
    """Tensor product map, defined by (s1 tensor s2)[X kron Y] = s1[X] kron s2[Y].

    Under column stacking the rows of a d x d map split as (column, row)
    of the output and the columns as (column, row) of the input, each index
    of the product space being (factor 1, factor 2).  Interleaving the
    factor indices of the two matrices is one broadcast product.
    """
    s1, s2 = _check_map(s1), _check_map(s2)
    d1, d2 = math.isqrt(len(s1)), math.isqrt(len(s2))
    return (s1.reshape(d1, 1, d1, 1, d1, 1, d1, 1)
            * s2.reshape(1, d2, 1, d2, 1, d2, 1, d2)).reshape(len(s1) * len(s2), -1)


def choi(s) -> np.ndarray:
    """Choi matrix C = sum_ij S[E_ij] kron E_ij (output factor first), as a
    d^2 x d^2 array; unnormalized, so trace d for trace-preserving S.

    ``s`` is a map or a stack (..., d^2, d^2) of map matrices, whose Choi
    matrices come stacked alike.  The entry C[(k, i), (l, j)] = S[E_ij][k, l]
    sits at S[(l, k), (j, i)], so C is a realignment of the map's matrix.
    """
    mats = _check_map(s, stack=True)
    d = math.isqrt(mats.shape[-1])
    return mats.reshape(-1, d, d, d, d).transpose(0, 2, 4, 1, 3).reshape(mats.shape)


def is_cp(s, tol: float = 1e-9) -> tuple[bool, float]:
    """Complete positivity test: min Choi eigenvalue >= -tol.

    Returns (verdict, min eigenvalue).  The input must be
    hermiticity-preserving, otherwise the Choi matrix fails its
    Hermiticity check and the call is rejected.
    """
    c = choi(s)
    if c.ndim != 2:     # choi takes stacks, is_cp one map: reject as one map
        _check_map(c)
    min_eig = float(np.linalg.eigvalsh(check_hermitian(c, rtol=CHOI_RTOL))[0])
    return min_eig >= -tol, min_eig


def _lowest_eigenpairs(s: np.ndarray, states: np.ndarray):
    """Lowest eigenvalue and eigenvector of the Hermitian part of S[|v><v|],
    for each row v of a (restarts, dim) stack, with one matmul and one eigh.

    ``s`` is a checked map.  Row r of the product is vec(S[|v><v|]), the
    output's transpose Y flattened row by row.  Entry (j, i) of vec(|v><v|)
    is v_i conj(v_j), in that operand order: with fused multiply-adds a
    complex product may round differently with its factors swapped.
    """
    rows, dim = states.shape
    vecs = (states[:, None, :] * states.conj()[:, :, None]).reshape(rows, dim * dim)
    y = (vecs @ s.T).reshape(rows, dim, dim)
    w, v = np.linalg.eigh(0.5 * (y.swapaxes(1, 2) + y.conj()))
    return w[:, 0], v[:, :, 0]


def _keep_lower(values, states, new_values, new_states, margin):
    """Per restart, the new state where its value is lower by more than
    ``margin``, else the old one."""
    lower = new_values < values - margin
    return np.where(lower, new_values, values), np.where(lower[:, None], new_states, states)


def _align(x: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Rows of x with their global phases turned so that <ref|x> >= 0."""
    overlap = np.sum(ref.conj() * x, axis=1, keepdims=True)
    return x * np.exp(-1j * np.angle(overlap))


def _extrapolate(x0: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """SQUAREM step through three successive iterates, normalized.

    Varadhan and Roland, Scand. J. Stat. 35, 335 (2008): with r = x1 - x0
    and v = x2 - 2 x1 + x0, the step x0 - 2 a r + a^2 v, a = -|r|/|v|
    clamped to <= -1, lands on the fixed point of a linear iteration
    contracting along one direction; a = -1 gives x2.
    """
    r = x1 - x0
    v = x2 - x1 - r
    nr, nv = np.linalg.norm(r, axis=1), np.linalg.norm(v, axis=1)
    a = np.minimum(-np.divide(nr, nv, out=np.ones_like(nr), where=nv > 0), -1.0)[:, None]
    x = x0 - 2 * a * r + a * a * v
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def positivity_probe(s, restarts: int = 100, steps: int = 500, seed: int = 0,
                     stop_at: float | None = None) -> PositivityProbeResult:
    """Minimize the smallest output eigenvalue over pure input states.

    The objective <phi|S[|psi><psi|]|phi> (Hermitian part) is minimized by
    a seesaw of two exact min-eigenvector steps per sweep: phi becomes the
    lowest eigenvector of S[|psi><psi|], then psi the lowest eigenvector of
    the dual map S^dagger[|phi><phi|] (matrix ``s.conj().T``).  After
    every two sweeps the next one starts from a SQUAREM extrapolation
    through the last three states, which shortcuts the seesaw's slow linear
    convergence on near-identity maps.  Each restart keeps its lowest-valued
    state (the value of psi is the smallest eigenvalue of its output), so
    that value never increases.

    All ``restarts`` random starts, drawn at once from
    ``default_rng(seed)``, run as one stack through one matmul with the
    map and one stacked ``eigh`` per step.  ``steps`` caps the number of
    sweeps; the sweeps also end once no restart has improved by more than
    a fixed threshold over the last extrapolation cycle, or as soon as the
    best value drops below ``stop_at``.  The returned state is the restart
    with the lowest value when the sweeps end, and ``restarts_used`` is
    ``restarts``.  The reported ``min_value`` is :func:`min_output_eigenvalue`
    of that state.  The map must be finite.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    s = _check_map(s)
    if not np.isfinite(s).all():
        raise ValueError("map has non-finite entries")
    dual = s.conj().T
    margin = _ROUNDING * np.linalg.norm(s, 2)
    dim = math.isqrt(len(s))

    rng = np.random.default_rng(seed)
    psi = rng.standard_normal((restarts, dim)) + 1j * rng.standard_normal((restarts, dim))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    values, phi = _lowest_eigenpairs(s, psi)
    chain, checked = [psi], values      # states since the last extrapolation
    for _ in range(steps):
        if len(chain) == 3:
            start = _extrapolate(*chain)
            start_values, phi = _lowest_eigenpairs(s, start)
            values, psi = _keep_lower(values, psi, start_values, start, margin)
            if np.max(checked - values) <= _SEESAW_GAIN:
                break
            chain, checked = [], values
        _, new_psi = _lowest_eigenpairs(dual, phi)
        new_values, phi = _lowest_eigenpairs(s, new_psi)
        values, psi = _keep_lower(values, psi, new_values, new_psi, margin)
        chain.append(_align(new_psi, chain[-1]) if chain else new_psi)
        if stop_at is not None and values.min() < stop_at:
            break

    state = psi[int(np.argmin(values))]
    return PositivityProbeResult(min_output_eigenvalue(s, state), state, restarts)


def intermediate(s_t, s_s) -> np.ndarray:
    """Two-time propagator s_t composed with the inverse of s_s.

    Requires s_s to be invertible (condition estimate below 1e12) and
    verifies the composition residual || (result) s_s - s_t ||_F <= 1e-8.
    """
    s_t, s_s = _check_map(s_t), _check_map(s_s)
    if s_t.shape != s_s.shape:
        raise ValueError(f"dimension mismatch: {math.isqrt(len(s_t))} vs {math.isqrt(len(s_s))}")
    mat = s_t @ inverse(s_s)
    residual = float(np.linalg.norm(mat @ s_s - s_t))
    if residual > RESIDUAL_TOL:
        raise NumericalError(
            f"intermediate-map residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e}"
        )
    return mat


def min_output_eigenvalue(s, psi) -> float:
    """Smallest eigenvalue of the Hermitian part of S[|psi><psi|], psi
    normalized first: the quantity the positivity probe minimizes and the
    ``min_value`` it reports for its witness state."""
    s, psi = _check_map(s), np.asarray(psi, dtype=complex)
    with np.errstate(over="ignore"):    # a norm past the largest double is rejected below
        norm = np.linalg.norm(psi)
    if not (np.isfinite(s).all() and 0 < norm < math.inf):
        raise ValueError("the map must be finite, and the state vector's norm finite and nonzero")
    psi = psi / norm
    out = apply(s, np.outer(psi, psi.conj()))
    return float(np.linalg.eigvalsh(0.5 * (out + out.conj().T))[0])
