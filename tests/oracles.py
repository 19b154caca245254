"""Closed forms, defining constructions and exact map checks that tests
compare the package against.  Nothing under ``src/`` uses them.
"""
import math

import numpy as np

from divischeck import pauli_family as pf
from divischeck.generator import PropagatedFamily, liouvillian, rk4_increment
from divischeck.infoflow import EIGEN_FLOOR
from divischeck.linalg import PAULI
from divischeck.superop import apply, choi, vec


def generator_eigenvalues(t: float, alpha: float) -> tuple[float, float, float, float]:
    """Eigenvalues of the model generator on (identity, sigma_1, sigma_2, sigma_3).

    The identity eigenvalue is 0 (trace preservation); the transverse pair
    is a (tanh t - 1) and the longitudinal one is -2a.
    """
    pf._validate(t, alpha)
    transverse = alpha * (math.tanh(t) - 1.0)
    return (0.0, transverse, transverse, -2.0 * alpha)


def intermediate_channel(t: float, s: float, alpha: float) -> np.ndarray:
    """Two-time propagator of the model family from s to t, t >= s >= 0.

    A Pauli channel with eigenvalue ratios l_k(t)/l_k(s); the ratios lie in
    (0, 1] because every l_k is positive and non-increasing.
    """
    if t < s:
        raise ValueError(f"need t >= s, got t={t}, s={s}")
    return pf.pauli_channel(*pf.bloch_eigenvalues(t, alpha) / pf.bloch_eigenvalues(s, alpha))


def loop_pauli_channel(l1: float, l2: float, l3: float) -> np.ndarray:
    """Matrix of the unital qubit channel with Bloch eigenvalues (l1, l2, l3),
    summed Pauli by Pauli with each outer product built in place."""
    mat = np.zeros((4, 4), dtype=complex)
    for lam, sigma in zip((1.0, l1, l2, l3), PAULI):
        v = vec(sigma)
        mat += 0.5 * lam * np.outer(v, v.conj())
    return mat


def unvec(v, dim: int) -> np.ndarray:
    """Inverse of ``vec`` for a square dim x dim matrix."""
    return np.asarray(v, dtype=complex).reshape((dim, dim), order="F")


def map_dim(s: np.ndarray) -> int:
    """Operator dimension d of a (d^2, d^2) map matrix."""
    return math.isqrt(len(s))


def apply_single(s: np.ndarray, x) -> np.ndarray:
    """The map applied to one dim x dim operator as a matrix-vector product,
    unvec(S vec(X))."""
    return unvec(s @ vec(x), map_dim(s))


def compose(s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """The map s1 after s2."""
    if s1.shape != s2.shape:
        raise ValueError(f"dimension mismatch: {map_dim(s1)} vs {map_dim(s2)}")
    return s1 @ s2


def is_trace_preserving(s: np.ndarray, tol: float = 1e-10) -> bool:
    """Exact check vec(I)^dagger S = vec(I)^dagger, entrywise within tol."""
    row = vec(np.eye(map_dim(s)))
    return bool(np.max(np.abs(row @ s - row)) <= tol)


def max_asymmetry(a) -> float:
    """Largest entrywise deviation of a square matrix from its adjoint."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - a.conj().T)))


def is_hermiticity_preserving(s: np.ndarray, tol: float = 1e-10) -> bool:
    """Exact check that the Choi matrix is Hermitian, entrywise within tol."""
    return max_asymmetry(choi(s)) <= tol


def trace_norms(x: np.ndarray) -> np.ndarray:
    """Trace norms of a stack of near-Hermitian matrices: one batched
    ``eigvalsh`` of their Hermitian parts, eigenvalues below EIGEN_FLOOR
    counted as zeros."""
    w = np.linalg.eigvalsh(0.5 * (x + x.conj().swapaxes(-1, -2)))
    w[np.abs(w) < EIGEN_FLOOR] = 0.0
    return np.abs(w).sum(axis=-1)


def flow_column(map_at, deltas: np.ndarray, t: float, h: float,
                norms=trace_norms) -> np.ndarray:
    """Finite-difference flow rates at time t for a stack of pair differences
    (one-sided for t < h): both maps applied one at a time, every trace norm
    from ``norms``, :func:`trace_norms` by default."""
    if t < h:
        t_lo, t_hi, denom = t, t + h, h
    else:
        t_lo, t_hi, denom = t - h, t + h, 2.0 * h
    out = np.stack([apply(map_at(t_lo), deltas), apply(map_at(t_hi), deltas)])
    n_lo, n_hi = norms(out)
    return (n_hi - n_lo) / denom


def haar_orthogonal_pair(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random orthogonal pure pair drawn on its own, as the (2, dim, dim)
    stack of its projectors: two columns of a Haar unitary, the QR factor of
    one complex Gaussian dim x 2 draw with its phases fixed by the diagonal
    of R."""
    z = rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    v1, v2 = q[:, 0] / np.linalg.norm(q[:, 0]), q[:, 1] / np.linalg.norm(q[:, 1])
    return np.stack([np.outer(v1, v1.conj()), np.outer(v2, v2.conj())])


def _join(early: np.ndarray, late: np.ndarray) -> np.ndarray:
    return early + late + late @ early


def _tree(d: np.ndarray) -> np.ndarray:
    """E of the product of the steps I + d[n] of one block, later on the left."""
    while len(d) > 1:
        joined = _join(d[0:-1:2], d[1::2])
        d = np.concatenate([joined, d[-1:]]) if len(d) % 2 else joined
    return d[0]


def _constant_tree(d: np.ndarray, k: int) -> np.ndarray:
    """``_tree`` of k copies of d, by repeated squaring in the tree's order."""
    carry = None
    while k + (carry is not None) > 1:
        if carry is None:
            carry = d if k % 2 else None
        elif k % 2:
            carry = _join(d, carry)
        k //= 2
        if k:
            d = _join(d, d)
    return d if k else carry


def segment_loop_propagate(g, grid, step: float, block: int = 64) -> PropagatedFamily:
    """Reference RK4 propagation, one grid segment at a time and one block of
    at most ``block`` substeps at a time: each block's increments stacked and
    multiplied out by a pairwise tree, or, when every L(t) of the block equals
    its left-end L, one increment squared (formed once per step size and
    length while L is one object), and the blocks joined into the segment's
    E = P - I in order, each block in the dtype of its L (real for a rate
    vector, through ``rk4_increment``).  This is the loop ``generator.propagate``
    ran before it stacked short segments together; its maps and segments are
    bit for bit the package's."""
    grid = np.asarray(grid, dtype=float)
    lmat = liouvillian(g)
    eye = np.eye(g.dim * g.dim, dtype=complex)
    m = eye
    maps = [eye]
    segments = []
    l_left = lmat(float(grid[0]))
    powers, powers_of = {}, None
    for t0, t1 in zip(grid[:-1], grid[1:]):
        span = float(t1 - t0)
        nsub = max(1, math.ceil(span / step - 1e-12))
        h = span / nsub
        e = np.zeros_like(eye)
        for start in range(0, nsub, block):
            times = [float(t0) + i * h for i in range(start, min(start + block, nsub))]
            k = len(times)
            mids = [lmat(t + 0.5 * h) for t in times]
            rights = [lmat(t + h) for t in times]
            if all(lm is l_left for lm in mids + rights):
                if powers_of is not l_left:
                    powers, powers_of = {}, l_left
                if (h, k) not in powers:
                    powers[h, k] = _constant_tree(rk4_increment(l_left, l_left, l_left, h), k)
                d = powers[h, k]
            else:
                mid_stack, right_stack = np.array(mids), np.array(rights)
                if (mid_stack == l_left).all() and (right_stack == l_left).all():
                    d = _constant_tree(rk4_increment(l_left, l_left, l_left, h), k)
                else:
                    lefts = np.concatenate([l_left[None], right_stack[:-1]])
                    d = _tree(rk4_increment(lefts, mid_stack, right_stack, h))
            e = _join(e, d)
            l_left = rights[-1]
        segments.append(eye + e)
        m = m + e @ m
        maps.append(m)
    return PropagatedFamily(grid, np.array(maps), np.array(segments).reshape((-1,) + eye.shape))


def i_major_intermediates(family: PropagatedFamily, all_pairs: bool):
    """Yield ``(i, j, V(t_j, t_i))`` for the selected grid pairs, i-major.

    Consecutive pairs are the integrated segments themselves; an all-pairs
    row i chains them as segs[j-1] @ ... @ segs[i], one 2-d product per j.
    This is the walk both divisibility scans took before they went by
    offset stacks."""
    for i, seg in enumerate(family.segments):
        yield i, i + 1, seg
        if all_pairs:
            mat = seg
            for j in range(i + 2, len(family.grid)):
                mat = family.segments[j - 1] @ mat
                yield i, j, mat


def pair_by_pair_cp_scan(pairs):
    """Reference CP scan over ``(i, j, V(t_j, t_i))`` triples in i-major
    order, as :func:`i_major_intermediates` yields them: one Choi eigensolve
    per pair, the first lowest minimum winning.
    Returns (min eigenvalue, (i, j), map, eigenvector), or None for no pairs."""
    best = None
    for i, j, inter in pairs:
        c = choi(inter)
        w, v = np.linalg.eigh(0.5 * (c + c.conj().T))
        if best is None or w[0] < best[0]:
            best = (w[0], (i, j), inter, v[:, 0])
    return best
