"""Trace-distance information flow and back-flow scans.

The flow rate at time t for a pair of states is the time derivative of
N(t) = || map_t[rho1 - rho2] ||_1 (no 1/2 prefactor), estimated by a central
finite difference, forward for t < h.  Negative rates mean the pair is
becoming less distinguishable; a positive rate is back-flow: the environment
is returning information to the system.

:func:`backflow_scan` hunts for positive rates over a grid for the state
pairs it is given; :func:`pair_library` builds the default set and checks
it as one stack.  Like the positivity probes, the scan is asymmetric: a
positive rate found is constructive evidence of back-flow (pair, time,
value), while a clean scan only supports monotonicity, it does not prove it.

The scan walks the grid in blocks of at most ``_BLOCK`` times.  Each block
applies the two maps of every time's finite difference to all pair
differences in one stacked product, and takes the trace norms, the sums of
absolute eigenvalues of the evolved differences, in one call.  A qubit
operator x0 I + r.sigma has eigenvalues x0 +- |r|, taken in closed form;
larger dimensions use one batched ``eigvalsh`` per block.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linalg import PAULI, check_grid
from .superop import Superoperator, apply_maps

__all__ = [
    "BackflowReport",
    "StatePair",
    "backflow_scan",
    "bell_pairs",
    "bell_states",
    "pair_library",
    "product_pairs",
    "qubit_axis_pairs",
    "tilted_parity_pairs",
]

STATE_TOL = 1e-10
#: eigenvalues below this magnitude count as zero in evolved differences
EIGEN_FLOOR = 1e-13
#: grid times per block of a back-flow scan, two maps each.  Kept small: a
#: two-qubit block of the default scan evolves 113 differences under 8 maps
#: (about 0.23 MB), and larger blocks cost resident memory.
_BLOCK = 4


def _check_states(states: np.ndarray, labels=None) -> None:
    """Check finiteness, Hermiticity, unit trace and positivity (one stacked
    ``eigvalsh``), in that order, of an (n, 2, d, d) stack of state pairs; a
    failure names the first bad state, after its pair's label if ``labels``."""
    def check(ok: np.ndarray, fault: str) -> None:
        if not ok.all():
            k, slot = np.argwhere(~ok)[0]
            pair = "" if labels is None else f"pair {labels[k]} "
            raise ValueError(f"{pair}rho{slot + 1} {fault}")

    check(np.isfinite(states).all(axis=tuple(range(2, states.ndim))), "has non-finite entries")
    if states.ndim != 4 or states.shape[2] != states.shape[3]:
        raise ValueError("rho1 is not a square matrix")
    adjoint = states.conj().swapaxes(2, 3)
    check(np.abs(states - adjoint).max(axis=(2, 3)) <= STATE_TOL,
          f"is not Hermitian within {STATE_TOL:.0e}")
    check(np.abs(np.trace(states, axis1=2, axis2=3) - 1.0) <= STATE_TOL,
          "does not have unit trace")
    check(np.linalg.eigvalsh(0.5 * (states + adjoint))[..., 0] >= -STATE_TOL,
          f"is not positive semidefinite within {STATE_TOL:.0e}")


@dataclass(eq=False)
class StatePair:
    """Two density matrices of equal dimension, checked on construction as a one-pair stack."""

    rho1: np.ndarray
    rho2: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.rho1 = np.asarray(self.rho1, dtype=complex)
        self.rho2 = np.asarray(self.rho2, dtype=complex)
        if self.rho1.shape != self.rho2.shape:
            raise ValueError("state pair dimensions differ")
        _check_states(np.stack([self.rho1, self.rho2])[None])

    def difference(self) -> np.ndarray:
        return self.rho1 - self.rho2


def _trace_norms(x: np.ndarray) -> np.ndarray:
    """Trace norms of a stack of Hermitian matrices, from their lower triangles.

    A 2 x 2 operator with diagonal (a, b) and lower entry c is x0 I + r.sigma
    with x0 = (a + b)/2 and |r| = hypot((a - b)/2, |c|), so its eigenvalues
    are x0 - |r| and x0 + |r|; other dimensions are solved by ``eigvalsh``.  Eigenvalues
    below EIGEN_FLOOR are finite-difference noise and count as exact zeros.
    """
    if x.shape[-1] == 2:
        a, b = x[..., 0, 0].real, x[..., 1, 1].real
        x0 = 0.5 * (a + b)
        r = np.hypot(0.5 * (a - b), np.abs(x[..., 1, 0]))
        w = np.stack([x0 - r, x0 + r], axis=-1)
    else:
        w = np.linalg.eigvalsh(x)
    w[np.abs(w) < EIGEN_FLOOR] = 0.0
    return np.abs(w).sum(axis=-1)


def _projectors(vectors) -> np.ndarray:
    """Projectors onto a stack of vectors; one norm call per vector keeps them bitwise."""
    v = np.asarray(vectors, dtype=complex)
    norms = [np.linalg.norm(x) for x in v.reshape(-1, v.shape[-1])]
    v = v / np.reshape(norms, v.shape[:-1] + (1,))
    return v[..., :, None] * v[..., None, :].conj()


def _checked_pairs(states: np.ndarray, labels: list[str]) -> list[StatePair]:
    """The pairs of an (n, 2, d, d) stack, checked once as a stack, not per pair."""
    _check_states(states, labels)
    pairs = [object.__new__(StatePair) for _ in labels]
    for pair, (rho1, rho2), label in zip(pairs, states, labels):
        vars(pair).update(rho1=rho1, rho2=rho2, label=label)
    return pairs


def bell_states() -> list[np.ndarray]:
    """The four maximally entangled two-qubit basis vectors."""
    s = 1.0 / np.sqrt(2.0)
    return [
        np.array([s, 0, 0, s], dtype=complex),    # phi+
        np.array([s, 0, 0, -s], dtype=complex),   # phi-
        np.array([0, s, s, 0], dtype=complex),    # psi+
        np.array([0, s, -s, 0], dtype=complex),   # psi-
    ]


def _unordered_pairs(prefix: str, names: list[str], vectors) -> list[StatePair]:
    """Pure-state pairs for every unordered pair of the named vectors, in order."""
    ij = np.array(list(itertools.combinations(range(len(names)), 2)))
    return _checked_pairs(_projectors(vectors)[ij],
                          [f"{prefix}:{names[i]}/{names[j]}" for i, j in ij])


def bell_pairs() -> list[StatePair]:
    """All six unordered pairs of distinct Bell states."""
    return _unordered_pairs("bell", ["phi+", "phi-", "psi+", "psi-"], bell_states())


def product_pairs() -> list[StatePair]:
    """Orthogonal computational product pairs on two qubits."""
    return _unordered_pairs("prod", ["00", "01", "10", "11"], np.eye(4, dtype=complex))


def qubit_axis_pairs() -> list[StatePair]:
    """Antipodal single-qubit pairs along the three Bloch axes."""
    s = 1.0 / np.sqrt(2.0)
    axes = [
        ("z", np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)),
        ("x", np.array([s, s], dtype=complex), np.array([s, -s], dtype=complex)),
        ("y", np.array([s, 1j * s], dtype=complex), np.array([s, -1j * s], dtype=complex)),
    ]
    return _checked_pairs(_projectors([[a, b] for _, a, b in axes]),
                          [f"axis:{name}" for name, _, _ in axes])


def tilted_parity_pairs() -> list[StatePair]:
    """Mixed two-qubit pair built to expose back-flow of tensor squares.

    Differences of pure pairs (and of Bell-diagonal mixtures) evolve under a
    tensor-squared Pauli family with so much symmetry that their trace norm
    decreases monotonically even when the intermediate maps fail positivity.
    The pair here contrasts the even- and odd-parity mixtures and adds a
    small transverse tilt with opposite signs on the two qubits plus a weak
    transverse correlation, which unbalances the eigenvalue pairing enough
    for the norm to rebound once the parity contrast has decayed.  The
    coefficients come from a numerical search; back-flow of the tanh-rate
    tensor square on this pair is verified for strengths 0.5 <= a <= 0.9.
    """
    def two(mu, nu):
        return np.kron(PAULI[mu], PAULI[nu])

    tilt = ((two(1, 0) - two(0, 1)) / 8.0
            + (two(2, 0) - two(0, 2)) / 16.0
            - two(2, 2) / 16.0)
    rho1 = 0.25 * (two(0, 0) - 0.75 * two(3, 3) + tilt)
    rho2 = 0.25 * (two(0, 0) + 0.75 * two(3, 3) - tilt)
    return [StatePair(rho1, rho2, label="mixed:tilted-parity")]


def pair_library(dim: int, samples: int = 0, seed: int = 0) -> list[StatePair]:
    """The default pairs of a scan: the fixed library, then ``samples``
    Haar-orthogonal pure pairs drawn from ``default_rng(seed)``.

    The fixed library: for two qubits the Bell pairs, the computational product
    pairs and the tilted-parity mixed pair; for one qubit the Bloch-axis pairs.
    Each random pair is two columns of a Haar unitary (QR trick), all drawn,
    factored and validated as one stack.
    """
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    g = np.random.default_rng(seed).standard_normal((samples, 2, dim, 2))
    q, r = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
    # fix the phase convention so each pair is a deterministic function of its draw
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (d / np.abs(d))[:, None, :]
    haar = _checked_pairs(_projectors(q.swapaxes(1, 2)), [f"haar:{k}" for k in range(samples)])
    if dim == 4:
        return bell_pairs() + product_pairs() + tilted_parity_pairs() + haar
    if dim == 2:
        return qubit_axis_pairs() + haar
    return haar


@dataclass(eq=False)
class BackflowReport:
    """Full distribution of flow-rate samples over (pair, time)."""

    max_sigma: float
    argmax_label: str
    argmax_t: float
    sigma: np.ndarray                 # shape (n_pairs, n_times)
    pairs: list[StatePair] = field(repr=False)


def backflow_scan(map_at: Callable[[float], Superoperator], pairs: list[StatePair],
                  grid, h: float = 1e-4) -> BackflowReport:
    """Scan flow rates of the given state ``pairs``, in order, over a grid
    (nonempty, finite and strictly ascending) with difference step ``h``.

    The grid is walked in blocks of at most ``_BLOCK`` times.  The two maps
    of each time's finite difference are built one ``map_at`` call at a
    time, and each block applies all its maps to every pair difference in
    one stacked product and takes their trace norms in one call.
    """
    if not 0 < h < math.inf:
        raise ValueError(f"step h must be positive and finite, got {h}")
    grid = check_grid(grid)
    if not pairs:
        raise ValueError("no state pairs to scan")
    shapes = sorted({p.rho1.shape for p in pairs})
    if len(shapes) > 1:
        raise ValueError(f"state pairs have mixed dimensions: shapes {shapes}")
    deltas = np.stack([p.difference() for p in pairs])
    sigma = np.empty((len(pairs), len(grid)))
    for start in range(0, len(grid), _BLOCK):
        times = grid[start:start + _BLOCK].tolist()
        # forward difference for t < h, central otherwise
        ends = [(t, t + h) if t < h else (t - h, t + h) for t in times]
        denom = np.array([h if t < h else 2.0 * h for t in times])
        mats = np.array([[map_at(t_lo).mat, map_at(t_hi).mat] for t_lo, t_hi in ends])
        bad = ~np.isfinite(mats).all(axis=(-2, -1))
        if bad.any():
            k, side = np.argwhere(bad)[0]
            raise ValueError(f"map at t={ends[k][side]!r} has non-finite entries")
        n_lo, n_hi = _trace_norms(apply_maps(mats, deltas)).transpose(1, 2, 0)
        sigma[:, start:start + _BLOCK] = (n_hi - n_lo) / denom
    p_idx, t_idx = np.unravel_index(int(np.argmax(sigma)), sigma.shape)
    return BackflowReport(
        max_sigma=float(sigma[p_idx, t_idx]),
        argmax_label=pairs[p_idx].label,
        argmax_t=float(grid[t_idx]),
        sigma=sigma,
        pairs=pairs,
    )
