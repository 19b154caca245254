"""Trace-distance information flow and back-flow scans.

The flow rate at time t for a pair of states is the time derivative of
N(t) = || map_t[rho1 - rho2] ||_1, estimated by a central finite difference
(no 1/2 prefactor on the norm).  Negative rates mean the pair is becoming
less distinguishable; a positive rate is back-flow: the environment is
returning information to the system.

:func:`backflow_scan` hunts for positive rates over a grid and a library of
state pairs.  Like the positivity probes, it is asymmetric: a positive rate
found is constructive evidence of back-flow (pair, time, value), while a
clean scan only supports monotonicity, it does not prove it.

Trace norms are the sums of absolute eigenvalues of the evolved
differences.  A qubit operator x0 I + r.sigma has eigenvalues x0 +- |r|,
taken in closed form; larger dimensions use one batched ``eigvalsh``.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linalg import PAULI
from .superop import Superoperator, apply

__all__ = [
    "BackflowReport",
    "FlowSample",
    "StatePair",
    "backflow_scan",
    "bell_pairs",
    "bell_states",
    "haar_orthogonal_pair",
    "information_flow",
    "pair_library",
    "product_pairs",
    "qubit_axis_pairs",
    "tilted_parity_pairs",
]

STATE_TOL = 1e-10
#: eigenvalues below this magnitude count as zero in evolved differences
EIGEN_FLOOR = 1e-13


@dataclass(eq=False)
class StatePair:
    """Two density matrices of equal dimension, validated on construction."""

    rho1: np.ndarray
    rho2: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.rho1 = np.asarray(self.rho1, dtype=complex)
        self.rho2 = np.asarray(self.rho2, dtype=complex)
        if self.rho1.shape != self.rho2.shape:
            raise ValueError("state pair dimensions differ")
        for name, rho in (("rho1", self.rho1), ("rho2", self.rho2)):
            if not np.all(np.isfinite(rho)):
                raise ValueError(f"{name} has non-finite entries")
            if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
                raise ValueError(f"{name} is not a square matrix")
            if np.max(np.abs(rho - rho.conj().T)) > STATE_TOL:
                raise ValueError(f"{name} is not Hermitian within {STATE_TOL:.0e}")
            if abs(np.trace(rho) - 1.0) > STATE_TOL:
                raise ValueError(f"{name} does not have unit trace")
            if np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0] < -STATE_TOL:
                raise ValueError(f"{name} is not positive semidefinite within {STATE_TOL:.0e}")

    def difference(self) -> np.ndarray:
        return self.rho1 - self.rho2


@dataclass
class FlowSample:
    """One finite-difference estimate of the flow rate."""

    t: float
    sigma: float
    one_sided: bool = False


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


def _flow_column(map_at: Callable[[float], Superoperator], deltas: np.ndarray,
                 t: float, h: float) -> tuple[np.ndarray, bool]:
    """Finite-difference flow rates at time t for a stack of pair differences.

    Each map is applied to the whole stack at once and the trace norms of
    both evolved stacks are taken together by :func:`_trace_norms`.
    Returns the rates and whether the difference was one-sided (t < h).
    """
    if not 0 < h < math.inf:
        raise ValueError(f"step h must be positive and finite, got {h}")
    one_sided = t < h
    if one_sided:
        t_lo, t_hi, denom = t, t + h, h
    else:
        t_lo, t_hi, denom = t - h, t + h, 2.0 * h
    out = np.stack([apply(map_at(t_lo), deltas), apply(map_at(t_hi), deltas)])
    n_lo, n_hi = _trace_norms(out)
    return (n_hi - n_lo) / denom, one_sided


def information_flow(map_at: Callable[[float], Superoperator], pair: StatePair,
                     t: float, h: float = 1e-4) -> FlowSample:
    """Central-difference flow rate (N(t+h) - N(t-h)) / 2h.

    Times closer to the origin than h fall back to a one-sided forward
    difference; the returned sample is flagged accordingly.
    """
    if not math.isfinite(t):
        raise ValueError(f"time t must be finite, got {t}")
    sigma, one_sided = _flow_column(map_at, pair.difference()[None], float(t), h)
    return FlowSample(t=float(t), sigma=float(sigma[0]), one_sided=one_sided)


def _projector(vec: np.ndarray) -> np.ndarray:
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


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
    return [StatePair(_projector(a), _projector(b), label=f"{prefix}:{na}/{nb}")
            for (na, a), (nb, b) in itertools.combinations(zip(names, vectors), 2)]


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
    return [StatePair(_projector(a), _projector(b), label=f"axis:{name}")
            for name, a, b in axes]


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


def haar_orthogonal_pair(dim: int, rng: np.random.Generator, label: str = "") -> StatePair:
    """Random orthogonal pure pair: two columns of a Haar unitary (QR trick)."""
    z = rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))
    q, r = np.linalg.qr(z)
    # fix the phase convention so the pair is a deterministic function of z
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return StatePair(_projector(q[:, 0]), _projector(q[:, 1]), label=label)


def pair_library(dim: int) -> list[StatePair]:
    """Fixed deterministic pairs to seed a scan.

    For two qubits: the Bell pairs, the computational product pairs, and the
    tilted-parity mixed pair.  For a single qubit: the Bloch-axis pairs.
    """
    if dim == 4:
        return bell_pairs() + product_pairs() + tilted_parity_pairs()
    if dim == 2:
        return qubit_axis_pairs()
    return []


@dataclass
class BackflowReport:
    """Full distribution of flow-rate samples over (pair, time)."""

    max_sigma: float
    argmax_label: str
    argmax_t: float
    sigma: np.ndarray                 # shape (n_pairs, n_times)
    pairs: list[StatePair] = field(repr=False)
    one_sided: np.ndarray | None = None


def backflow_scan(map_at: Callable[[float], Superoperator], dim: int, grid,
                  samples: int = 100, seed: int = 0, h: float = 1e-4) -> BackflowReport:
    """Scan flow rates over a grid for the :func:`pair_library` pairs, in
    order, followed by ``samples`` random state pairs (``samples=0`` scans
    the library only; a negative count is rejected).

    Random pairs are Haar-orthogonal pure pairs drawn deterministically
    from ``seed``.  Evaluation is organized per grid time: the two maps of
    each finite difference are built once and applied to every pair at once.
    """
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1:
        raise ValueError("grid must be a 1-d array of times")
    if grid.size == 0:
        raise ValueError("grid is empty")
    if not np.all(np.isfinite(grid)):
        raise ValueError("grid must be finite")
    rng = np.random.default_rng(seed)
    pairs = pair_library(dim) + [haar_orthogonal_pair(dim, rng, label=f"haar:{k}")
                                 for k in range(samples)]
    if not pairs:
        raise ValueError("no state pairs to scan")
    deltas = np.stack([p.difference() for p in pairs])
    columns = [_flow_column(map_at, deltas, float(t), h) for t in grid]

    sigma = np.stack([c[0] for c in columns], axis=1)
    one_sided = np.array([c[1] for c in columns])
    flat = int(np.argmax(sigma))
    p_idx, t_idx = np.unravel_index(flat, sigma.shape)
    return BackflowReport(
        max_sigma=float(sigma[p_idx, t_idx]),
        argmax_label=pairs[p_idx].label,
        argmax_t=float(grid[t_idx]),
        sigma=sigma,
        pairs=pairs,
        one_sided=one_sided,
    )
