"""Trace-distance information flow and back-flow scans.

The flow rate at time t for a pair of states is the time derivative of
N(t) = || map_t[rho1 - rho2] ||_1 (no 1/2 prefactor), estimated by a central
finite difference, forward for t < h.  Negative rates mean the pair is
becoming less distinguishable; a positive rate is back-flow: the environment
is returning information to the system.

:func:`backflow_scan` hunts for positive rates over a grid for the
:class:`StatePairs` it is given, one checked stack; :func:`pair_library`
builds the default set.  Like the positivity probes, the scan is asymmetric:
a positive rate found is constructive evidence of back-flow (pair, time,
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

from .linalg import PAULI, check_grid, hermitian_faults
from .superop import CHOI_RTOL, apply, choi

__all__ = [
    "BackflowReport",
    "StatePairs",
    "backflow_scan",
    "bell_pairs",
    "check_flow_samples",
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
#: the difference step's floor, times max(1, |t|) over the grid: the norms round
#: by a few 1e-16 and t +- h by 1e-16 |t|, noise that swamps the rates below it
#: (the default qubit scan reads a false back-flow of +1.1e-3 at h = 1e-13).
FD_STEP_FLOOR = 1e-8
#: (pair, time) samples one back-flow scan takes at most, each family on its
#: own: the default two-qubit scan takes 113 x 201 = 22,713.
MAX_FLOW_SAMPLES = 10**7


@dataclass(eq=False)
class StatePairs:
    """Labeled state pairs, one (n, 2, d, d) stack of (rho1, rho2), checked
    once as a stack when built: finiteness, Hermiticity, unit trace and
    positivity (one stacked ``eigvalsh``), in that order; a failure names the
    first bad state by pair label and slot.  The stack is read-only, and
    ``a + b`` is a new set, the pairs of ``a`` then ``b``, checked again."""

    states: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        self.states = states = np.array(self.states, dtype=complex)
        self.labels = labels = tuple(self.labels)
        n, d = len(labels), states.shape[-1] if states.ndim else 0
        if states.shape != (n, 2, d, d):
            raise ValueError(f"{n} labeled state pairs need an ({n}, 2, d, d) stack, "
                             f"got shape {states.shape}")

        def check(ok: np.ndarray, fault: str) -> None:
            if not ok.all():
                k, slot = np.argwhere(~ok)[0]
                raise ValueError(f"pair {labels[k]} rho{slot + 1} {fault}")

        check(np.isfinite(states).all(axis=(2, 3)), "has non-finite entries")
        adjoint = states.conj().swapaxes(2, 3)
        check(np.abs(states - adjoint).max(axis=(2, 3)) <= STATE_TOL,
              f"is not Hermitian within {STATE_TOL:.0e}")
        check(np.abs(np.trace(states, axis1=2, axis2=3) - 1.0) <= STATE_TOL,
              "does not have unit trace")
        check(np.linalg.eigvalsh(0.5 * (states + adjoint))[..., 0] >= -STATE_TOL,
              f"is not positive semidefinite within {STATE_TOL:.0e}")
        states.flags.writeable = False

    def __len__(self) -> int:
        return len(self.labels)

    def __add__(self, other: StatePairs) -> StatePairs:
        return StatePairs(np.concatenate([self.states, other.states]), self.labels + other.labels)


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


def _unordered_pairs(prefix: str, names: list[str], vectors) -> StatePairs:
    """Pure-state pairs for every unordered pair of the named vectors, in order."""
    ij = np.array(list(itertools.combinations(range(len(names)), 2)))
    return StatePairs(_projectors(vectors)[ij], [f"{prefix}:{names[i]}/{names[j]}" for i, j in ij])


def bell_pairs() -> StatePairs:
    """All six unordered pairs of distinct Bell states."""
    s = 1.0 / np.sqrt(2.0)
    bell = [[s, 0, 0, s], [s, 0, 0, -s], [0, s, s, 0], [0, s, -s, 0]]
    return _unordered_pairs("bell", ["phi+", "phi-", "psi+", "psi-"], bell)


def product_pairs() -> StatePairs:
    """Orthogonal computational product pairs on two qubits."""
    return _unordered_pairs("prod", ["00", "01", "10", "11"], np.eye(4, dtype=complex))


def qubit_axis_pairs() -> StatePairs:
    """Antipodal single-qubit pairs along the z, x and y Bloch axes."""
    s = 1.0 / np.sqrt(2.0)
    vectors = [[[1, 0], [0, 1]], [[s, s], [s, -s]], [[s, 1j * s], [s, -1j * s]]]
    return StatePairs(_projectors(vectors), ["axis:z", "axis:x", "axis:y"])


def tilted_parity_pairs() -> StatePairs:
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
    return StatePairs([[rho1, rho2]], ["mixed:tilted-parity"])


def pair_library(dim: int, samples: int = 0, seed: int = 0) -> StatePairs:
    """The default pairs of a scan: the fixed library, then ``samples``
    Haar-orthogonal pure pairs drawn from ``default_rng(seed)``.

    The fixed library: for two qubits the Bell pairs, the computational product
    pairs and the tilted-parity mixed pair; for one qubit the Bloch-axis pairs.
    Each random pair is two columns of a Haar unitary (QR trick), all drawn,
    factored and validated as one stack.
    """
    if dim < 2:
        raise ValueError(f"an orthogonal pair needs dimension at least 2, got {dim}")
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    g = np.random.default_rng(seed).standard_normal((samples, 2, dim, 2))
    q, r = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
    # fix the phase convention so each pair is a deterministic function of its draw
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (d / np.abs(d))[:, None, :]
    haar = StatePairs(_projectors(q.swapaxes(1, 2)), [f"haar:{k}" for k in range(samples)])
    if dim == 4:
        return bell_pairs() + product_pairs() + tilted_parity_pairs() + haar
    if dim == 2:
        return qubit_axis_pairs() + haar
    return haar


def check_flow_samples(pairs: int, times: int) -> None:
    """Refuse a scan of ``pairs`` state pairs over ``times`` grid times that
    takes more than MAX_FLOW_SAMPLES (pair, time) samples."""
    if pairs * times > MAX_FLOW_SAMPLES:
        raise ValueError(f"the scan needs {pairs * times} (pair, time) samples, more than "
                         f"the bound MAX_FLOW_SAMPLES = {MAX_FLOW_SAMPLES}")


@dataclass(eq=False)
class BackflowReport:
    """Full distribution of flow-rate samples over (pair, time)."""

    max_sigma: float
    argmax_label: str
    argmax_t: float
    sigma: np.ndarray                 # shape (n_pairs, n_times)
    pairs: StatePairs = field(repr=False)


def _refuse(ends: list, bad: np.ndarray | None, fault: str) -> None:
    """Name the first map of a block that ``bad`` marks, by its time in ``ends``."""
    if bad is not None and bad.any():
        k, side = np.argwhere(bad)[0]
        raise ValueError(f"map at t={ends[k][side]!r} {fault}")


def backflow_scan(map_at: Callable[[float], np.ndarray], pairs: StatePairs,
                  grid, h: float = 1e-4) -> BackflowReport:
    """Scan flow rates of the given state ``pairs``, in order, over a grid
    (nonempty, finite and strictly ascending) with difference step ``h``.

    A step ``h`` below FD_STEP_FLOOR x max(1, |t|) over the grid, or a scan
    of more than MAX_FLOW_SAMPLES (pair, time) samples, is refused before any
    map is built.  The grid is walked in blocks of at most ``_BLOCK`` times.
    The two maps of each time's finite difference are built one ``map_at``
    call at a time; a map that is not finite, or not Hermiticity-preserving
    (its Choi matrix not Hermitian within ``superop.CHOI_RTOL`` of its own
    scale, is_cp's rule), is refused by its time.  Each block applies all
    its maps to every pair difference in one ``superop.apply``, each row's
    bits the same in any stack, and takes their trace norms in one call.
    """
    if not 0 < h < math.inf:
        raise ValueError(f"step h must be positive and finite, got {h}")
    grid = check_grid(grid)
    floor = FD_STEP_FLOOR * max(1.0, float(np.abs(grid).max()))
    if h < floor:
        raise ValueError(f"step h={h!r} is below the floor {floor!r} = FD_STEP_FLOOR x "
                         f"max(1, |t|) over the grid, where rounding swamps the rates")
    if not pairs:
        raise ValueError("no state pairs to scan")
    n = len(pairs)
    check_flow_samples(n, len(grid))
    deltas = pairs.states[:, 0] - pairs.states[:, 1]
    sigma = np.empty((n, len(grid)))
    for start in range(0, len(grid), _BLOCK):
        times = grid[start:start + _BLOCK].tolist()
        # forward difference for t < h, central otherwise
        ends = [(t, t + h) if t < h else (t - h, t + h) for t in times]
        denom = np.array([h if t < h else 2.0 * h for t in times])
        mats = np.array([[map_at(t_lo), map_at(t_hi)] for t_lo, t_hi in ends], dtype=complex)
        # only finite maps reach choi, which checks their shape
        _refuse(ends, ~np.isfinite(mats).all(axis=tuple(range(2, mats.ndim))),
                "has non-finite entries")
        c = choi(mats)
        _refuse(ends, hermitian_faults(c, c.conj().swapaxes(-1, -2), CHOI_RTOL),
                "is not Hermiticity-preserving")
        n_lo, n_hi = _trace_norms(apply(mats, deltas)).transpose(1, 2, 0)
        sigma[:, start:start + _BLOCK] = (n_hi - n_lo) / denom
    p_idx, t_idx = np.unravel_index(int(np.argmax(sigma)), sigma.shape)
    return BackflowReport(
        max_sigma=float(sigma[p_idx, t_idx]),
        argmax_label=pairs.labels[p_idx],
        argmax_t=float(grid[t_idx]),
        sigma=sigma,
        pairs=pairs,
    )
