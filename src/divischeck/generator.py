"""Time-local generators in Kossakowski form and their numerical propagation.

A generator is specified by an optional Hamiltonian callback, the Hermitian
coefficient matrix C(t) over an orthonormal traceless operator basis {F_i}
(fixed or a callback; a diagonal C may be given as its real rates), and that
basis itself:

    L_t[rho] = -i [H_t, rho]
               + sum_ij C_ij(t) (F_i rho F_j† - (1/2){F_j† F_i, rho})

Propagation integrates d/dt M_t = L_t M_t from the identity with classical
fixed-step RK4.  Divisibility criteria at the generator level:

* C(t) >= 0 on a grid is sufficient for the intermediate maps between grid
  times to be completely positive (CP-divisibility, decided at grid
  resolution only);
* for qubit generators with diagonal C(t) = diag(g1, g2, g3), pairwise sums
  g_i + g_j >= 0 (i != j) characterize positivity of the intermediate maps
  (P-divisibility of the family).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import pauli_family
from .linalg import check_hermitian
from .superop import Superoperator

__all__ = [
    "GeneratorCheckReport",
    "GeneratorSpec",
    "PropagatedFamily",
    "cp_divisibility_check",
    "gell_mann_basis",
    "liouvillian",
    "model_generator",
    "p_divisibility_check_pauli",
    "propagate",
    "qubit_rate_generator",
    "rk4_increment",
]

BASIS_TOL = 1e-12
# Substeps whose L(t) matrices ``propagate`` stacks at once; bounds the
# memory of a long grid segment (block sizes 16 to 256 time the same).
_BLOCK = 64


def gell_mann_basis(d: int) -> list[np.ndarray]:
    """Orthonormal traceless Hermitian basis with Tr(F_i F_j) = delta_ij.

    Generalized Gell-Mann construction: for each index pair j < k a
    symmetric and an antisymmetric matrix, then the diagonal ladder.  For
    d = 2 this is exactly (sigma_1, sigma_2, sigma_3)/sqrt(2).
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    mats: list[np.ndarray] = []
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = inv_sqrt2
            asym = np.zeros((d, d), dtype=complex)
            asym[j, k] = -1j * inv_sqrt2
            asym[k, j] = 1j * inv_sqrt2
            mats.append(sym)
            mats.append(asym)
    for m in range(1, d):
        diag = np.zeros((d, d), dtype=complex)
        diag[np.diag_indices(m)] = 1.0
        diag[m, m] = -float(m)
        mats.append(diag / math.sqrt(m * (m + 1)))
    return mats


def _coefficients(value, n: int, t: float | None = None) -> np.ndarray:
    """Validated Kossakowski coefficient matrix C from either of its two forms.

    A one-dimensional value is the real diagonal of C, its rate vector: a
    real diagonal is Hermitian, so only its length, its real dtype and each
    entry's finiteness are checked, and the rates are written into the
    diagonal slots of a complex zero (n, n) matrix.  Any other value must be
    a finite Hermitian (n, n) matrix, and its exact Hermitian part is
    returned.  ``t`` only labels error messages.
    """
    c = np.asarray(value)
    if c.ndim == 1:
        if c.dtype.kind not in "iuf":
            raise ValueError(f"rates must be real, got dtype {c.dtype}")
        if not all(map(math.isfinite, c.tolist())):
            raise ValueError("rates have non-finite entries")
        form, expected = "rate vector", (n,)
    else:
        c, form, expected = check_hermitian(c), "matrix", (n, n)
    if c.shape != expected:
        at = "" if t is None else f" at t={t}"
        raise ValueError(f"coefficient {form}{at} has shape {c.shape}, expected {expected}")
    if c.ndim == 1:
        flat = np.zeros(n * n, dtype=complex)
        flat[::n + 1] = c
        c = flat.reshape(n, n)
    return c


@dataclass
class GeneratorSpec:
    """Kossakowski-form time-local generator.

    ``kossakowski`` is the Hermitian (d^2-1) x (d^2-1) coefficient matrix
    or, for a diagonal C, its real length-(d^2-1) rate vector; either form
    may be fixed or a callable t -> C(t), and a callable may return either
    form.  ``basis`` holds the d^2-1 orthonormal traceless operators C
    refers to.  Basis orthonormality and tracelessness are validated on
    construction.  One validation takes either form to the matrix C
    (diag(rates) for a rate vector): a fixed C once, on construction, stored
    read-only; a callable C(t) on every evaluation.  A matrix must be finite,
    Hermitian and of the right shape; a rate vector needs only the right
    length and real, finite entries.
    """

    dim: int
    kossakowski: Callable[[float], np.ndarray] | np.ndarray
    basis: Sequence[np.ndarray]
    hamiltonian: Callable[[float], np.ndarray] | None = None

    def __post_init__(self):
        n = self.dim * self.dim - 1
        if len(self.basis) != n:
            raise ValueError(f"need {n} basis operators for dimension {self.dim}, got {len(self.basis)}")
        self.basis = [np.asarray(f, dtype=complex) for f in self.basis]
        for i, fi in enumerate(self.basis):
            if fi.shape != (self.dim, self.dim):
                raise ValueError(f"basis operator {i} has shape {fi.shape}")
            if abs(np.trace(fi)) > BASIS_TOL:
                raise ValueError(f"basis operator {i} is not traceless: |trace| = {abs(np.trace(fi)):.3e}")
            for j, fj in enumerate(self.basis):
                overlap = np.trace(fi.conj().T @ fj)
                expected = 1.0 if i == j else 0.0
                if abs(overlap - expected) > BASIS_TOL:
                    raise ValueError(
                        f"basis is not orthonormal: Tr(F_{i}^dag F_{j}) = {overlap:.3e}"
                    )
        if not callable(self.kossakowski):
            self.kossakowski = _coefficients(self.kossakowski, n)
            self.kossakowski.flags.writeable = False

    def coefficient_matrix(self, t: float) -> np.ndarray:
        """Validated Hermitian C(t) as a matrix, diag(rates) for a rate
        vector; the read-only matrix itself when C is fixed."""
        c = self.kossakowski
        return _coefficients(c(t), self.dim * self.dim - 1, t) if callable(c) else c


def qubit_rate_generator(rates) -> GeneratorSpec:
    """Qubit generator with diagonal coefficient matrix diag(rates(t)).

    ``rates`` is either a fixed real triple, which becomes a fixed
    coefficient matrix validated once on construction, or a callable
    t -> real triple, whose rates are validated (length, real, finite) on
    every evaluation without a Hermiticity check.  With the basis
    sigma_k/sqrt(2), a coefficient c_k produces the dissipator
    (c_k/2)(sigma_k rho sigma_k - rho).
    """
    return GeneratorSpec(2, rates, gell_mann_basis(2))


def model_generator(alpha: float) -> GeneratorSpec:
    """The tanh-rate family: C(t) = diag(a, a, -a tanh t) over sigma_k/sqrt(2).

    C(0) is positive semidefinite; for every t > 0 the third coefficient is
    negative, so the generated family is never CP-divisible, yet the
    pairwise rate sums stay nonnegative (P-divisible).
    """
    return qubit_rate_generator(lambda t: pauli_family.rates(t, alpha))


def _dissipator_terms(g: GeneratorSpec) -> np.ndarray:
    """The t-independent structure of the dissipator in matrix form.

    Row i*n + j of the returned (n^2, d^4) array is the flattened
    superoperator matrix of X -> F_i X F_j† - (1/2){F_j† F_i, X} under
    column stacking, so C(t) contracts with it in one matmul.
    """
    d = g.dim
    n = d * d - 1
    eye = np.eye(d, dtype=complex)
    terms = np.empty((n, n, d * d, d * d), dtype=complex)
    for i, fi in enumerate(g.basis):
        for j, fj in enumerate(g.basis):
            a = fj.conj().T @ fi
            terms[i, j] = (
                np.kron(fj.conj(), fi)
                - 0.5 * (np.kron(eye, a) + np.kron(a.T, eye))
            )
    return terms.reshape(n * n, d ** 4)


def liouvillian(g: GeneratorSpec) -> Callable[[float], np.ndarray]:
    """Matrix form of the generator, as a cheap-to-evaluate closure.

    The basis-dependent structure is assembled once per closure; each call
    then only contracts it with C(t) and adds the Hamiltonian part.  A fixed
    C is contracted once, here: without a Hamiltonian every call returns
    that one read-only matrix.  A callable C goes through the same
    validation as a fixed one on every call, so a rate vector contracts as
    its diagonal matrix, bit for bit, without a Hermiticity check.
    """
    terms = _dissipator_terms(g)
    d = g.dim
    n = d * d - 1
    eye = np.eye(d, dtype=complex)
    fixed = None
    if not callable(g.kossakowski):
        fixed = (g.kossakowski.reshape(-1) @ terms).reshape(d * d, d * d)
        fixed.flags.writeable = False
        if g.hamiltonian is None:
            return lambda t: fixed

    def at(t: float) -> np.ndarray:
        if fixed is None:
            c = _coefficients(g.kossakowski(t), n, t)
            mat = (c.reshape(-1) @ terms).reshape(d * d, d * d)
        else:
            mat = fixed
        if g.hamiltonian is not None:
            h = check_hermitian(g.hamiltonian(t))
            mat = mat + (-1j) * (np.kron(eye, h) - np.kron(h.T, eye))
        return mat

    return at


@dataclass
class PropagatedFamily:
    """Maps recorded on an ascending time grid starting at 0 (identity first).

    ``segments[i]`` is the integrated propagator from ``grid[i]`` to
    ``grid[i + 1]``, the intermediate map V(t_{i+1}, t_i).
    """

    grid: np.ndarray
    maps: list[Superoperator]
    segments: list[Superoperator]


def rk4_increment(l_left: np.ndarray, l_mid: np.ndarray, l_right: np.ndarray,
                  h: float) -> np.ndarray:
    """Increment D of one classical RK4 step of d/dt M = L_t M over [t, t + h].

    ``l_left``, ``l_mid`` and ``l_right`` are L at t, t + h/2 and t + h; the
    step maps M to M + D M.  The L arguments may be stacks (..., n, n), one
    step per leading index, and D is stacked alike.
    """
    eye = np.eye(l_left.shape[-1], dtype=complex)
    k1 = l_left
    k2 = l_mid @ (eye + 0.5 * h * k1)
    k3 = l_mid @ (eye + 0.5 * h * k2)
    k4 = l_right @ (eye + h * k3)
    return (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def propagate(g: GeneratorSpec, grid, step: float) -> PropagatedFamily:
    """Integrate d/dt M_t = L_t M_t with fixed-step classical RK4.

    Each grid segment is covered by an integer number of substeps of size
    at most ``step``, so grid points are hit exactly.  The substeps go in
    blocks of at most ``_BLOCK``: one stacked ``rk4_increment`` call forms
    every increment D_n of a block.  The segment propagator P, started from
    I at each grid point, and the map M are chained side by side as one
    block [P | M] + D_n [P | M] (chaining the full steps I + D_n would round
    every D_n against I).  Deterministic.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 1:
        raise ValueError("grid must be a nonempty 1-d array of times")
    if not np.all(np.isfinite(grid)):
        raise ValueError("grid must be finite")
    if abs(grid[0]) > 1e-12:
        raise ValueError(f"grid must start at 0, got {grid[0]}")
    if len(grid) > 1 and np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly ascending")
    if not math.isfinite(step):
        raise ValueError("step must be finite")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if len(grid) > 1 and step > np.min(np.diff(grid)) + 1e-12:
        raise ValueError("step must not exceed the grid spacing")

    lmat = liouvillian(g)
    d2 = g.dim * g.dim
    eye = np.eye(d2, dtype=complex)
    pm = np.hstack([eye, eye])
    maps = [Superoperator(g.dim, eye)]
    segments = []
    l_left = lmat(float(grid[0]))
    for t0, t1 in zip(grid[:-1], grid[1:]):
        span = float(t1 - t0)
        nsub = max(1, math.ceil(span / step - 1e-12))
        h = span / nsub
        for start in range(0, nsub, _BLOCK):
            times = [float(t0) + k * h for k in range(start, min(start + _BLOCK, nsub))]
            mids = [lmat(t + 0.5 * h) for t in times]
            rights = [lmat(t + h) for t in times]
            lefts = [l_left] + rights[:-1]
            for dm in rk4_increment(np.stack(lefts), np.stack(mids), np.stack(rights), h):
                pm = pm + dm @ pm
            l_left = rights[-1]
        segments.append(Superoperator(g.dim, pm[:, :d2]))
        maps.append(Superoperator(g.dim, pm[:, d2:]))
        pm = np.hstack([eye, pm[:, d2:]])
    return PropagatedFamily(grid, maps, segments)


@dataclass
class GeneratorCheckReport:
    """Outcome of a generator-level divisibility criterion on a grid.

    The verdict is only as fine as the grid: ``note`` records the spacing
    so downstream consumers can qualify it.
    """

    criterion: str
    satisfied: bool
    worst_time: float
    worst_value: float
    worst_pair: tuple[int, int] | None
    grid_points: int
    grid_spacing: float
    note: str


def _grid_check(g: GeneratorSpec, grid, tol: float, criterion: str,
                value_at) -> GeneratorCheckReport:
    """Minimize ``value_at(C(t), t) -> (value, pair)`` over the grid.

    The first worst time (and pair) is kept on ties; the criterion is
    satisfied when the minimum is at least ``-tol``.
    """
    grid = np.asarray(grid, dtype=float)
    worst_value = np.inf
    worst_time = float(grid[0])
    worst_pair = None
    for t in grid:
        value, pair = value_at(g.coefficient_matrix(float(t)), float(t))
        if value < worst_value:
            worst_value = float(value)
            worst_time = float(t)
            worst_pair = pair
    spacing = float(np.min(np.diff(grid))) if len(grid) > 1 else 0.0
    return GeneratorCheckReport(
        criterion=criterion,
        satisfied=worst_value >= -tol,
        worst_time=worst_time,
        worst_value=worst_value,
        worst_pair=worst_pair,
        grid_points=len(grid),
        grid_spacing=spacing,
        note=f"verdict holds at grid resolution {spacing:g} only",
    )


def cp_divisibility_check(g: GeneratorSpec, grid, tol: float = 1e-9) -> GeneratorCheckReport:
    """CP-divisibility criterion: min eigenvalue of C(t) >= -tol on the grid.

    Nonnegative C on the whole grid is sufficient for the propagated
    intermediate maps to be completely positive; a negative eigenvalue
    pinpoints where and by how much the criterion fails.
    """
    return _grid_check(g, grid, tol, "kossakowski-positive",
                       lambda c, t: (np.linalg.eigvalsh(c)[0], None))


def p_divisibility_check_pauli(g: GeneratorSpec, grid, tol: float = 1e-9) -> GeneratorCheckReport:
    """P-divisibility criterion for qubit generators with diagonal C(t).

    Checks g_i(t) + g_j(t) >= -tol for all i != j over the grid; rejects
    generators whose coefficient matrix is not diagonal, because the
    pairwise-sum criterion only applies to that class.
    """
    if g.dim != 2:
        raise ValueError("the pairwise rate-sum criterion is specific to qubit generators")

    def rate_sums(c: np.ndarray, t: float):
        off = c - np.diag(np.diag(c))
        if np.max(np.abs(off)) > 1e-12 * max(1.0, float(np.max(np.abs(c)))):
            raise ValueError(
                f"coefficient matrix at t={t} is not diagonal; the criterion does not apply"
            )
        gam = np.real(np.diag(c))
        sums = [(float(gam[i] + gam[j]), (i, j)) for i, j in ((0, 1), (0, 2), (1, 2))]
        return min(sums, key=lambda vp: vp[0])

    return _grid_check(g, grid, tol, "pairwise-rate-sums", rate_sums)
