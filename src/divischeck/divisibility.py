"""Divisibility scans over map families and the first-order tensor witness.

Scans factor a family of maps recorded on a grid into two-time propagators
and test each one: exactly for complete positivity (Choi spectrum), and by
randomized search for plain positivity of the tensor square.  A "violated"
verdict always ships a witness that reproduces the reported value; a clean
scan is only a statement about the grid and the search budget.

The witness construction makes the tensor-square positivity failure
explicit at first order.  Given the coefficient matrix C(s) with a negative
eigenvalue along u, build the traceless matrix M with Tr(M F_i) = conj(u_i),
find the similarity U with M.T = U M U^-1, and set Phi† = U, Psi = M U^-1.
Regrouping Psi and Phi into vectors psi, phi on the doubled space gives an
orthogonal pair for which the tensor-square propagator over [s, s+dt]
develops a negative matrix element at rate 2 <u|C(s)|u> (after unit
normalization of psi and phi).

Regrouping convention: the (a, b) entry of a d x d matrix becomes vector
component a*d + b (row-major).  This is deliberately *not* the column
stacking used for superoperator matrices; the two layers never mix.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import pauli_family, superop
from .generator import GeneratorSpec, PropagatedFamily, liouvillian, rk4_step
from .linalg import NumericalError, similarity_to_transpose
from .superop import VIOLATED, Superoperator, identity, tensor

__all__ = [
    "HOLDS",
    "VIOLATED",
    "DivisibilityReport",
    "FirstOrderWitness",
    "cp_divisibility_scan",
    "first_order_witness",
    "model_family",
    "p_divisibility_probe",
    "semigroup_family",
    "tensor_p_divisibility_probe",
    "verify_witness",
]

HOLDS = "holds-on-grid"


@dataclass
class DivisibilityReport:
    """Verdict of a divisibility scan plus the evidence behind it.

    ``witness`` is present whenever the verdict is "violated": a Choi
    eigenvector for CP scans, a pure input state for positivity probes.
    ``flagged_pairs`` lists grid pairs skipped because the earlier map could
    not be inverted reliably.
    """

    kind: str                                # "CP" | "P" | "tensor-P"
    verdict: str                             # HOLDS | VIOLATED
    worst_pair: tuple[float, float] | None
    worst_indices: tuple[int, int] | None
    worst_value: float
    witness: np.ndarray | None = None
    witness_kind: str | None = None
    flagged_pairs: list = field(default_factory=list)
    pairs_scanned: int = 0
    grid: np.ndarray | None = None
    note: str = ""


def model_family(grid, alpha: float) -> PropagatedFamily:
    """Closed-form family of the tanh-rate channels on a time grid."""
    grid = np.asarray(grid, dtype=float)
    maps = [pauli_family.channel(float(t), alpha) for t in grid]
    return PropagatedFamily(grid, maps)


def semigroup_family(grid, alpha: float) -> PropagatedFamily:
    """Constant-rate depolarizing comparison family on a time grid."""
    grid = np.asarray(grid, dtype=float)
    maps = [pauli_family.semigroup_channel(float(t), alpha) for t in grid]
    return PropagatedFamily(grid, maps)


def _pair_indices(n: int, all_pairs: bool) -> list[tuple[int, int]]:
    if all_pairs:
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [(i, i + 1) for i in range(n - 1)]


def _scan(family: PropagatedFamily, kind: str, test, tol: float,
          all_pairs: bool, stop_on_violation: bool, witness_kind: str,
          note: str) -> DivisibilityReport:
    """Run ``test(inter, i, j) -> (value, witness)`` on every selected pair.

    Pairs whose earlier map cannot be inverted reliably are flagged and
    skipped.  The lowest value wins (the first one on ties); it is a
    violation when below ``-tol``.
    """
    grid = np.asarray(family.grid, dtype=float)
    worst = np.inf
    worst_pair = None
    worst_idx = None
    witness = None
    flagged = []
    scanned = 0
    for i, j in _pair_indices(len(grid), all_pairs):
        try:
            inter = superop.intermediate(family.maps[j], family.maps[i])
        except NumericalError as exc:
            flagged.append((float(grid[i]), float(grid[j]), str(exc)))
            continue
        value, vector = test(inter, i, j)
        scanned += 1
        if value < worst:
            worst = float(value)
            worst_pair = (float(grid[i]), float(grid[j]))
            worst_idx = (i, j)
            witness = vector
        if stop_on_violation and value < -tol:
            break
    verdict = VIOLATED if worst < -tol else HOLDS
    return DivisibilityReport(
        kind=kind,
        verdict=verdict,
        worst_pair=worst_pair,
        worst_indices=worst_idx,
        worst_value=worst,
        witness=witness if verdict == VIOLATED else None,
        witness_kind=witness_kind if verdict == VIOLATED else None,
        flagged_pairs=flagged,
        pairs_scanned=scanned,
        grid=grid,
        note=note,
    )


def cp_divisibility_scan(family: PropagatedFamily, tol: float = 1e-9,
                         all_pairs: bool = False) -> DivisibilityReport:
    """Exact CP test of every intermediate map on the selected grid pairs.

    Consecutive pairs by default (divisibility failures of the families
    studied here already show at infinitesimal steps); ``all_pairs``
    switches to the full upper-triangular pair set.
    """
    def choi_min(inter, i, j):
        cmat = superop.choi(inter)
        w, v = np.linalg.eigh(0.5 * (cmat + cmat.conj().T))
        return w[0], v[:, 0]

    return _scan(family, "CP", choi_min, tol, all_pairs, False,
                 "choi-eigenvector",
                 "exact Choi-spectrum test on the scanned pairs")


def _positivity_scan(family: PropagatedFamily, kind: str, lift, restarts: int,
                     steps: int, tol: float, seed: int, all_pairs: bool,
                     stop_on_violation: bool) -> DivisibilityReport:
    def probe(inter, i, j):
        result = superop.positivity_probe(
            lift(inter), restarts=restarts, steps=steps, tol=tol,
            seed=np.random.SeedSequence([seed, i, j]).generate_state(1)[0],
            stop_at=-tol if stop_on_violation else None,
        )
        return result.min_value, result.argmin_state

    return _scan(family, kind, probe, tol, all_pairs, stop_on_violation,
                 "pure-state",
                 "randomized search: a violation is certified by its witness, "
                 "a clean scan is evidence only")


def p_divisibility_probe(family: PropagatedFamily, restarts: int = 100,
                         steps: int = 500, tol: float = 1e-9, seed: int = 0,
                         all_pairs: bool = False,
                         stop_on_violation: bool = True) -> DivisibilityReport:
    """Randomized positivity search over the intermediate maps themselves."""
    return _positivity_scan(family, "P", lambda s: s, restarts, steps, tol,
                            seed, all_pairs, stop_on_violation)


def tensor_p_divisibility_probe(family: PropagatedFamily, restarts: int = 100,
                                steps: int = 500, tol: float = 1e-9,
                                seed: int = 0, all_pairs: bool = False,
                                stop_on_violation: bool = True) -> DivisibilityReport:
    """Randomized positivity search over tensor squares of intermediate maps.

    For families whose coefficient matrix dips below zero somewhere, some
    tensor-squared intermediate map fails positivity; the scan hunts for a
    pure two-party state exposing that failure and reports it with the
    violating (s, t) pair.
    """
    return _positivity_scan(family, "tensor-P", lambda s: tensor(s, s),
                            restarts, steps, tol, seed, all_pairs,
                            stop_on_violation)


@dataclass
class FirstOrderWitness:
    """Constructive first-order violation of tensor-square positivity.

    ``psi`` and ``phi`` are orthogonal unit vectors on the doubled space;
    ``delta_rate`` is the (negative) rate at which the matrix element
    <phi| T_{s+dt,s} [|psi><psi|] |phi> leaves zero.
    """

    s: float
    u: np.ndarray
    m: np.ndarray
    psi: np.ndarray
    phi: np.ndarray
    delta_rate: float
    c_min: float


def _tensor_liouvillian(g: GeneratorSpec, lmat_at):
    """Closure returning the matrix of L_t (x) id + id (x) L_t."""
    ident = identity(g.dim)

    def at(t: float) -> np.ndarray:
        single = Superoperator(g.dim, lmat_at(t))
        return tensor(single, ident).mat + tensor(ident, single).mat

    return at


def first_order_witness(g: GeneratorSpec, s: float) -> FirstOrderWitness:
    """Build the orthogonal pair exposing a negative C(s) eigenvalue.

    Requires C(s) to have a negative eigenvalue; the most negative one is
    used.  The returned ``delta_rate`` is evaluated directly on the tensor
    generator and must come out negative.
    """
    c = g.coefficient_matrix(s)
    w, vmat = np.linalg.eigh(c)
    c_min = float(w[0])
    if c_min >= -1e-15:
        raise ValueError(
            f"coefficient matrix at s={s} is positive semidefinite "
            f"(min eigenvalue {c_min:.3e}): no first-order witness exists"
        )
    u = vmat[:, 0]

    # Tr(M F_i) = conj(u_i) by basis orthonormality; Tr M = 0 follows from
    # the tracelessness of every F_i.
    m = np.zeros((g.dim, g.dim), dtype=complex)
    for ui, fi in zip(u, g.basis):
        m += np.conj(ui) * fi.conj().T

    umat = similarity_to_transpose(m)
    phi_mat = umat.conj().T           # Phi with Phi† = U
    psi_mat = m @ np.linalg.inv(umat)
    psi = psi_mat.reshape(-1)         # row-major regrouping
    phi = phi_mat.reshape(-1)
    psi = psi / np.linalg.norm(psi)
    phi = phi / np.linalg.norm(phi)
    overlap = abs(np.vdot(phi, psi))
    if overlap > 1e-10:
        raise NumericalError(
            f"witness vectors failed orthogonality: |<phi|psi>| = {overlap:.3e}"
        )

    t2 = _tensor_liouvillian(g, liouvillian(g))(s)
    rho = np.outer(psi, psi.conj())
    out = superop.apply(Superoperator(g.dim * g.dim, t2), rho)
    delta_rate = float(np.real(np.vdot(phi, out @ phi)))
    if delta_rate >= 0:
        raise NumericalError(
            f"witness construction produced a nonnegative rate {delta_rate:.3e} "
            f"despite C(s) eigenvalue {c_min:.3e}"
        )
    return FirstOrderWitness(float(s), u, m, psi, phi, delta_rate, c_min)


def verify_witness(g: GeneratorSpec, s: float, w: FirstOrderWitness,
                   dt: float = 1e-4) -> float:
    """Finite-dt check of a witness: one RK4 step of the tensor propagator.

    Returns <phi| T_{s+dt,s} [|psi><psi|] |phi>, which should agree with
    dt * delta_rate up to O(dt^2).
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    t2 = _tensor_liouvillian(g, liouvillian(g))
    big = g.dim * g.dim
    step = rk4_step(np.eye(big * big, dtype=complex),
                    t2(s), t2(s + 0.5 * dt), t2(s + dt), dt)
    propagator = Superoperator(big, step)
    out = superop.apply(propagator, np.outer(w.psi, w.psi.conj()))
    return float(np.real(np.vdot(w.phi, out @ w.phi)))
