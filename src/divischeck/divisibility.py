"""Divisibility scans over map families and the first-order tensor witness.

Scans take the two-time propagators V(t_j, t_i) of a propagated family
from its integrated grid segments, never from an inverse: a consecutive
pair is one segment, a wider pair the running product of the segments it
spans.  Each is tested exactly for complete positivity (Choi spectrum), or
by randomized search for plain positivity of its tensor square.  A
"violated" verdict always ships a witness that reproduces the reported
value on ``worst_map``; a clean scan is only a statement about the grid and
the search budget.

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

import math
from dataclasses import dataclass

import numpy as np

from . import superop
from .generator import GeneratorSpec, PropagatedFamily, liouvillian, rk4_increment
from .linalg import NumericalError, similarity_to_transpose
from .superop import VIOLATED, Superoperator, identity, tensor

__all__ = [
    "HOLDS",
    "VIOLATED",
    "DivisibilityReport",
    "FirstOrderWitness",
    "cp_divisibility_scan",
    "first_order_witness",
    "tensor_p_divisibility_probe",
    "verify_witness",
]

HOLDS = "holds-on-grid"


@dataclass
class DivisibilityReport:
    """Verdict of a divisibility scan plus the evidence behind it.

    ``worst_map`` is the intermediate map that scored ``worst_value``.
    ``witness`` is present whenever the verdict is "violated": a Choi
    eigenvector for CP scans, a pure input state for the tensor probe.
    """

    kind: str                                # "CP" | "tensor-P"
    verdict: str                             # HOLDS | VIOLATED
    worst_pair: tuple[float, float] | None
    worst_map: Superoperator | None
    worst_value: float
    witness: np.ndarray | None = None
    witness_kind: str | None = None
    pairs_scanned: int = 0
    note: str = ""


def _intermediates(family: PropagatedFamily, all_pairs: bool):
    """Yield ``(i, j, V(t_j, t_i))`` for the selected grid pairs, i-major.

    Consecutive pairs are the integrated segments themselves; an all-pairs
    row i chains them as segs[j-1] @ ... @ segs[i], one product per j.
    """
    for i, seg in enumerate(family.segments):
        yield i, i + 1, seg
        if all_pairs:
            mat = seg.mat
            for j in range(i + 2, len(family.grid)):
                mat = family.segments[j - 1].mat @ mat
                yield i, j, Superoperator(seg.dim, mat)


def _scan(family: PropagatedFamily, kind: str, test, tol: float,
          all_pairs: bool, stop_on_violation: bool, witness_kind: str,
          note: str) -> DivisibilityReport:
    """Run ``test(inter, i, j) -> (value, witness)`` on every selected pair.

    The lowest value wins (the first one on ties); it is a violation when
    below ``-tol``.
    """
    grid = np.asarray(family.grid, dtype=float)
    worst = np.inf
    worst_pair = None
    worst_map = None
    witness = None
    scanned = 0
    for i, j, inter in _intermediates(family, all_pairs):
        value, vector = test(inter, i, j)
        scanned += 1
        if value < worst:
            worst = float(value)
            worst_pair = (float(grid[i]), float(grid[j]))
            worst_map = inter
            witness = vector
        if stop_on_violation and value < -tol:
            break
    verdict = VIOLATED if worst < -tol else HOLDS
    return DivisibilityReport(
        kind=kind,
        verdict=verdict,
        worst_pair=worst_pair,
        worst_map=worst_map,
        worst_value=worst,
        witness=witness if verdict == VIOLATED else None,
        witness_kind=witness_kind if verdict == VIOLATED else None,
        pairs_scanned=scanned,
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


def tensor_p_divisibility_probe(family: PropagatedFamily, restarts: int = 100,
                                steps: int = 500, tol: float = 1e-9,
                                seed: int = 0,
                                all_pairs: bool = False) -> DivisibilityReport:
    """Randomized positivity search over tensor squares of intermediate maps.

    For families whose coefficient matrix dips below zero somewhere, some
    tensor-squared intermediate map fails positivity; the scan hunts for a
    pure two-party state exposing that failure and reports it with the
    violating (s, t) pair.  It stops at the first violating pair.
    """
    def probe(inter, i, j):
        result = superop.positivity_probe(
            tensor(inter, inter), restarts=restarts, steps=steps, tol=tol,
            seed=np.random.SeedSequence([seed, i, j]).generate_state(1)[0],
            stop_at=-tol,
        )
        return result.min_value, result.argmin_state

    return _scan(family, "tensor-P", probe, tol, all_pairs, True,
                 "pure-state",
                 "randomized search: a violation is certified by its witness, "
                 "a clean scan is evidence only")


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
    if not math.isfinite(s):
        raise ValueError(f"witness time s must be finite, got {s}")
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
    """Finite-dt check of a witness: one RK4 step I + D of the tensor propagator.

    Returns <phi| T_{s+dt,s} [|psi><psi|] |phi>, which should agree with
    dt * delta_rate up to O(dt^2).
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    t2 = _tensor_liouvillian(g, liouvillian(g))
    big = g.dim * g.dim
    dm = rk4_increment(t2(s), t2(s + 0.5 * dt), t2(s + dt), dt)
    propagator = Superoperator(big, np.eye(big * big, dtype=complex) + dm)
    out = superop.apply(propagator, np.outer(w.psi, w.psi.conj()))
    return float(np.real(np.vdot(w.phi, out @ w.phi)))
