"""Divisibility scans over map families and the first-order tensor witness.

Scans take the two-time propagators V(t_j, t_i) of a propagated family
from its integrated grid segments, never from an inverse: a consecutive
pair is one segment, a wider pair the running product of the segments it
spans.  Each is tested exactly for complete positivity (Choi spectrum), or
by randomized search for plain positivity of its tensor square.  A
"violated" verdict always ships a witness that reproduces the reported
value on ``worst_map``; a clean scan is only a statement about the grid and
the search budget.

The witness construction makes the tensor-square positivity failure of a
qubit generator explicit at first order.  Given C(s) with its most negative
eigenvalue c_min along u, build the traceless M with Tr(M F_i) = conj(u_i),
take the unitary U with M.T = U M U^-1, and set Phi† = U, Psi = M U^-1.
Regrouped into unit vectors psi, phi on the doubled space, they are an
orthogonal pair whose tensor-square matrix element leaves zero at rate
2 <u|C(s)|u> / (||Psi||^2 ||Phi||^2) = c_min (||Psi||^2 = 1, ||Phi||^2 = 2).

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


@dataclass(eq=False)
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


def _scan(family: PropagatedFamily, kind: str, results, tol: float,
          stop_on_violation: bool, witness_kind: str, note: str) -> DivisibilityReport:
    """Keep the lowest of ``results``, one (i, j, V(t_j, t_i), value,
    witness) per scanned grid pair, in any order of offsets.

    The lowest value wins, the first pair in i-major order on ties; it is a
    violation when below ``-tol``.
    """
    grid = np.asarray(family.grid, dtype=float)
    worst, worst_i, worst_j, worst_map, witness = np.inf, 0, 0, None, None
    scanned = 0
    for i, j, inter, value, vector in results:
        scanned += 1
        if (value, i) < (worst, worst_i):
            worst, worst_i, worst_j, worst_map, witness = float(value), i, j, inter, vector
        if stop_on_violation and value < -tol:
            break
    verdict = VIOLATED if worst < -tol else HOLDS
    return DivisibilityReport(
        kind=kind,
        verdict=verdict,
        worst_pair=None if worst_map is None else (float(grid[worst_i]), float(grid[worst_j])),
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
    switches to the full upper-triangular pair set.  The pairs go by
    diagonal offset k: the maps V(t_{i+k}, t_i) of one offset are one
    stack, the segments for k = 1 and segs[i+k-1] @ V(t_{i+k-1}, t_i) after
    it (the running products of ``_intermediates``, bit for bit), and one
    stacked Choi ``eigh`` decides them all.
    """
    def choi_minima():
        segs = np.array([seg.mat for seg in family.segments])
        stack = segs
        for k in range(1, (len(segs) if all_pairs else min(len(segs), 1)) + 1):
            if k > 1:
                stack = segs[k - 1:] @ stack[:-1]
            cmat = superop.choi(stack)
            w, v = np.linalg.eigh(0.5 * (cmat + cmat.conj().swapaxes(-1, -2)))
            for i, (seg, mat) in enumerate(zip(family.segments, stack)):
                inter = seg if k == 1 else Superoperator(seg.dim, mat)
                yield i, i + k, inter, w[i, 0], v[i, :, 0]

    return _scan(family, "CP", choi_minima(), tol, False, "choi-eigenvector",
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
    def probed():
        for i, j, inter in _intermediates(family, all_pairs):
            result = superop.positivity_probe(
                tensor(inter, inter), restarts=restarts, steps=steps, tol=tol,
                seed=np.random.SeedSequence([seed, i, j]).generate_state(1)[0],
                stop_at=-tol,
            )
            yield i, j, inter, result.min_value, result.argmin_state

    return _scan(family, "tensor-P", probed(), tol, True,
                 "pure-state",
                 "randomized search: a violation is certified by its witness, "
                 "a clean scan is evidence only")


@dataclass(eq=False)
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


def _tensor_liouvillian(g: GeneratorSpec):
    """Closure returning the matrix of L_t (x) id + id (x) L_t."""
    lmat_at = liouvillian(g)
    ident = identity(g.dim)

    def at(t: float) -> np.ndarray:
        single = Superoperator(g.dim, lmat_at(t))
        return tensor(single, ident).mat + tensor(ident, single).mat

    return at


def first_order_witness(g: GeneratorSpec, s: float) -> FirstOrderWitness:
    """Build the orthogonal pair exposing a negative C(s) eigenvalue.

    Requires a qubit generator whose C(s) has a negative eigenvalue; the
    most negative one, c_min, is used.  The returned ``delta_rate`` is
    evaluated directly on the tensor generator and comes out as c_min.
    """
    if g.dim != 2:
        raise ValueError("the first-order witness is built for qubit generators only")
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

    # M = sum_i conj(u_i) F_i†, so Tr(M F_i) = conj(u_i) by basis
    # orthonormality; Tr M = 0 follows from the tracelessness of every F_i.
    m = np.einsum("i,iba->ab", np.conj(u), g.basis.conj())

    umat = similarity_to_transpose(m)
    phi_mat = umat.conj().T           # Phi with Phi† = U
    psi_mat = m @ phi_mat             # U^-1 = U† for the unitary U
    psi = psi_mat.reshape(-1)         # row-major regrouping
    phi = phi_mat.reshape(-1)
    psi = psi / np.linalg.norm(psi)
    phi = phi / np.linalg.norm(phi)
    overlap = abs(np.vdot(phi, psi))
    if overlap > 1e-10:
        raise NumericalError(
            f"witness vectors failed orthogonality: |<phi|psi>| = {overlap:.3e}"
        )

    t2 = _tensor_liouvillian(g)(s)
    rho = np.outer(psi, psi.conj())
    out = superop.apply(Superoperator(g.dim * g.dim, t2), rho)
    delta_rate = float(np.real(np.vdot(phi, out @ phi)))
    if delta_rate >= 0:
        raise NumericalError(
            f"witness construction produced a nonnegative rate {delta_rate:.3e} "
            f"despite C(s) eigenvalue {c_min:.3e}"
        )
    return FirstOrderWitness(float(s), u, m, psi, phi, delta_rate, c_min)


def verify_witness(g: GeneratorSpec, w: FirstOrderWitness, dt: float = 1e-4) -> float:
    """Finite-dt check of a witness at its own time: one RK4 step I + D of
    the tensor propagator over [s, s + dt], s = ``w.s``.

    Returns <phi| T_{s+dt,s} [|psi><psi|] |phi>, which should agree with
    dt * delta_rate up to O(dt^2).
    """
    if not math.isfinite(w.s):
        raise ValueError(f"witness time s must be finite, got {w.s}")
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    t2 = _tensor_liouvillian(g)
    big = g.dim * g.dim
    dm = rk4_increment(t2(w.s), t2(w.s + 0.5 * dt), t2(w.s + dt), dt)
    propagator = Superoperator(big, np.eye(big * big, dtype=complex) + dm)
    out = superop.apply(propagator, np.outer(w.psi, w.psi.conj()))
    return float(np.real(np.vdot(w.phi, out @ w.phi)))
