"""Divisibility scans over map families and the first-order tensor witness.

Scans test the consecutive segments V(t_{i+1}, t_i) of a propagated family,
checked when it was built, never a map formed from an inverse.  The
segments decide every grid pair: V(t_j, t_i) is the product of the
segments it spans, and both complete positivity and positivity of the
tensor square (V2 V1 (x) V2 V1 = (V2 (x) V2)(V1 (x) V1)) are kept under
composition, so a wider pair can only fail where a segment fails, up to
rounding at ``tol``.  Each segment is tested exactly for complete
positivity (the spectra of the Choi stack the family keeps), or by
randomized search for plain positivity of its tensor square, segment by
segment, the least CP segment first: a CP map has a positive tensor square,
so only a segment that is not CP can fail.  A "violated" verdict
always ships a witness that reproduces the reported value on
``worst_map``; a clean scan is only a statement about the grid and the
search budget.

The witness construction makes the tensor-square positivity failure of a
qubit generator explicit at first order.  Given C(s) with its most negative
eigenvalue c_min along u, build the traceless M with Tr(M F_i) = conj(u_i),
take the unitary U with M.T = U M U^-1, and set Phi† = U, Psi = M U^-1.
Regrouped into unit vectors psi, phi on the doubled space, they are an
orthogonal pair whose tensor-square matrix element leaves zero at rate
2 <u|C(s)|u> / (||Psi||^2 ||Phi||^2) = c_min (||Psi||^2 = 1, ||Phi||^2 = 2).
The finite-dt check evaluates the pair on V (x) V for one RK4 step V of L,
the kind of map the tensor probe tests, with the one RK4 step and stability
check ``generator.propagate`` uses.

Regrouping convention: the (a, b) entry of a d x d matrix becomes vector
component a*d + b (row-major).  This is deliberately *not* the column
stacking used for superoperator matrices; the two layers never mix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import superop
from .generator import GeneratorSpec, PropagatedFamily, check_rk4_step, liouvillian, rk4_increment
from .linalg import NumericalError, similarity_to_transpose

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
VIOLATED = "violated"


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
    worst_map: np.ndarray | None
    worst_value: float
    witness: np.ndarray | None = None
    witness_kind: str | None = None
    pairs_scanned: int = 0
    note: str = ""


def _report(family: PropagatedFamily, kind: str, tol: float, scanned: int, value: float,
            i: int | None, witness, witness_kind: str, note: str) -> DivisibilityReport:
    """Report a scan's lowest ``value``, scored on segment i (None if no
    segment was) with a copy of that segment, a violation below ``-tol``."""
    verdict = VIOLATED if value < -tol else HOLDS
    return DivisibilityReport(
        kind=kind,
        verdict=verdict,
        worst_pair=None if i is None else (float(family.grid[i]), float(family.grid[i + 1])),
        worst_map=None if i is None else family.segments[i].copy(),
        worst_value=float(value),
        witness=witness if verdict == VIOLATED else None,
        witness_kind=witness_kind if verdict == VIOLATED else None,
        pairs_scanned=scanned,
        note=note,
    )


def cp_divisibility_scan(family: PropagatedFamily, tol: float = 1e-9) -> DivisibilityReport:
    """Exact CP test of every segment V(t_{i+1}, t_i) of the family.

    The segments decide CP of every grid pair, as a product of CP maps is
    CP (up to rounding at ``tol``).  The ``argmin`` of the family's
    ``choi_min`` names the lowest segment, the first one on ties, and its
    row of ``choi_vectors`` is the witness.
    """
    n, note = len(family.segments), "exact Choi-spectrum test on the scanned pairs"
    if not n:
        return _report(family, "CP", tol, 0, np.inf, None, None, "choi-eigenvector", note)
    i = int(np.argmin(family.choi_min))
    return _report(family, "CP", tol, n, family.choi_min[i], i, family.choi_vectors[i].copy(),
                   "choi-eigenvector", note)


def tensor_p_divisibility_probe(family: PropagatedFamily, restarts: int = 100,
                                steps: int = 500, tol: float = 1e-9,
                                seed: int = 0) -> DivisibilityReport:
    """Randomized positivity search over tensor squares of the segments.

    For families whose coefficient matrix dips below zero somewhere, some
    tensor-squared segment fails positivity; the scan hunts for a pure
    two-party state exposing that failure and reports it with the violating
    (s, t) pair.  The segments decide every grid pair, as tensor squares of
    a product are the products of the tensor squares and positivity is kept
    under composition (up to rounding at ``tol``).  A CP segment has a CP,
    hence positive, tensor square, so segments go in ascending order of the
    family's ``choi_min``, the least CP first and grid order on ties.
    Segment i is searched from seed ``SeedSequence([seed, i, i + 1])``, and
    the scan stops at the first violating one; the lowest value scanned, the
    first one visited on ties, is reported.
    """
    best, worst, witness, scanned = np.inf, None, None, 0
    order = np.argsort(family.choi_min, kind="stable")
    for i in order.tolist():
        mat = family.segments[i]
        result = superop.positivity_probe(
            superop.tensor(mat, mat), restarts=restarts, steps=steps, stop_at=-tol,
            seed=np.random.SeedSequence([seed, i, i + 1]).generate_state(1)[0])
        scanned += 1
        if result.min_value < best:
            best, worst, witness = result.min_value, i, result.argmin_state
        if best < -tol:
            break
    return _report(family, "tensor-P", tol, scanned, best, worst, witness, "pure-state",
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


def first_order_witness(g: GeneratorSpec, s: float) -> FirstOrderWitness:
    """Build the orthogonal pair exposing a negative C(s) eigenvalue.

    Requires a qubit generator whose C(s) has a negative eigenvalue; the
    most negative one, c_min, is used.  The returned ``delta_rate`` is
    evaluated directly on the tensor generator L(s) (x) id + id (x) L(s)
    and comes out as c_min; a rate that is not negative, such as the NaN
    of an overflow, raises NumericalError.
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

    ident = superop.identity(g.dim)
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow's NaN is refused below
        single = liouvillian(g)(s)
        out = superop.apply(superop.tensor(single, ident) + superop.tensor(ident, single),
                            np.outer(psi, psi.conj()))
        delta_rate = float(np.real(np.vdot(phi, out @ phi)))
    if not delta_rate < 0:
        raise NumericalError(
            f"witness construction produced a rate {delta_rate:.3e} that is not negative "
            f"despite C(s) eigenvalue {c_min:.3e}"
        )
    return FirstOrderWitness(float(s), u, m, psi, phi, delta_rate, c_min)


def verify_witness(g: GeneratorSpec, w: FirstOrderWitness, dt: float = 1e-4) -> float:
    """Finite-dt check of a witness at its own time, on V (x) V for one RK4
    step V = I + D of L over [s, s + dt], s = ``w.s``: the tensor square of
    a segment, as the map scans test it.

    Returns <phi| (V (x) V)[|psi><psi|] |phi>, which should agree with
    dt * delta_rate up to O(dt^2).  ``check_rk4_step`` rejects ``dt`` first,
    on all three L values of the step, L(s), L(s + dt/2) and L(s + dt): the
    eigenvalues of V (x) V are products of V's, so it is stable iff V is.
    """
    if not math.isfinite(w.s):
        raise ValueError(f"witness time s must be finite, got {w.s}")
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    times = (w.s, w.s + 0.5 * dt, w.s + dt)
    ls = np.array(list(map(liouvillian(g), times)))
    check_rk4_step(dt, times, ls)
    v = np.eye(len(ls[0])) + rk4_increment(*ls, dt)
    out = superop.apply(superop.tensor(v, v), np.outer(w.psi, w.psi.conj()))
    return float(np.real(np.vdot(w.phi, out @ w.phi)))
