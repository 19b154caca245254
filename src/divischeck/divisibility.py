"""Divisibility scans over map families and the first-order tensor witness.

Scans take the two-time propagators V(t_j, t_i) of a propagated family
from its integrated grid segments, never from an inverse.  Both scans walk
the pairs one way, as stacks of one diagonal offset k = j - i each: the
segments for k = 1, and for wider pairs the product of the segments they
span, one batched matmul per offset.  Each map is tested exactly for
complete positivity (stacked Choi spectra), or by randomized search for
plain positivity of its tensor square, pair by pair.  A
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
from .superop import VIOLATED, identity, tensor

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
    worst_map: np.ndarray | None
    worst_value: float
    witness: np.ndarray | None = None
    witness_kind: str | None = None
    pairs_scanned: int = 0
    note: str = ""


def _offset_stacks(family: PropagatedFamily, all_pairs: bool):
    """Yield ``(k, stack)`` lazily for the diagonal offsets k of the selected
    grid pairs, offset 1 first, with stack[i] = V(t_{i+k}, t_i).

    Offset 1 is the stack of integrated segments; each later offset is one
    batched matmul, segs[i+k-1] @ V(t_{i+k-1}, t_i).  Consecutive pairs
    stop after offset 1.
    """
    segs = stack = family.segments
    for k in range(1, (len(segs) if all_pairs else min(len(segs), 1)) + 1):
        if k > 1:
            stack = segs[k - 1:] @ stack[:-1]
        yield k, stack


def _report(family: PropagatedFamily, kind: str, tol: float, scanned: int, best,
            worst_mat, witness, witness_kind: str, note: str) -> DivisibilityReport:
    """Report a scan's lowest ``best`` = (value, i, j) with a copy of that
    pair's map ``worst_mat`` (maybe a view of the family's segments), a
    violation below ``-tol``; (inf, 0, 0) and no matrix if nothing was scanned."""
    value, i, j = best
    verdict = VIOLATED if value < -tol else HOLDS
    return DivisibilityReport(
        kind=kind,
        verdict=verdict,
        worst_pair=None if worst_mat is None else (float(family.grid[i]), float(family.grid[j])),
        worst_map=None if worst_mat is None else worst_mat.copy(),
        worst_value=float(value),
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
    switches to the full upper-triangular pair set.  One stacked Choi
    ``eigh`` decides each offset stack and its ``argmin`` names the offset's
    lowest pair; the lowest (value, i, j) over all offsets wins, so ties go
    to the first pair in i-major order.
    """
    best, worst_mat, witness, scanned = (np.inf, 0, 0), None, None, 0
    for k, stack in _offset_stacks(family, all_pairs):
        cmat = superop.choi(stack)
        w, v = np.linalg.eigh(0.5 * (cmat + cmat.conj().swapaxes(-1, -2)))
        i = int(np.argmin(w[:, 0]))
        scanned += len(stack)
        if (w[i, 0], i, i + k) < best:
            best, worst_mat, witness = (w[i, 0], i, i + k), stack[i], v[i, :, 0]
    return _report(family, "CP", tol, scanned, best, worst_mat, witness, "choi-eigenvector",
                   "exact Choi-spectrum test on the scanned pairs")


def tensor_p_divisibility_probe(family: PropagatedFamily, restarts: int = 100,
                                steps: int = 500, tol: float = 1e-9,
                                seed: int = 0,
                                all_pairs: bool = False) -> DivisibilityReport:
    """Randomized positivity search over tensor squares of intermediate maps.

    For families whose coefficient matrix dips below zero somewhere, some
    tensor-squared intermediate map fails positivity; the scan hunts for a
    pure two-party state exposing that failure and reports it with the
    violating (s, t) pair.  It walks the offset stacks pair by pair, so
    shortest intervals first, and stops at the first violating pair; pair
    (i, j) is searched from seed ``SeedSequence([seed, i, j])`` whatever the
    walk.  The lowest (value, i, j) scanned is reported.
    """
    best, worst_mat, witness, scanned = (np.inf, 0, 0), None, None, 0
    pairs = ((i, i + k, mat) for k, stack in _offset_stacks(family, all_pairs)
             for i, mat in enumerate(stack))
    for i, j, mat in pairs:
        result = superop.positivity_probe(
            tensor(mat, mat), restarts=restarts, steps=steps, tol=tol,
            seed=np.random.SeedSequence([seed, i, j]).generate_state(1)[0],
            stop_at=-tol,
        )
        scanned += 1
        if (result.min_value, i, j) < best:
            best, worst_mat, witness = (result.min_value, i, j), mat, result.argmin_state
        if best[0] < -tol:
            break
    return _report(family, "tensor-P", tol, scanned, best, worst_mat, witness, "pure-state",
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
        single = lmat_at(t)
        return tensor(single, ident) + tensor(ident, single)

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
    out = superop.apply(t2, rho)
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
    dm = rk4_increment(t2(w.s), t2(w.s + 0.5 * dt), t2(w.s + dt), dt)
    out = superop.apply(np.eye(len(dm), dtype=complex) + dm, np.outer(w.psi, w.psi.conj()))
    return float(np.real(np.vdot(w.phi, out @ w.phi)))
