"""Time-local generators in Kossakowski form and their numerical propagation.

A generator is specified by its dimension d, an optional Hamiltonian
callback and the Hermitian coefficient matrix C(t) (fixed or a callback; a
diagonal C may be given as its real rates) over the Gell-Mann basis {F_i} =
``gell_mann_basis(d)``, sigma_k/sqrt(2) for qubits:

    L_t[rho] = -i [H_t, rho]
               + sum_ij C_ij(t) (F_i rho F_j† - (1/2){F_j† F_i, rho})

The basis is not an input: a generator with matrix C over another
orthonormal traceless basis B has C' = W C W† here, W_ki = Tr(F_k† B_i).

Propagation integrates d/dt M_t = L_t M_t from the identity with classical
fixed-step RK4, multiplying each block of substeps out in one pairwise tree.
Divisibility criteria at the generator level:

* C(t) >= 0 on a grid is sufficient for the intermediate maps between grid
  times to be completely positive (CP-divisibility, decided at grid
  resolution only, or at every t for a fixed C);
* for qubit generators with diagonal C(t) = diag(g1, g2, g3) over the Pauli
  basis, pairwise sums g_i + g_j >= 0 (i != j) characterize positivity of
  the intermediate maps (P-divisibility of the family).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import pauli_family, superop
from .linalg import check_grid, check_hermitian

__all__ = [
    "GeneratorCheckReport",
    "GeneratorSpec",
    "PropagatedFamily",
    "check_rk4_step",
    "cp_divisibility_check",
    "gell_mann_basis",
    "liouvillian",
    "model_generator",
    "p_divisibility_check_pauli",
    "propagate",
    "qubit_rate_generator",
    "rk4_increment",
]

# Substeps of one block that ``propagate`` multiplies out at most, which
# bounds its memory: a longer segment goes in several blocks.  Consecutive
# blocks of equal length share stacks of at most _STACK substeps, as each
# stack costs a fixed Python overhead and a tree over one block is only
# log2(_BLOCK) levels deep.  Products of steps are kept as E = P - I, as P
# would round every increment against I's units.
_BLOCK = 64
_STACK = 128
# Substeps ``propagate`` takes at most, all segments together: at 6-9 us each
# (2-core Xeon), one to two minutes.  It refuses more before evaluating any L.
MAX_RK4_SUBSTEPS = 10**7


def gell_mann_basis(d: int) -> np.ndarray:
    """Orthonormal traceless Hermitian basis with Tr(F_i F_j) = delta_ij,
    stacked as one (d^2-1, d, d) array.

    Generalized Gell-Mann construction: for each index pair j < k a
    symmetric and an antisymmetric matrix, then the diagonal ladder.  For
    d = 2 this is exactly (sigma_1, sigma_2, sigma_3)/sqrt(2).
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    basis = np.zeros((d * d - 1, d, d), dtype=complex)
    for i, (j, k) in enumerate(itertools.combinations(range(d), 2)):
        basis[2 * i, j, k] = basis[2 * i, k, j] = inv_sqrt2
        basis[2 * i + 1, j, k], basis[2 * i + 1, k, j] = -1j * inv_sqrt2, 1j * inv_sqrt2
    for m in range(1, d):  # the ladder fills the last d - 1 slots
        norm = math.sqrt(m * (m + 1))
        basis[m - d, range(m), range(m)] = 1.0 / norm
        basis[m - d, m, m] = -float(m) / norm
    return basis


def _coefficients(value, n: int, t: float | None = None) -> np.ndarray:
    """Validated Kossakowski coefficients C, in the form they were given.

    A one-dimensional value is the real diagonal of C, its rate vector: a
    real diagonal is Hermitian, so only its length, its real dtype and each
    entry's finiteness are checked, and the rates are returned as they are.
    Any other value must be a finite Hermitian (n, n) matrix, and its exact
    Hermitian part is returned.  ``t`` only labels error messages.
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
    return c


def _float_rates(c, n: int) -> bool:
    """Whether c is a tuple of n finite Python floats, checked without an array."""
    if type(c) is not tuple or len(c) != n:
        return False
    for x in c:
        if type(x) is not float or not math.isfinite(x):
            return False
    return True


def _as_matrix(c: np.ndarray) -> np.ndarray:
    """Validated C as a complex matrix, diag(rates) for a rate vector."""
    return np.diag(c).astype(complex) if c.ndim == 1 else c


@dataclass(eq=False)
class GeneratorSpec:
    """Kossakowski-form time-local generator over ``gell_mann_basis(dim)``.

    ``kossakowski`` is the Hermitian (d^2-1) x (d^2-1) coefficient matrix
    or, for a diagonal C, its real length-(d^2-1) rate vector; either form
    may be fixed or a callable t -> C(t), and a callable may return either
    form.  ``hamiltonian``, keyword-only, is a callable t -> H(t), checked
    Hermitian and (d, d) on every L(t) evaluation.  ``basis`` is not an
    input: it is the read-only Gell-Mann stack C refers to.  One validation
    takes either form to the matrix C (diag(rates) for a rate vector): a
    fixed C once, on construction, stored read-only; a callable C(t) on
    every evaluation.  A matrix must be finite, Hermitian and of the right
    shape; a rate vector needs only the right length and real, finite
    entries.
    """

    dim: int
    kossakowski: Callable[[float], np.ndarray] | np.ndarray
    hamiltonian: Callable[[float], np.ndarray] | None = field(default=None, kw_only=True)
    basis: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.basis = gell_mann_basis(self.dim)
        self.basis.flags.writeable = False
        if not callable(self.kossakowski):
            self.kossakowski = _as_matrix(_coefficients(self.kossakowski, self.dim * self.dim - 1))
            self.kossakowski.flags.writeable = False

    def coefficient_matrix(self, t: float) -> np.ndarray:
        """Validated Hermitian C(t) as a matrix, diag(rates) for a rate
        vector; the read-only matrix itself when C is fixed."""
        c = self.kossakowski
        return _as_matrix(_coefficients(c(t), self.dim * self.dim - 1, t)) if callable(c) else c


def qubit_rate_generator(rates) -> GeneratorSpec:
    """Qubit generator with diagonal coefficient matrix diag(rates(t)).

    ``rates`` is either a fixed real triple, which becomes a fixed
    coefficient matrix validated once on construction, or a callable
    t -> real triple, whose rates are validated (length, real, finite) on
    every evaluation without a Hermiticity check.  Over the basis
    sigma_k/sqrt(2), a coefficient c_k produces the dissipator
    (c_k/2)(sigma_k rho sigma_k - rho).
    """
    return GeneratorSpec(2, rates)


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
    column stacking, kron(conj F_j, F_i) - (kron(I, A) + kron(A.T, I))/2
    with A = F_j† F_i, so C(t) contracts with it in one matmul.
    """
    d, f = g.dim, g.basis
    a = f.conj().swapaxes(1, 2)[None] @ f[:, None]   # a[i, j] = F_j† F_i
    eye = np.eye(d)
    # all pairs at once on axes (i, j, p, q, r, s): kron(P, Q)[p*d + q, r*d + s] = P[p, r] Q[q, s]
    terms = (f.conj()[None, :, :, None, :, None] * f[:, None, None, :, None, :]
             - 0.5 * (eye[:, None, :, None] * a[:, :, None, :, None, :]
                      + a.swapaxes(2, 3)[:, :, :, None, :, None] * eye[None, :, None, :]))
    return terms.reshape(len(f) ** 2, d ** 4)


def liouvillian(g: GeneratorSpec) -> Callable[[float], np.ndarray]:
    """Matrix form of the generator, as a cheap-to-evaluate closure.

    The basis-dependent structure, C and the Hamiltonian are read once per
    closure; each call then only contracts the structure with C(t) and adds
    the Hamiltonian part, into a fresh L(t).  A fixed C is contracted once,
    here: without a Hamiltonian every call returns that one read-only
    matrix.  A callable C goes through the same validation as a fixed one
    on every call, except that a tuple of n finite Python floats, as
    ``pauli_family.rates`` returns, is checked in a loop without an array.
    A rate vector gives a real L(t): it fills the diagonal slots of one
    real flattened C kept by the closure, which takes one ``np.dot`` with
    the real part of all n^2 dissipator rows (a shorter sum would round
    differently); the diagonal rows are real in every Gell-Mann basis.  For
    qubits this gives the bits of the complex contraction of diag(rates); a
    longer one may differ in an entry's last bit, as real and complex BLAS
    kernels may sum in different orders.  Every other C gives a complex L(t).
    """
    terms = _dissipator_terms(g)
    d, kossakowski, hamiltonian = g.dim, g.kossakowski, g.hamiltonian
    n, dd = d * d - 1, d * d
    fixed = None
    if not callable(kossakowski):
        fixed = (kossakowski.reshape(-1) @ terms).reshape(dd, dd)
        fixed.flags.writeable = False
        if hamiltonian is None:
            return lambda t: fixed
    eye = np.eye(d, dtype=complex)
    real_terms = terms.real.copy()   # contiguous, so np.dot hands it to BLAS
    rates = np.zeros(n * n)
    diagonal = rates[::n + 1]

    def at(t: float) -> np.ndarray:
        if fixed is None:
            c = kossakowski(t)
            if not _float_rates(c, n):
                c = _coefficients(c, n, t)
            if type(c) is tuple or c.ndim == 1:
                diagonal[:] = c
                mat = np.dot(rates, real_terms).reshape(dd, dd)
            else:
                mat = (c.reshape(-1) @ terms).reshape(dd, dd)
        else:
            mat = fixed
        if hamiltonian is None:
            return mat
        h = check_hermitian(hamiltonian(t))
        if h.shape != (d, d):
            raise ValueError(f"Hamiltonian at t={t} has shape {h.shape}, expected {(d, d)}")
        return mat + (-1j) * (np.kron(eye, h) - np.kron(h.T, eye))

    return at


def _origin_grid(grid) -> np.ndarray:
    """The time grid of a family, checked by ``check_grid`` and to start at 0."""
    grid = check_grid(grid)
    if abs(grid[0]) > 1e-12:
        raise ValueError(f"grid must start at 0, got {grid[0]}")
    return grid


@dataclass(eq=False)
class PropagatedFamily:
    """Maps on an ascending time grid starting at 0: ``maps`` is the
    (len(grid), n, n) stack of M(t_i), identity first, and ``segments`` the
    (len(grid) - 1, n, n) stack of the integrated propagators V(t_{i+1}, t_i).
    Building one copies all three read-only and checks them once: the grid
    as ``propagate`` does, the stacks' shapes, their finiteness, and the
    segments' Choi stack through ``check_hermitian`` with is_cp's
    ``superop.CHOI_RTOL``, each matrix against its own scale.  One stacked
    ``eigh`` of that stack made exactly Hermitian, 0.5 (C + C†), keeps each
    segment's lowest Choi eigenvalue, read-only ``choi_min`` (n,), and its
    eigenvector, read-only ``choi_vectors`` (n, d^2), for both scans.
    """

    grid: np.ndarray
    maps: np.ndarray
    segments: np.ndarray
    choi_min: np.ndarray = field(init=False, repr=False)
    choi_vectors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.grid = _origin_grid(self.grid)
        for name in ("grid", "maps", "segments"):   # copies: the check stays true
            setattr(self, name, np.array(getattr(self, name)))
            getattr(self, name).flags.writeable = False
        maps, segs, steps = self.maps, self.segments, len(self.grid) - 1
        if segs.ndim != 3 or len(segs) != steps:
            raise ValueError(f"{steps + 1} grid times need {steps} segments, "
                             f"got shape {segs.shape}")
        if maps.shape != (steps + 1,) + segs.shape[1:]:
            raise ValueError(f"{steps + 1} grid times need {steps + 1} maps of shape "
                             f"{segs.shape[1:]}, got shape {maps.shape}")
        for name, stack in (("segments", segs), ("maps", maps)):
            if not np.isfinite(stack).all():
                raise ValueError(f"family {name} have non-finite entries")
        try:
            choi = check_hermitian(superop.choi(segs), rtol=superop.CHOI_RTOL)
        except ValueError as err:   # the stack index of a Choi matrix is its segment's
            raise ValueError(f"family segment Choi {err}") from None
        w, v = np.linalg.eigh(choi)
        self.choi_min, self.choi_vectors = w[:, 0].copy(), v[:, :, 0].copy()
        self.choi_min.flags.writeable = self.choi_vectors.flags.writeable = False


# One RK4 step multiplies a mode of eigenvalue lam by R(step lam), R RK4's
# stability polynomial; a gain |R| up to _MAX_GAIN is rounding.  RK4's region
# reaches |z| = 2.96 at most, at arg z = 1.71: _REACH bounds ``_rk4_reach``.
# Its least reach over the checked half-plane is 2.6156, at arg z = 0.682 pi,
# so every z there with |z| <= _CLEAR passes: as the spectral radius of an
# n x n L is at most ||L||_inf <= n max |L_ij|, so does every step with
# step n max |L_ij| <= _CLEAR.
_MAX_GAIN = 1.0 + 1e-12
_REACH = 3.0
_CLEAR = 2.6


def _rk4_gain(z: np.ndarray) -> np.ndarray:
    """|R(z)|, R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24; inf or NaN past overflow."""
    return np.abs(1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0))))


def _rk4_reach(u: np.ndarray) -> np.ndarray:
    """x* of each left-half-plane direction u, |u| = 1: on that ray the gain
    is within _MAX_GAIN exactly on [0, x*].  Bisection on [0, _REACH]."""
    lo, hi = np.zeros(u.shape), np.full(u.shape, _REACH)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        inside = _rk4_gain(mid * u) <= _MAX_GAIN
        lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
    return lo


@np.errstate(over="ignore", invalid="ignore")
def check_rk4_step(step: float, times, ls) -> None:
    """Reject ``step`` when one RK4 step amplifies a mode of L(t) that does
    not grow, L(``times[i]``) being ``ls[i]`` of the stack ``ls`` (T, n, n).

    A stack with step n max |L_ij| <= _CLEAR is stable and is cleared
    without an eigensolve; any other, NaN or inf included, goes to one
    stacked ``eigvals``, a non-finite L giving NaN eigenvalues.  Growing modes,
    Re lam > 1e-12 |lam|, are not checked; every other lam must pass one
    test, |R(step lam)| <= _MAX_GAIN.  Such a z = step lam beyond |z| = 3 has
    a gain above 1.1, a huge or non-finite one inf or NaN: both fail.  The
    error names the time and the largest stable step, the least
    x*(arg lam) / |lam| (see ``_rk4_reach``).
    """
    if step * np.shape(ls)[-1] * np.abs(ls).max() <= _CLEAR:   # n max |L_ij| >= ||L||_inf
        return
    finite = np.isfinite(ls).all(axis=(1, 2))   # eigvals refuses the others
    lam = np.where(finite[:, None], np.linalg.eigvals(np.where(finite[:, None, None], ls, 0)),
                   np.nan)
    size = np.abs(lam)
    checked = ~(lam.real > 1e-12 * size)
    if not (checked & ~(_rk4_gain(step * lam) <= _MAX_GAIN)).any():
        return
    limit = np.where(checked & (size > 0), _rk4_reach(lam / size) / size, np.inf)
    limit[~np.isfinite(lam)] = 0.0
    i = int(np.argmin(limit.min(axis=1)))
    reason = (f"the largest stable step is {limit[i].min():.6g}" if np.isfinite(lam[i]).all()
              else "an eigenvalue of L(t) there is not finite")
    raise ValueError(f"step {step:g} is outside RK4's stability region for L(t) "
                     f"at t={times[i]:g}; {reason}")


def rk4_increment(l_left: np.ndarray, l_mid: np.ndarray, l_right: np.ndarray,
                  h: float) -> np.ndarray:
    """Increment D of one classical RK4 step of d/dt M = L_t M over [t, t + h].

    ``l_left``, ``l_mid`` and ``l_right`` are L at t, t + h/2 and t + h; the
    step maps M to M + D M.  The L arguments may be stacks (..., n, n), one
    step per leading index, and D is stacked alike.  Real L run in float64:
    they only skip the products with zero imaginary parts that complex
    arithmetic adds, and for qubits give the bits complex arithmetic gives.
    """
    eye = np.eye(l_left.shape[-1], dtype=l_left.dtype)
    k1 = l_left
    k2 = l_mid @ (eye + 0.5 * h * k1)
    k3 = l_mid @ (eye + 0.5 * h * k2)
    k4 = l_right @ (eye + h * k3)
    return (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _join(early: np.ndarray, late: np.ndarray) -> np.ndarray:
    """E of the product (I + late)(I + early), from the two factors' E."""
    return early + late + late @ early


def _tree(d: np.ndarray) -> np.ndarray:
    """E of the product of the steps I + d[..., n, :, :], later steps on the
    left; leading axes hold independent products.

    A pairwise tree of batched joins; an odd stack carries its last entry up.
    """
    while d.shape[-3] > 1:
        joined = _join(d[..., 0:-1:2, :, :], d[..., 1::2, :, :])
        d = np.concatenate([joined, d[..., -1:, :, :]], axis=-3) if d.shape[-3] % 2 else joined
    return d[..., 0, :, :]


def _substeps(grid: np.ndarray, step: float) -> np.ndarray:
    """The substep count of each grid segment, the fewest of size at most
    ``step``, as floats (inf where span / step overflows)."""
    return np.maximum(1.0, np.ceil(np.diff(grid) / step - 1e-12))


def _stacks(grid: np.ndarray, step: float):
    """Yield the RK4 blocks of ``propagate`` in stacks.  A block (t0, h,
    start, k, last) is substeps start .. start + k - 1, of size h, of the
    segment from t0, ``last`` when it ends it.  Every segment is cut into
    blocks of at most _BLOCK substeps; consecutive blocks with equal k
    share stacks of at most _STACK substeps."""
    stack = []
    for t0, t1, nsub in zip(grid[:-1], grid[1:], _substeps(grid, step).astype(int).tolist()):
        for start in range(0, nsub, _BLOCK):
            k = min(_BLOCK, nsub - start)
            if stack and (k != stack[0][3] or (len(stack) + 1) * k > _STACK):
                yield stack
                stack = []
            stack.append((float(t0), float(t1 - t0) / nsub, start, k, start + k == nsub))
    if stack:
        yield stack


@np.errstate(over="ignore", invalid="ignore")
def propagate(g: GeneratorSpec, grid, step: float) -> PropagatedFamily:
    """Integrate d/dt M_t = L_t M_t with fixed-step classical RK4.

    Each grid segment is covered by an integer number of substeps of size
    at most ``step``, so grid points are hit exactly, and L is evaluated at
    every substep's midpoint and right end.  The substeps go in blocks and
    the blocks in stacks (see ``_stacks``); one stacked ``rk4_increment``
    call forms every increment D_n of a stack, each block with its own h.
    A pairwise tree of batched matmuls, E <- E_early + E_late + E_late E_early,
    multiplies each block's steps I + D_n out as E = P - I, kept apart from
    I (see ``_BLOCK``).

    When every L a stack evaluated is the very object of its left-end L,
    as for a fixed C without a Hamiltonian, the stack is constant.  A
    block's E then depends only on (L, h, k): one unstacked
    ``rk4_increment`` call forms its single D, the same tree multiplies k
    copies of it, and E is formed once per (h, k) and reused while L stays
    that object.  Every other stack takes the stacked tree, equal L values
    included (the same bits).  A stack of real L, as a callable rate
    vector without a Hamiltonian gives, runs in float64 (see
    ``rk4_increment``).  The blocks fold into their segment's complex E the
    same way.  Each segment is recorded as I + E, and the map steps once
    per segment, M <- M + E M.  Maps and segments are complex128, those of
    a block-by-block loop over the segments, bit for bit.  Deterministic.

    RK4 stability is checked on every L the loop evaluates, over RK4's
    whole region: ``check_rk4_step`` takes L at t = 0 first, then each
    stack's L values before its increments are formed (a constant stack's
    one L is the L already checked).  A norm bound clears most of them
    without an eigensolve.  The loop runs without overflow warnings, so an
    unstable step raises that error only.  A grid needing more than
    MAX_RK4_SUBSTEPS substeps is refused at once.
    """
    grid = _origin_grid(grid)
    if not math.isfinite(step):
        raise ValueError("step must be finite")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if len(grid) > 1 and step > (spacing := float(np.min(np.diff(grid)))) + 1e-12:
        raise ValueError(f"step must not exceed the grid spacing: step {step:g} "
                         f"against the smallest spacing {spacing:g}")
    if (total := _substeps(grid, step).sum()) > MAX_RK4_SUBSTEPS:
        raise ValueError(f"the grid needs {total:.0f} RK4 substeps of at most {step:g}, "
                         f"more than the bound MAX_RK4_SUBSTEPS = {MAX_RK4_SUBSTEPS}")

    lmat = liouvillian(g)
    eye = np.eye(g.dim * g.dim, dtype=complex)
    e = np.zeros_like(eye)
    maps = np.empty((len(grid),) + eye.shape, dtype=complex)
    segments = np.empty((len(grid) - 1,) + eye.shape, dtype=complex)
    maps[0], j = eye, 0     # j: segments recorded so far
    l_left = lmat(float(grid[0]))
    check_rk4_step(step, grid[:1], l_left[None])
    powers, powers_of = {}, None   # (h, k) -> E of (I + D)^k, D the increment of powers_of
    for stack in _stacks(grid, step):
        k, hs = stack[0][3], [h for _, h, *_ in stack]
        times = [(t0 + i * h, h) for t0, h, start, *_ in stack for i in range(start, start + k)]
        at = [t + 0.5 * h for t, h in times] + [t + h for t, h in times]   # mids, then rights
        ls = list(map(lmat, at))
        if all(lm is l_left for lm in ls):
            if powers_of is not l_left:
                powers, powers_of = {}, l_left
            for h in hs:
                if (h, k) not in powers:
                    d = rk4_increment(l_left, l_left, l_left, h)
                    powers[h, k] = _tree(np.broadcast_to(d, (k,) + d.shape))
            d = [powers[h, k] for h in hs]
        else:
            stacked = np.array(ls)
            check_rk4_step(step, at, stacked)
            mid_stack, right_stack = stacked[:len(times)], stacked[len(times):]
            lefts = np.concatenate([l_left[None], right_stack[:-1]])
            shape = (len(stack), k) + l_left.shape
            d = _tree(rk4_increment(lefts.reshape(shape), mid_stack.reshape(shape),
                                    right_stack.reshape(shape),
                                    np.array(hs)[:, None, None, None]))
        l_left = ls[-1]
        for (*_, last), block in zip(stack, d):
            e = _join(e, block)
            if last:
                segments[j] = eye + e
                maps[j + 1] = maps[j] + e @ maps[j]
                j += 1
                e = np.zeros_like(eye)
    return PropagatedFamily(grid, maps, segments)


@dataclass
class GeneratorCheckReport:
    """Outcome of a generator-level divisibility criterion on a grid.

    The verdict is only as fine as the grid's largest gap:
    ``grid_spacing`` is that gap (inf for a one-point grid) and ``note``
    records it so downstream consumers can qualify the verdict.
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
                values_of, pairs=None) -> GeneratorCheckReport:
    """Minimize a criterion over the grid, with C(t) evaluated once per time.

    ``values_of(cs, times)`` maps the (T, n, n) stack of C(t) at the T grid
    times to a (T, P) array, column p for ``pairs[p]`` (one column without
    pairs).  The first worst time, then pair, is kept on ties; the criterion
    is satisfied when the minimum is at least ``-tol``.  A fixed C decides
    every t at once: neither criterion reads the Hamiltonian.
    """
    grid = check_grid(grid)
    times = [float(t) for t in grid]
    values = values_of(np.array([g.coefficient_matrix(t) for t in times]), times)
    worst, column = divmod(int(np.argmin(values)), values.shape[1])
    worst_value = float(values[worst, column])
    spacing = float(np.max(np.diff(grid))) if len(grid) > 1 else math.inf
    where = f"grid resolution {spacing:g}" if len(grid) > 1 else f"t = {grid[0]:g}"
    note = (f"verdict holds at {where} only" if callable(g.kossakowski)
            else "verdict holds at every t: C does not depend on t")
    return GeneratorCheckReport(
        criterion=criterion,
        satisfied=worst_value >= -tol,
        worst_time=times[worst],
        worst_value=worst_value,
        worst_pair=None if pairs is None else pairs[column],
        grid_points=len(grid),
        grid_spacing=spacing,
        note=note,
    )


def cp_divisibility_check(g: GeneratorSpec, grid, tol: float = 1e-9) -> GeneratorCheckReport:
    """CP-divisibility criterion: min eigenvalue of C(t) >= -tol on the grid.

    Nonnegative C on the whole grid is sufficient for the propagated
    intermediate maps to be completely positive; a negative eigenvalue
    pinpoints where and by how much the criterion fails (one stacked solve).
    """
    return _grid_check(g, grid, tol, "kossakowski-positive",
                       lambda cs, times: np.linalg.eigvalsh(cs)[:, :1])


def p_divisibility_check_pauli(g: GeneratorSpec, grid, tol: float = 1e-9) -> GeneratorCheckReport:
    """P-divisibility criterion for qubit generators with diagonal C(t).

    The criterion is for the Pauli basis sigma_k/sqrt(2), the only qubit
    basis.  Checks g_i(t) + g_j(t) >= -tol for all i != j over the grid, for
    all grid times at once; rejects generators whose coefficient matrix is
    not diagonal, naming the first such time, because the pairwise-sum
    criterion only applies to that class.
    """
    if g.dim != 2:
        raise ValueError("the pairwise rate-sum criterion is specific to qubit generators")

    def rate_sums(cs: np.ndarray, times: list[float]) -> np.ndarray:
        size = np.abs(cs)
        off = np.max(size * (1.0 - np.eye(3)), axis=(1, 2))
        bad = np.flatnonzero(off > 1e-12 * np.maximum(1.0, np.max(size, axis=(1, 2))))
        if len(bad):
            raise ValueError(f"coefficient matrix at t={times[bad[0]]} is not diagonal; "
                             "the criterion does not apply")
        gam = np.real(np.diagonal(cs, axis1=1, axis2=2))
        return gam[:, [0, 0, 1]] + gam[:, [1, 2, 2]]

    return _grid_check(g, grid, tol, "pairwise-rate-sums", rate_sums,
                       ((0, 1), (0, 2), (1, 2)))
