"""Closed forms for a one-parameter family of random-unitary qubit channels.

The family is driven by dephasing rates (a, a, -a tanh t) along the three
Pauli axes, with strength a > 0.  The third rate is negative for every
t > 0, which is what makes the family interesting:

* the channel itself is positive and trace-preserving for every a > 0,
* it is completely positive exactly when a >= 1
  (equivalently cosh(a t) >= cosh(t)^a for all t),
* the channel composed with itself carries the same closed forms with
  a -> 2a, so the composition is completely positive already for a >= 1/2,
  which in turn makes the two-fold tensor power a positive map.

The Bloch picture: components 1 and 2 of the Bloch vector are scaled by
exp(-a t) cosh(t)^a and component 3 by exp(-2 a t).  The only numerical
hazard is cosh overflow at large t, avoided via log-cosh throughout.  The
closed forms take one time or an array of times and return plain arrays,
components on the last axis; ``rates`` and the channels take one time,
``pauli_channel`` one set of Bloch eigenvalues or arrays of them.
"""
from __future__ import annotations

import math
import sys

import numpy as np

from .linalg import PAULI
from .superop import vec

__all__ = [
    "bloch_eigenvalues",
    "channel",
    "cp_criterion",
    "default_grid",
    "log_cosh",
    "pauli_channel",
    "pauli_weights",
    "rates",
    "semigroup_channel",
    "squared_pauli_weights",
]

_LN2 = math.log(2.0)


# outer(vec sigma_k, vec sigma_k*), identity first: twice the spectral
# projectors of every Pauli channel, built once, one flattened row each.
_PAULI_PROJECTORS = np.stack([np.outer(vec(sigma), vec(sigma).conj()).ravel()
                              for sigma in PAULI])


def _validate(t: float, alpha: float) -> None:
    # 2 alpha must be finite too: the squared channel and the decay rates use it
    if not (alpha > 0 and math.isfinite(2.0 * alpha)):
        raise ValueError("alpha must be positive and finite, at most "
                         f"{sys.float_info.max / 2} so that 2 alpha is finite, got {alpha}")
    if not (t >= 0 and math.isfinite(t)):
        raise ValueError(f"time must be nonnegative and finite, got {t}")


def _times(t, alpha):
    """One float time as it is, or times as a float array, each checked like
    one scalar time.  Both go through the same numpy ufuncs, so a time gives
    the same bits alone as inside an array."""
    if isinstance(t, float):
        _validate(t, alpha)
        return t
    t = np.asarray(t, dtype=float)
    bad = ~(np.isfinite(t) & (t >= 0))
    # the first bad time, if any, fails the scalar check with its own message
    _validate(t[bad][0] if bad.any() else 0.0, alpha)
    return t


def log_cosh(t):
    """log(cosh t) without overflow (cosh overflows past |t| ~ 710); even in
    t, elementwise over an array of times."""
    t = abs(t)
    # exp(-2 t) is 0 for t > 373: the cap changes no bit and -2 t cannot overflow
    return t - _LN2 + np.log1p(np.exp(-2.0 * np.minimum(t, 1e3)))


def rates(t: float, alpha: float) -> tuple[float, float, float]:
    """Effective dissipation rates (a, a, -a tanh t) entering the generator.

    Scalar only: the model generator calls it once per RK4 substep time, and
    a float check plus ``math.tanh`` is cheaper there than an array call.
    """
    _validate(t, alpha)
    # + 0.0 normalizes the negative zero at t = 0
    return (alpha, alpha, -alpha * math.tanh(t) + 0.0)


def _transverse_and_l3(t, alpha):
    """l1 = l2 = exp(-a t) cosh(t)^a and l3 = exp(-2 a t) at the validated
    time(s) t.  a t is formed before it is doubled, so any finite a, the
    doubled alpha of ``squared_pauli_weights`` too, gives l3 = 1 at t = 0."""
    # exp(a (log cosh t - t)) stays finite for large t; a t past the largest
    # double is inf, and exp(-inf) = 0 is the limit, so the overflow is silent
    with np.errstate(over="ignore"):
        return np.exp(alpha * (log_cosh(t) - t)), np.exp(-2.0 * (alpha * t))


def _weights(l1, l3):
    return 0.25 * np.stack([1.0 + 2.0 * l1 + l3, 1.0 - l3, 1.0 - l3,
                            1.0 - 2.0 * l1 + l3], axis=-1)


def bloch_eigenvalues(t, alpha: float) -> np.ndarray:
    """Scaling factors (l1, l2, l3) of the three Bloch components at the
    time(s) t, shape t.shape + (3,): l1 = l2 = exp(-a t) cosh(t)^a and
    l3 = exp(-2 a t)."""
    l1, l3 = _transverse_and_l3(_times(t, alpha), alpha)
    return np.stack([l1, l1, l3], axis=-1)


def pauli_weights(t, alpha: float) -> np.ndarray:
    """Mixing weights (p0, p1, p2, p3) of the channel sum_mu p_mu
    sigma_mu . sigma_mu at the time(s) t, shape t.shape + (4,).

    In terms of the Bloch eigenvalues:
        p0 = (1 + 2 l1 + l3)/4,  p1 = p2 = (1 - l3)/4,
        p3 = (1 - 2 l1 + l3)/4.
    The weights sum to one (trace preservation).  p3 is the only weight that
    can go negative, and it does for every t > 0 whenever alpha < 1: the
    channel is then not completely positive.
    """
    return _weights(*_transverse_and_l3(_times(t, alpha), alpha))


def squared_pauli_weights(t, alpha: float) -> np.ndarray:
    """Pauli weights of the channel composed with itself: exactly the
    single-channel weights with alpha doubled.  alpha is validated before
    it is doubled, so an error names the caller's value."""
    return _weights(*_transverse_and_l3(_times(t, alpha), 2.0 * alpha))


def cp_criterion(t, alpha: float) -> np.ndarray:
    """Complete positivity at the time(s) t, as a bool array:
    cosh(a t) >= cosh(t)^a - 1e-12.

    Both sides are compared on the log scale once either would overflow a
    double; the comparison is equivalent by monotonicity.
    """
    t = _times(t, alpha)
    # a t past the largest double gives inf logs, their limit; only a CP alpha >= 1 gets there
    with np.errstate(over="ignore"):
        lhs_log = log_cosh(alpha * t)
        rhs_log = alpha * log_cosh(t)
    # capped at 700 so that exp never overflows; the log branch covers those
    direct = np.exp(np.minimum(lhs_log, 700.0)) >= np.exp(np.minimum(rhs_log, 700.0)) - 1e-12
    return np.where(np.maximum(lhs_log, rhs_log) > 700.0, lhs_log >= rhs_log, direct)


def pauli_channel(l1, l2, l3) -> np.ndarray:
    """Unital qubit channel with the given Bloch eigenvalues, as its 4 x 4
    map matrix; eigenvalue arrays of one shape give a stack of that shape
    + (4, 4).

    Spectral form on the (orthogonal) Pauli basis: the identity component
    is fixed, sigma_k is scaled by l_k.  Each entry sums at most two nonzero
    products, each exact, so a map has the same bits alone as in a stack.
    """
    shape = np.shape(l1)
    l = np.array([np.ones(shape), l1, l2, l3]).reshape(4, -1).T
    return (0.5 * l @ _PAULI_PROJECTORS).reshape(shape + (4, 4))


def channel(t: float, alpha: float) -> np.ndarray:
    """The family's channel at time t (identity at t = 0)."""
    l1, l3 = _transverse_and_l3(_times(t, alpha), alpha)
    return pauli_channel(l1, l1, l3)


def semigroup_channel(t: float, alpha: float) -> np.ndarray:
    """Constant-rate comparison dynamics: rates (a, a, a), i.e. isotropic
    depolarization with all Bloch eigenvalues exp(-2 a t)."""
    _validate(t, alpha)
    l = math.exp(-2.0 * alpha * t)
    return pauli_channel(l, l, l)


def default_grid(t_max: float = 5.0, points: int = 200) -> np.ndarray:
    """Uniform time grid: ``points`` steps on [0, t_max] plus the origin."""
    if points < 1:
        raise ValueError("points must be >= 1")
    if not (t_max > 0 and math.isfinite(t_max)):
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    return np.linspace(0.0, float(t_max), points + 1)
