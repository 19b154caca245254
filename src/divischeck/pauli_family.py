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
hazard is cosh overflow at large t, avoided via log-cosh throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import PAULI
from .superop import Superoperator, vec

__all__ = [
    "BlochEigenvalues",
    "PauliWeights",
    "bloch_eigenvalues",
    "channel",
    "cp_criterion",
    "default_grid",
    "generator_eigenvalues",
    "intermediate_channel",
    "log_cosh",
    "pauli_channel",
    "pauli_weights",
    "rates",
    "semigroup_channel",
    "squared_pauli_weights",
]

_LN2 = math.log(2.0)


def _validate(t: float, alpha: float) -> None:
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")


def log_cosh(t: float) -> float:
    """log(cosh t) for t >= 0 without overflow (cosh overflows past t ~ 710)."""
    t = float(t)
    return t - _LN2 + math.log1p(math.exp(-2.0 * t))


def rates(t: float, alpha: float) -> tuple[float, float, float]:
    """Effective dissipation rates (a, a, -a tanh t) entering the generator."""
    _validate(t, alpha)
    # + 0.0 normalizes the negative zero at t = 0
    return (alpha, alpha, -alpha * math.tanh(t) + 0.0)


def generator_eigenvalues(t: float, alpha: float) -> tuple[float, float, float, float]:
    """Eigenvalues of the generator on (identity, sigma_1, sigma_2, sigma_3).

    The identity eigenvalue is 0 (trace preservation); the transverse pair
    is a (tanh t - 1) and the longitudinal one is -2a.
    """
    _validate(t, alpha)
    transverse = alpha * (math.tanh(t) - 1.0)
    return (0.0, transverse, transverse, -2.0 * alpha)


@dataclass(frozen=True)
class BlochEigenvalues:
    """Scaling factors applied to the three Bloch components (l1 = l2)."""

    l1: float
    l2: float
    l3: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.l1, self.l2, self.l3)


def bloch_eigenvalues(t: float, alpha: float) -> BlochEigenvalues:
    """l1 = l2 = exp(-a t) cosh(t)^a and l3 = exp(-2 a t)."""
    _validate(t, alpha)
    # exp(a (log cosh t - t)) stays finite for arbitrarily large t
    transverse = math.exp(alpha * (log_cosh(t) - t))
    return BlochEigenvalues(transverse, transverse, math.exp(-2.0 * alpha * t))


@dataclass(frozen=True)
class PauliWeights:
    """Mixing weights of a qubit channel sum_mu w_mu sigma_mu . sigma_mu.

    The four weights always sum to one (trace preservation); individual
    weights may be negative, in which case the channel is not completely
    positive.
    """

    p0: float
    p1: float
    p2: float
    p3: float

    def as_array(self) -> np.ndarray:
        return np.array([self.p0, self.p1, self.p2, self.p3])


def pauli_weights(t: float, alpha: float) -> PauliWeights:
    """Pauli mixing weights of the channel at time t.

    In terms of the Bloch eigenvalues:
        p0 = (1 + 2 l1 + l3)/4,  p1 = p2 = (1 - l3)/4,
        p3 = (1 - 2 l1 + l3)/4.
    p3 is the only weight that can go negative, and it does for every
    t > 0 whenever alpha < 1.
    """
    l = bloch_eigenvalues(t, alpha)
    return PauliWeights(
        0.25 * (1.0 + 2.0 * l.l1 + l.l3),
        0.25 * (1.0 - l.l3),
        0.25 * (1.0 - l.l3),
        0.25 * (1.0 - 2.0 * l.l1 + l.l3),
    )


def squared_pauli_weights(t: float, alpha: float) -> PauliWeights:
    """Pauli weights of the channel composed with itself: exactly the
    single-channel weights with alpha doubled."""
    return pauli_weights(t, 2.0 * alpha)


def cp_criterion(t: float, alpha: float, tol: float = 1e-12) -> bool:
    """Complete positivity at time t: cosh(a t) >= cosh(t)^a - tol.

    Both sides are compared on the log scale once either would overflow a
    double; the comparison is equivalent by monotonicity.
    """
    _validate(t, alpha)
    lhs_log = log_cosh(alpha * t)
    rhs_log = alpha * log_cosh(t)
    if max(lhs_log, rhs_log) > 700.0:
        return lhs_log >= rhs_log
    return math.exp(lhs_log) >= math.exp(rhs_log) - tol


def pauli_channel(l1: float, l2: float, l3: float) -> Superoperator:
    """Unital qubit channel with the given Bloch eigenvalues.

    Spectral form on the (orthogonal) Pauli basis: the identity component
    is fixed, sigma_k is scaled by l_k.
    """
    mat = np.zeros((4, 4), dtype=complex)
    for lam, sigma in zip((1.0, l1, l2, l3), PAULI):
        v = vec(sigma)
        mat += 0.5 * lam * np.outer(v, v.conj())
    return Superoperator(2, mat)


def channel(t: float, alpha: float) -> Superoperator:
    """The family's channel at time t (identity at t = 0)."""
    l = bloch_eigenvalues(t, alpha)
    return pauli_channel(l.l1, l.l2, l.l3)


def intermediate_channel(t: float, s: float, alpha: float) -> Superoperator:
    """Two-time propagator from s to t, t >= s >= 0.

    A Pauli channel with eigenvalue ratios l_k(t)/l_k(s); the ratios lie in
    (0, 1] because every l_k is positive and non-increasing.
    """
    if t < s:
        raise ValueError(f"need t >= s, got t={t}, s={s}")
    lt = bloch_eigenvalues(t, alpha)
    ls = bloch_eigenvalues(s, alpha)
    return pauli_channel(lt.l1 / ls.l1, lt.l2 / ls.l2, lt.l3 / ls.l3)


def semigroup_channel(t: float, alpha: float) -> Superoperator:
    """Constant-rate comparison dynamics: rates (a, a, a), i.e. isotropic
    depolarization with all Bloch eigenvalues exp(-2 a t)."""
    _validate(t, alpha)
    l = math.exp(-2.0 * alpha * t)
    return pauli_channel(l, l, l)


def default_grid(t_max: float = 5.0, points: int = 200) -> np.ndarray:
    """Uniform time grid: ``points`` steps on [0, t_max] plus the origin."""
    if points < 1:
        raise ValueError("points must be >= 1")
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    return np.linspace(0.0, float(t_max), points + 1)
