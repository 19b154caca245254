#!/usr/bin/env python3
"""Constructive first-order witness of tensor-square positivity failure.

Wherever the coefficient matrix C(s) has a negative eigenvalue, positivity
of the tensor-squared intermediate maps must fail at first order in the
step.  The witness makes that explicit:

  * u  = eigenvector of the most negative eigenvalue of C(s),
  * M  = traceless matrix with Tr(M F_i) = conj(u_i),
  * U  = unitary similarity with M^T = U M U^(-1), in closed form for 2 x 2,
  * Phi' = U (adjoint), Psi = M U^(-1), regrouped row-major into vectors
    phi, psi on the doubled space (orthogonal because Tr M = 0).

Then <phi| T_{s+dt,s} [|psi><psi|] |phi> ~ dt * delta_rate with
delta_rate = 2 <u|C(s)|u> / (|Psi|^2 |Phi|^2) after unit normalization.
For the unitary U, |Psi|^2 = 1 and |Phi|^2 = 2, so delta_rate = c_min, the
most negative eigenvalue of C(s) -- a negative rate for a matrix element
that must be nonnegative for a positive map.

For the tanh-rate family at time s the construction collapses to
delta_rate = -a tanh(s), and psi, phi become two Bell states.

Run:  python demos/04_first_order_witness.py
"""
import numpy as np

from divischeck import divisibility as dv
from divischeck import generator as gen

alpha, s = 0.75, 1.0
g = gen.model_generator(alpha)
w = dv.first_order_witness(g, s)

print(f"strength a = {alpha}, construction time s = {s}")
print(f"most negative C(s) eigenvalue: {w.c_min:.6f}  (analytic -a tanh s = "
      f"{-alpha * np.tanh(s):.6f})")
print(f"u = {np.round(w.u, 6)}")
print(f"M =\n{np.round(w.m, 6)}")
print(f"|<phi|psi>| = {abs(np.vdot(w.phi, w.psi)):.2e}")
print(f"psi = {np.round(w.psi, 6)}")
print(f"phi = {np.round(w.phi, 6)}")
print(f"delta_rate = {w.delta_rate:.10f}  (analytic -a tanh s = "
      f"{-alpha * np.tanh(s):.10f})")

print()
print("Finite-step verification (the tensor square of one RK4 step of L):")
for dt in (1e-4, 5e-5):
    value = dv.verify_witness(g, w, dt=dt)
    prediction = dt * w.delta_rate
    print(f"  dt={dt:.0e}: matrix element {value:.6e}, first-order prediction "
          f"{prediction:.6e}, discrepancy {abs(value - prediction):.2e}")
print("Halving dt cuts the discrepancy by ~4x: the residual is second order.")

print()
print("At s = 0 the coefficient matrix is positive semidefinite and no")
print("first-order witness exists; the construction refuses:")
try:
    dv.first_order_witness(g, 0.0)
except ValueError as exc:
    print(f"  ValueError: {exc}")
