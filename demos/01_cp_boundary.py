#!/usr/bin/env python3
"""Complete positivity boundary of the tanh-rate qubit family.

The family's channel at time t scales the Bloch components by
(l1, l1, l3) with l1 = exp(-a t) cosh(t)^a and l3 = exp(-2 a t).  Writing
the channel as a mixture sum_mu p_mu sigma_mu . sigma_mu, the only weight
that can go negative is p3, and

    p3(t) >= 0 for all t   <=>   cosh(a t) >= cosh(t)^a   <=>   a >= 1.

This script tabulates min_t p3 and the Choi minimum eigenvalue across the
boundary and confirms three equivalent views of complete positivity:

  1. the sign of p3,
  2. the Choi spectrum (eigenvalues are exactly 2 p_mu),
  3. the closed-form cosh comparison.

Run:  python demos/01_cp_boundary.py
"""
import numpy as np

from divischeck import pauli_family as pf
from divischeck import superop as so

grid = pf.default_grid(t_max=5.0, points=200)
alphas = [0.5, 0.75, 0.9, 1.0, 1.25, 2.0]

print(f"{'alpha':>6} | {'min p3':>12} | {'min choi eig':>13} | {'cosh criterion':>14}")
print("-" * 56)
for alpha in alphas:
    min_p3 = pf.pauli_weights(grid, alpha)[:, 3].min()
    min_choi = min(so.is_cp(pf.channel(float(t), alpha))[1] for t in grid)
    criterion = pf.cp_criterion(grid, alpha).all()
    print(f"{alpha:6.2f} | {min_p3:12.4e} | {min_choi:13.4e} | "
          f"{'CP' if criterion else 'not CP':>14}")

print()
print("Choi spectrum vs 2*p_mu at (alpha, t) = (0.75, 1.0):")
weights = pf.pauli_weights(1.0, 0.75)
choi_eigs = np.linalg.eigvalsh(so.choi(pf.channel(1.0, 0.75)))
print("  choi eigenvalues :", np.round(np.sort(choi_eigs), 6))
print("  2 * weights      :", np.round(np.sort(2 * weights), 6))

print()
print("The channel itself stays positive for every strength: the Bloch")
print("contractions never exceed 1 in magnitude.")
for alpha in (0.25, 0.5, 2.0):
    worst = np.abs(pf.bloch_eigenvalues(grid, alpha)).max()
    print(f"  alpha={alpha}: max |bloch eigenvalue| over the grid = {worst:.6f}")
