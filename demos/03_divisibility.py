#!/usr/bin/env python3
"""Divisibility classification: P-divisible but never CP-divisible.

The family's coefficient matrix is C(t) = diag(a, a, -a tanh t).  Its third
entry is negative for every t > 0, so the family is never CP-divisible.
The pairwise rate sums a + a and a - a tanh t stay nonnegative, which is
exactly the criterion for the intermediate maps to remain positive: the
family is P-divisible for every strength.

The tensor square breaks this: P-divisibility of Lambda (x) Lambda would
force CP-divisibility of Lambda, so some tensor-squared intermediate map
must fail positivity.  A randomized probe finds a concrete pure two-qubit
state whose output under such a map has a negative eigenvalue.

Run:  python demos/03_divisibility.py
"""
import numpy as np

from divischeck import divisibility as dv
from divischeck import generator as gen
from divischeck import pauli_family as pf
from divischeck import superop as so

alpha = 0.6
grid = pf.default_grid(t_max=3.0, points=120)
g = gen.model_generator(alpha)

cp_check = gen.cp_divisibility_check(g, grid)
print(f"C(t) >= 0 on the grid?  {cp_check.satisfied}")
print(f"  most negative eigenvalue {cp_check.worst_value:.4f} at t = {cp_check.worst_time}")
print(f"  (analytic: -a tanh t = {-alpha * np.tanh(cp_check.worst_time):.4f})")

p_check = gen.p_divisibility_check_pauli(g, grid)
print(f"pairwise rate sums >= 0 on the grid?  {p_check.satisfied}")
print(f"  worst sum {p_check.worst_value:.4f} for rate pair {p_check.worst_pair}")

family = gen.propagate(g, grid, 1e-3)
cp_scan = dv.cp_divisibility_scan(family)
print()
print(f"CP scan over consecutive intermediate maps: {cp_scan.verdict}")
print(f"  worst Choi eigenvalue {cp_scan.worst_value:.4e} at (s, t) = {cp_scan.worst_pair}")

probe = dv.tensor_p_divisibility_probe(family, restarts=100, steps=500,
                                       tol=1e-6, seed=99)
print()
print(f"tensor-square positivity probe: {probe.verdict}")
if probe.verdict == dv.VIOLATED:
    s, t = probe.worst_pair
    print(f"  at (s, t) = ({s:.3f}, {t:.3f}): min output eigenvalue {probe.worst_value:.4e}")
    big = so.tensor(probe.worst_map, probe.worst_map)
    again = so.min_output_eigenvalue(big, probe.witness)
    print(f"  witness re-evaluates to {again:.4e} "
          f"(difference {abs(again - probe.worst_value):.1e})")
    print(f"  first-order estimate -a tanh(s) (t - s) = {-alpha * np.tanh(s) * (t - s):.4e}")

print()
print("Same machinery on a constant-rate semigroup (rates (a, a, a)): every")
print("check passes and the probe finds nothing.")
semi = gen.qubit_rate_generator((alpha, alpha, alpha))
semi_grid = pf.default_grid(t_max=2.0, points=20)
print(f"  C >= 0: {gen.cp_divisibility_check(semi, semi_grid).satisfied}")
print(f"  rate sums >= 0: {gen.p_divisibility_check_pauli(semi, semi_grid).satisfied}")
semi_family = gen.propagate(semi, semi_grid, 1e-3)
print(f"  CP scan: {dv.cp_divisibility_scan(semi_family).verdict}")
print(f"  tensor probe: "
      f"{dv.tensor_p_divisibility_probe(semi_family, restarts=20, steps=300, seed=7).verdict}")
