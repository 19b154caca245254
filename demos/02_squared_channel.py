#!/usr/bin/env python3
"""The squared channel and positivity of the tensor square.

Composing the channel with itself multiplies the Bloch contractions, which
is the same as doubling the strength parameter: the mixing weights of the
squared channel satisfy q_mu(t; a) = p_mu(t; 2a) identically.  Two
consequences follow:

  * the squared channel is completely positive already for a >= 1/2, and
  * complete positivity of the square makes the tensor square
    Lambda (x) Lambda a positive map,

so for a in [1/2, 1) the channel is NOT completely positive while its
tensor square IS positive.  The second bullet cannot be certified by a
finite computation here; instead a randomized probe minimizes the smallest
output eigenvalue over pure two-qubit states and reports what it finds.

Run:  python demos/02_squared_channel.py
"""
import numpy as np

from divischeck import pauli_family as pf
from divischeck import superop as so

alpha = 0.6
grid = np.linspace(0.0, 5.0, 200)

q = pf.squared_pauli_weights(grid, alpha)
worst = np.abs(q - pf.pauli_weights(grid, 2 * alpha)).max()
print(f"max |q_mu(t; {alpha}) - p_mu(t; {2 * alpha})| over the grid: {worst:.2e}")

min_q3 = q[:, 3].min()
print(f"min q3 at alpha={alpha}: {min_q3:.3e}  (>= 0: squared channel is CP)")
min_p3 = pf.pauli_weights(grid, alpha)[:, 3].min()
print(f"min p3 at alpha={alpha}: {min_p3:.3e}  (< 0: channel itself is not CP)")

print()
print("Randomized positivity probe of the tensor square (100 restarts each):")
tol = 1e-9
for t in (0.5, 1.0, 2.0):
    ch = pf.channel(t, alpha)
    big = so.tensor(ch, ch)
    result = so.positivity_probe(big, restarts=100, steps=500, seed=2024)
    found = "a violation" if result.min_value < -tol else "no violation"
    print(f"  t={t}: min output eigenvalue found = {result.min_value:.3e} "
          f"-> {found} below -{tol:g}")
print()
print("No violation found is evidence, not proof; the constructive converse")
print("(a witness state with negative output eigenvalue) appears for the")
print("intermediate maps, demonstrated in demos/03_divisibility.py.")
