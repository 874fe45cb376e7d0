"""Chaos elements multiply exactly: Hermite linearization and moments.

Squaring the second Hermite polynomial of a coordinate Gaussian gives
H_2^2 = H_4 + 4 H_2 + 2, and every moment of a finite chaos expansion is
a finite exact computation.
"""

import numpy as np

from chaoslab import (evaluate, make_kernel, moment, multiply, sample,
                      single_integral, variance)

h2 = single_integral(make_kernel(2, 1, [((1, 1), 1.0)]))  # H_2(X) = X^2 - 1
sq = multiply(h2, h2)

print("H_2^2 expands to:")
print("  constant:", sq.constant)
for k in sorted(sq.kernels):
    print(f"  order {k}:", dict(sq.kernels[k].entries))

print("\nexact moments of H_2(X):")
for m in range(1, 5):
    print(f"  E[F^{m}] =", moment(h2, m))

print("\nvariance via isometry:", variance(h2), " (k! ||f||^2 = 2)")

# the product law holds pointwise, not just in expectation
x = [0.7]
print("\npointwise check at x=0.7:",
      evaluate(sq, x), "=", evaluate(h2, x) ** 2)

# Monte Carlo agrees with the engine
values = sample(h2, 200_000, seed=42)
print("\nMC fourth moment:", round(float(np.mean(values ** 4)), 3),
      " vs exact", moment(h2, 4))
