"""Two rate experiments: kernel perturbations and the TV-vs-FM bridge.

Perturbing a second-chaos kernel by t g moves the law by at most a
constant times (t ||g||)^(1/4); smooth perturbations actually do much
better, which the fitted log-log slope shows.  For families in a fixed
sum of chaoses, convergence in the Fortet-Mourier metric upgrades to
total variation with exponent 1/(2p+1).
"""

import math

from chaoslab import (basis_element, dm_rate, kernel_add, make_kernel, pair_sum_element,
                      shigekawa_rate, single_integral)

base = make_kernel(2, 2, [((1, 1), 1.0 / math.sqrt(2.0))])
direction = make_kernel(2, 2, [((1, 2), 0.5)])
members = [(t, single_integral(kernel_add(base, direction.scale(t))))
           for t in (2.0 ** -j for j in range(1, 9))]

rep = dm_rate(2, members, single_integral(base), n_samples=100_000, seed=11)
print("kernel perturbation experiment:", rep.verdict)
for note in rep.notes:
    print("  ", note)
print(f"{'t':>10} {'||f_t - f||':>12} {'tv est':>8}")
for row in rep.rows[:4]:
    print(f"{row['t']:10.4f} {row['kernel_dist']:12.4f} {row['tv']['value']:8.4f}")

members = [(float(n), pair_sum_element(n)) for n in (10, 20, 50, 100)]
rep = shigekawa_rate(2, members, basis_element(1, 1), n_samples=100_000, seed=12)
print("\ntv vs fm for the pair-sum family:", rep.verdict)
print(f"{'n':>6} {'tv':>8} {'fm':>8} {'tv/fm^(1/5)':>12} {'E[F^4]':>8}")
for row in rep.rows:
    print(f"{row['index']:6.0f} {row['tv']['value']:8.4f} {row['fm']['value']:8.4f} "
          f"{row['ratio']:12.4f} {row['fourth_moment']:8.4f}")
