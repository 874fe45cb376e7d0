"""The fourth-moment route to normal approximation, run at desk scale.

The pair-sum family F_n = n^{-1/2} sum X_{2i-1} X_{2i} has unit variance
and fourth moment exactly 3 + 6/n, so the TV distance to the standard
normal is bounded by sqrt(2/3) sqrt(6/n); the experiment samples each
member and checks the estimated distance against that bound.
"""

from chaoslab import fourth_moment_certificate, moment, pair_sum_element

for n in (2, 10, 100):
    print(f"n={n:3d}: exact E[F^4] = {moment(pair_sum_element(n), 4):.6f}"
          f"  (closed form {3 + 6 / n:.6f})")

members = [(float(n), pair_sum_element(n)) for n in (10, 50, 100)]
rep = fourth_moment_certificate(2, members, n_samples=100_000, seed=7)

print(f"\nverdict: {rep.verdict}   ({rep.notes[0]})")
print(f"{'n':>6} {'E[F^4]':>10} {'bound':>8} {'tv est':>8} {'ci width':>9}")
for row in rep.rows:
    ci = row["tv"]["ci"]
    print(f"{row['index']:6.0f} {row['fourth_moment']:10.4f} {row['bound']:8.4f} "
          f"{row['tv']['value']:8.4f} {ci[1] - ci[0]:9.4f}")
