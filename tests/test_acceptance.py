"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Exact quantities are computed by the moment engine and
asserted against closed forms; statistical gates carry the explicit
slack terms stated with each criterion.
"""

import math
import time

import numpy as np
import pytest

from chaoslab import (basis_element, carre_du_champ, check_ibp,
                      constant_element, covariance, dm_rate, evaluate_batch,
                      expectation, fourth_moment_certificate, linear_combine,
                      make_kernel, mderiv, moment, moo_invariance, multiply,
                      pair_sum_element, pair_sum_vector, peccati_tudor_run,
                      project, rademacher_average, sample, shigekawa_rate,
                      single_integral, small_ball, tv_two_samples,
                      tv_vs_density, variance, wasserstein1)
from chaoslab import rng
from chaoslab.distances import normal_cdf
from dense_oracle import dense_from_kernel, dense_sym_contract
from chaoslab.kernels import sym_contract
from helpers import nonzero_kernel, random_element

RESULTS = []


def report(num, name, detail):
    line = f"criterion {num:2d} ({name}): PASS  [{detail}]"
    RESULTS.append(line)
    print("\n" + line)


@pytest.fixture(scope="module")
def master_gen():
    return np.random.default_rng(1234321)


def test_criterion_01_product_formula_identity(master_gen):
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        dim = int(master_gen.integers(2, 7))
        f = random_element(master_gen, dim, 3)
        g = random_element(master_gen, dim, 3)
        prod = multiply(f, g)
        pts = master_gen.normal(size=(100, dim))
        lhs = evaluate_batch(prod, pts)
        rhs = evaluate_batch(f, pts) * evaluate_batch(g, pts)
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs)))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8
    assert elapsed < 10.0
    report(1, "product formula", f"max rel dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_contraction_matches_dense_oracle(master_gen):
    t0 = time.perf_counter()
    worst = 0.0
    cases = 0
    for n in range(1, 5):
        for k in range(1, 4):
            for l in range(1, 4):
                for r in range(min(k, l) + 1):
                    for _ in range(3):
                        f = nonzero_kernel(master_gen, k, n)
                        g = nonzero_kernel(master_gen, l, n)
                        got = sym_contract(f, g, r)
                        expect = dense_sym_contract(f, g, r)
                        if isinstance(got, float):
                            gap = abs(got - float(expect))
                        else:
                            gap = float(np.max(np.abs(dense_from_kernel(got) - expect)))
                        worst = max(worst, gap)
                        cases += 1
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 30.0
    report(2, "contraction oracle", f"{cases} cases, max dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_carre_du_champ_double_route(master_gen):
    worst = 0.0
    for _ in range(100):
        dim = int(master_gen.integers(2, 7))
        f = random_element(master_gen, dim, 3)
        g = random_element(master_gen, dim, 3)
        direct = carre_du_champ(f, g)
        coord = linear_combine([(1.0, multiply(mderiv(f, i), mderiv(g, i)))
                                for i in range(1, dim + 1)])
        diff = linear_combine([(1.0, direct), (-1.0, coord)])
        worst = max(worst, abs(diff.constant))
        for ker in diff.kernels.values():
            worst = max(worst, max(abs(c) for c in ker.entries.values()))
    assert worst <= 1e-10
    report(3, "carre du champ routes", f"max coefficient dev {worst:.2e}")


def test_criterion_04_exact_moments_and_orthogonality(master_gen):
    h2 = single_integral(make_kernel(2, 1, [((1, 1), 1.0)]))
    moments = [moment(h2, m) for m in (1, 2, 3, 4)]
    assert np.allclose(moments, [0.0, 2.0, 8.0, 60.0], atol=1e-10)
    for _ in range(50):
        f = random_element(master_gen, 4, 3)
        g = random_element(master_gen, 4, 3)
        for k in range(4):
            for l in range(4):
                if k != l:
                    assert covariance(project(f, k), project(g, l)) == 0.0
    report(4, "exact moments", f"centered chi-square moments {moments}")


def test_criterion_05_malliavin_identities(master_gen):
    worst_ibp = worst_dual = worst_poin = worst_hyp = 0.0
    for _ in range(200):
        dim = int(master_gen.integers(2, 7))
        f = random_element(master_gen, dim, 2)
        g = random_element(master_gen, dim, 2)
        h = random_element(master_gen, dim, 2)
        lhs, rhs = check_ibp(f, g, h)
        worst_ibp = max(worst_ibp, abs(lhs - rhs) / (1.0 + abs(lhs)))
        # H = 1 reduces integration by parts to the delta-D duality
        lhs, rhs = check_ibp(f, g, constant_element(dim, 1.0))
        worst_dual = max(worst_dual, abs(lhs - rhs) / (1.0 + abs(lhs)))
        full = random_element(master_gen, dim, 3)
        worst_poin = max(worst_poin,
                         variance(full) - expectation(carre_du_champ(full, full)))
        k = int(master_gen.integers(1, 3))
        ker = random_element(master_gen, dim, k, with_constant=False).kernels.get(k)
        if ker is not None:
            single = single_integral(ker)
            worst_hyp = max(worst_hyp,
                            moment(single, 4) - 3.0 ** (2 * k) * moment(single, 2) ** 2)
    assert worst_ibp <= 1e-9
    assert worst_dual <= 1e-9
    assert worst_poin <= 1e-9
    assert worst_hyp <= 1e-9
    report(5, "integration by parts & inequalities",
           f"ibp {worst_ibp:.1e}, duality {worst_dual:.1e}, "
           f"poincare slack {worst_poin:.1e}, hyper slack {worst_hyp:.1e}")


def test_criterion_06_fourth_moment_certificate():
    t0 = time.perf_counter()
    for n in (2, 5, 10, 50):
        m4 = moment(pair_sum_element(n), 4)
        assert abs(m4 - (3.0 + 6.0 / n)) <= 1e-10
    members = [(float(n), pair_sum_element(n)) for n in (10, 50, 100)]
    rep = fourth_moment_certificate(2, members, 200_000, seed=606)
    assert rep.verdict == "pass"
    for row, n in zip(rep.rows, (10, 50, 100)):
        bound = math.sqrt(2.0 / 3.0) * math.sqrt(6.0 / n)
        assert row["bound"] == pytest.approx(bound, abs=1e-9)
        ci_width = row["tv"]["ci"][1] - row["tv"]["ci"][0]
        assert row["tv"]["value"] <= bound + ci_width + 0.02
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    tvs = [f"{r['tv']['value']:.3f}" for r in rep.rows]
    report(6, "fourth-moment certificate",
           f"E[F^4] exact to 1e-10; tv {tvs} under bounds, {elapsed:.0f}s")


def test_criterion_07_peccati_tudor():
    vectors = [(float(n), pair_sum_vector(n)) for n in (10, 50, 100)]
    rep = peccati_tudor_run([1, 2], vectors, np.eye(2), 200_000, seed=707)
    assert rep.verdict == "pass"
    for row, n in zip(rep.rows, (10, 50, 100)):
        assert row["cross_cov_gap"] == 0.0  # cross-covariances exactly zero
        assert row["cov_gap"] <= 1e-12      # diagonal carries only rounding
        assert abs(row["gram_gap"] - 4.0 / n) <= 1e-10
        assert abs(row["det_mean"] - 2.0) <= 1e-10
    det_vars = [row["det_var"] for row in rep.rows]
    assert all(b < a for a, b in zip(det_vars, det_vars[1:]))
    joint = rep.rows[-1]["joint_tv"]["value"]
    assert joint <= 0.1
    report(7, "joint normal approximation",
           f"gram gaps exactly 4/n, det var decreasing, joint tv {joint:.3f} <= 0.1")


def test_criterion_08_anti_concentration_sharpness():
    t0 = time.perf_counter()
    cubic = linear_combine([
        (1.0, single_integral(make_kernel(3, 1, [((1, 1, 1), 1.0)]))),
        (3.0, basis_element(1, 1))])
    batch = sample(cubic, 10 ** 6, seed=808)
    est = small_ball(batch, 1e-3)
    ratio = est.value / (1e-3) ** (1.0 / 3.0)
    target = math.sqrt(2.0 / math.pi)
    elapsed = time.perf_counter() - t0
    assert abs(ratio - target) <= 0.1 * target
    assert elapsed < 30.0
    report(8, "anti-concentration sharpness",
           f"P/alpha^(1/3) = {ratio:.4f} vs {target:.4f}, {elapsed:.1f}s")


def test_criterion_09_kernel_continuity_rate():
    base = make_kernel(2, 2, [((1, 1), 1.0 / math.sqrt(2.0))])
    direction = make_kernel(2, 2, [((1, 2), 0.5)])
    perts = [(2.0 ** -j, direction) for j in range(1, 9)]
    rep = dm_rate(2, base, perts, 200_000, seed=909)
    assert rep.verdict == "pass"
    slope = float(rep.notes[1].split("=")[1])
    assert slope >= 0.25 - 0.1
    small = sorted(rep.rows, key=lambda r: r["kernel_dist"])[:2]
    cs = [r["fitted_c"] for r in small]
    assert max(cs) <= 3.0 * min(cs)
    report(9, "kernel continuity rate",
           f"log-log slope {slope:.3f} >= 0.15, small-t constants within factor 3")


def test_criterion_10_finite_chaos_tv_rate():
    members = [(float(n), pair_sum_element(n)) for n in (10, 20, 50, 100)]
    rep = shigekawa_rate(2, members, basis_element(1, 1), 200_000, seed=1010)
    assert rep.verdict == "pass"
    last = rep.rows[-1]
    assert last["tv"]["value"] <= 0.05
    assert last["fm"]["value"] <= 0.05
    ratios = [r["ratio"] for r in rep.rows]
    assert max(ratios) <= 2.0 * float(np.median(ratios)) + 0.5
    m4s = [r["fourth_moment"] for r in rep.rows]
    assert max(m4s) <= 3.0 + 6.0 / 10 + 1e-10
    report(10, "tv vs fm rate",
           f"final tv {last['tv']['value']:.3f}, fm {last['fm']['value']:.3f}, "
           f"ratios max {max(ratios):.3f}, sup E[F^4] = {max(m4s):.3f}")


def test_criterion_11_multilinear_invariance():
    specs = [rademacher_average(n) for n in (25, 100, 400)]
    for spec, n in zip(specs, (25, 100, 400)):
        assert np.allclose(spec.influences(), 1.0 / n, atol=1e-12)
    rep = moo_invariance(specs, 100_000, seed=1111)
    assert rep.verdict == "pass"
    fms = [r["fm"]["value"] for r in rep.rows]
    assert fms == sorted(fms, reverse=True)
    assert fms[-1] <= 0.05
    report(11, "multilinear invariance",
           f"fm distances {[f'{v:.3f}' for v in fms]} decreasing, final <= 0.05")


def test_criterion_12_distance_calibration():
    n = 10 ** 5
    tv = tv_two_samples(rng.gaussians(1201, 0, n),
                        3.0 + rng.gaussians(1202, 0, n), seed=12)
    target_tv = 2.0 * normal_cdf(1.5) - 1.0
    assert abs(tv.value - target_tv) <= 0.04

    w1 = wasserstein1(rng.gaussians(1203, 0, n),
                      2.0 * rng.gaussians(1204, 0, n), seed=12)
    target_w1 = math.sqrt(2.0 / math.pi)
    assert abs(w1.value - target_w1) <= 0.02

    kde_self = tv_vs_density(rng.gaussians(1205, 0, n), 0.0, 1.0, seed=12)
    hist_self = tv_two_samples(rng.gaussians(1206, 0, n),
                               rng.gaussians(1207, 0, n), seed=12)
    assert kde_self.value <= 0.02
    assert hist_self.value <= 0.03
    report(12, "distance calibration",
           f"tv {tv.value:.4f} vs {target_tv:.4f}, w1 {w1.value:.4f} vs "
           f"{target_w1:.4f}, self {kde_self.value:.4f}/{hist_self.value:.4f}")


def test_zz_summary():
    print("\n\nacceptance summary:")
    for line in RESULTS:
        print(" ", line)
    assert len(RESULTS) == 12
