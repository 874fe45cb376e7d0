import inspect
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from chaoslab import (DegenerateSampleError, fm_two_samples, small_ball,
                      tv_multivariate, tv_two_samples, tv_vs_density,
                      wasserstein1)
from chaoslab import distances, rng
from chaoslab.distances import (KDE_GRID_POINTS, _fm_lattice, _fm_stat, normal_cdf,
                                normal_pdf)

TV_SHIFT3 = math.erf(1.5 / math.sqrt(2.0))  # TV of unit normals 3 apart: 2 Phi(1.5) - 1


BAD_TARGETS = [(0.0, 0.0, "var"), (0.0, -1.0, "var"), (0.0, math.nan, "var"),
               (0.0, math.inf, "var"), (math.nan, 1.0, "mean"), (math.inf, 1.0, "mean")]


def gauss(seed, n, mean=0.0, sd=1.0):
    return mean + sd * rng.gaussians(seed, 0, n)


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestNormalTarget:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("f", [normal_cdf, normal_pdf])
    @pytest.mark.parametrize("x", [0.5, np.array([0.5])], ids=["scalar", "array"])
    @pytest.mark.parametrize("mean, var, name", BAD_TARGETS)
    def test_bad_parameters_rejected(self, f, x, mean, var, name):
        # var 0 used to divide by zero (scalar) or return 1 / nan (array),
        # and a nan mean returned nan
        with pytest.raises(ValueError, match=f"target {name} must be"):
            f(x, mean, var)


class TestNormalCdfMatchesNdtr:
    """normal_cdf ports the Cephes ndtr behind scipy.special.ndtr and must
    return the same bits: compared as uint64, never within a tolerance."""

    def test_seeded_sample(self):
        from scipy.special import ndtr
        gen = np.random.default_rng(20)
        x = np.concatenate([gen.normal(0.0, 3.0, 60_000), gen.uniform(-40.0, 40.0, 30_000),
                            gen.normal(0.0, 0.7, 20_000), gen.uniform(-9.0, -3.0, 10_000)])
        assert (bits(normal_cdf(x)) == bits(ndtr(x))).all()

    def test_branch_edges_and_special_values(self):
        from scipy.special import ndtr
        s, maxlog = distances._SQRT1_2, distances._MAXLOG
        cuts = [(math.sqrt(2.0), lambda z: z < 1.0),            # erf | erfc
                (8.0 * math.sqrt(2.0), lambda z: z < 8.0),      # P/Q | R/S
                (math.sqrt(maxlog) / s, lambda z: -z * z < -maxlog)]  # underflow to 0
        parts = []
        for a, side in cuts:
            window = a + np.arange(-8, 9) * np.spacing(a)   # a and 8 neighbours each way
            assert len({side(abs(v * s)) for v in window}) == 2   # the window straddles the cut
            parts += [window, -window]
        tiny = np.finfo(float).tiny
        parts.append([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
                      tiny, -tiny, np.nextafter(tiny, 0.0), -1e-310, 1.7976931348623157e308,
                      -1.7976931348623157e308])
        x = np.concatenate(parts)
        assert (bits(normal_cdf(x)) == bits(ndtr(x))).all()

    @pytest.mark.parametrize("shape", [(), (7,), (3, 5)])
    def test_shapes(self, shape):
        from scipy.special import ndtr
        x = rng.gaussians(21, 0, math.prod(shape)).reshape(shape) * 2.0
        got = normal_cdf(x, 1.5, 2.5)
        want = ndtr((x - 1.5) / math.sqrt(2.5))
        assert np.shape(got) == shape and type(got) is type(want)
        assert (bits(got) == bits(want)).all()

    @pytest.mark.parametrize("x", [0.3, -2, np.float64(4.1)])
    def test_scalar_in_scalar_out(self, x):
        from scipy.special import ndtr
        got = normal_cdf(x)
        assert isinstance(got, float) and np.ndim(got) == 0
        assert bits(got) == bits(ndtr(x))


class TestTvVsDensity:
    def test_self_distance_stays_under_regression_ceiling(self):
        est = tv_vs_density(gauss(101, 10 ** 5), 0.0, 1.0, seed=1)
        assert est.value <= 0.02
        assert est.ci_low <= est.value <= est.ci_high

    def test_shifted_target_matches_closed_form(self):
        est = tv_vs_density(gauss(102, 10 ** 5, mean=3.0), 0.0, 1.0, seed=1)
        assert abs(est.value - TV_SHIFT3) <= 0.03

    def test_nonunit_target(self):
        est = tv_vs_density(gauss(103, 10 ** 5, mean=1.0, sd=2.0), 1.0, 4.0, seed=1)
        assert est.value <= 0.02

    def test_degenerate_sample_rejected(self):
        with pytest.raises(DegenerateSampleError):
            tv_vs_density(np.zeros(2000), 0.0, 1.0, seed=1)

    def test_small_sample_rejected(self):
        with pytest.raises(ValueError, match="1000"):
            tv_vs_density(gauss(104, 500), 0.0, 1.0, seed=1)

    def test_deterministic_given_seed(self):
        x = gauss(105, 20_000)
        a = tv_vs_density(x, 0.0, 1.0, seed=7)
        b = tv_vs_density(x, 0.0, 1.0, seed=7)
        assert a == b

    def test_value_in_unit_interval(self):
        est = tv_vs_density(gauss(106, 2000, mean=40.0), 0.0, 1.0, seed=1)
        assert 0.0 <= est.value <= 1.0 and est.ci_high <= 1.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mean, var, name", BAD_TARGETS)
    def test_bad_target_rejected_before_binning(self, monkeypatch, mean, var, name):
        def no_histogram(*args, **kwargs):
            raise AssertionError("histogram built before the target was checked")

        monkeypatch.setattr(np, "histogram", no_histogram)
        with pytest.raises(ValueError, match=f"target {name} must be"):
            tv_vs_density(gauss(107, 2000), mean, var, seed=1)


class TestTvTwoSamples:
    def test_identical_batches_give_zero(self):
        x = gauss(111, 50_000)
        assert tv_two_samples(x, x, seed=1).value == 0.0

    def test_self_distance_ceiling(self):
        est = tv_two_samples(gauss(112, 10 ** 5), gauss(113, 10 ** 5), seed=1)
        assert est.value <= 0.03

    def test_shift_matches_closed_form(self):
        est = tv_two_samples(gauss(114, 10 ** 5),
                             gauss(115, 10 ** 5, mean=3.0), seed=1)
        assert abs(est.value - TV_SHIFT3) <= 0.04

    def test_affine_invariance_within_noise(self):
        x = gauss(116, 50_000)
        y = gauss(117, 50_000, mean=1.0)
        base = tv_two_samples(x, y, seed=3)
        mapped = tv_two_samples(3.0 * x - 2.0, 3.0 * y - 2.0, seed=3)
        slack = base.ci_width() + mapped.ci_width() + 1e-3
        assert abs(base.value - mapped.value) <= slack

    def test_both_constant_equal(self):
        z = np.full(2000, 1.5)
        assert tv_two_samples(z, z.copy(), seed=1).value == 0.0

    @pytest.mark.parametrize("k", [21, 30, 40])
    @pytest.mark.parametrize("step", [-1, 0, 1])
    def test_bin_count_is_floor_cube_root_at_cubes(self, monkeypatch, k, step):
        # the float cube root of 21^3 = 9261 is 20.99..., which used to give
        # one bin too few at every perfect cube from 9261 up
        seen = []
        monkeypatch.setattr(distances, "_pooled_counts",
                            lambda x1, x2, bins: seen.append(bins))
        n = k ** 3 + step
        tv_two_samples(gauss(118, n), gauss(119, n + 5), n_boot=0, seed=1)
        assert seen == [k if step >= 0 else k - 1]


class TestTvMultivariate:
    def test_self_distance(self):
        x = rng.gaussians(121, 0, 2 * 50_000).reshape(-1, 2)
        est = tv_multivariate(x, np.eye(2), seed=1)
        assert est.value <= 0.05

    def test_degenerate_diagonal_law(self):
        g = rng.gaussians(122, 0, 50_000)
        x = np.column_stack([g, g])
        est = tv_multivariate(x, np.eye(2), seed=1)
        assert est.value >= 0.9

    def test_not_positive_definite_rejected(self):
        x = rng.gaussians(123, 0, 2 * 10_000).reshape(-1, 2)
        with pytest.raises(ValueError, match="positive definite"):
            tv_multivariate(x, np.array([[1.0, 2.0], [2.0, 1.0]]), seed=1)

    def test_non_symmetric_rejected(self):
        # its symmetric part is the identity, which the sample matches
        x = rng.gaussians(125, 0, 2 * 20_000).reshape(-1, 2)
        with pytest.raises(ValueError, match="symmetric"):
            tv_multivariate(x, np.array([[1.0, 0.9], [-0.9, 1.0]]), n_boot=0, seed=1)

    @pytest.mark.parametrize("cov", [[[math.inf, 0.0], [0.0, 1.0]],
                                     [[1.0, -math.inf], [-math.inf, 1.0]]])
    @pytest.mark.filterwarnings("error")
    def test_infinite_entry_rejected(self, cov):
        # [[inf, 0], [0, 1]] has det = inf > 0, so Sylvester's test alone passes it
        x = rng.gaussians(126, 0, 2 * 10_000).reshape(-1, 2)
        with pytest.raises(ValueError, match="finite entries"):
            tv_multivariate(x, np.array(cov), n_boot=0, seed=1)

    def test_wrong_dimension_rejected(self):
        x = rng.gaussians(124, 0, 3 * 10_000).reshape(-1, 3)
        with pytest.raises(ValueError, match="d = 2"):
            tv_multivariate(x, np.eye(3), seed=1)

    def test_correlated_target(self):
        cov = np.array([[1.0, 0.6], [0.6, 1.0]])
        chol = np.linalg.cholesky(cov)
        z = rng.gaussians(125, 0, 2 * 50_000).reshape(-1, 2) @ chol.T
        est = tv_multivariate(z, cov, seed=1)
        assert est.value <= 0.06


class TestFortetMourier:
    def test_identical_batches_give_zero(self):
        x = gauss(131, 20_000)
        assert fm_two_samples(x, x, seed=1).value == 0.0

    def test_constant_pooled_range_gives_exact_zero(self):
        est = fm_two_samples(np.full(1000, 2.5), np.full(1500, 2.5), seed=1)
        assert est.to_dict() == {"method": "fm-dp", "value": 0.0, "ci": [0.0, 0.0],
                                 "n": [1000, 1500]}

    def test_point_mass_matches_refined_oracle(self):
        # sup over the class is E[min(|X|, 2)] ~ 0.78097; the refined-grid
        # oracle (cells=4096, levels=2001, N=1e6) measured 0.7808 once
        est = fm_two_samples(gauss(132, 10 ** 5), np.zeros(10 ** 5), seed=1)
        assert abs(est.value - 0.7808) <= 0.03

    def test_dominated_by_tv_and_w1(self, gen):
        for trial in range(50):
            seed_a, seed_b = 2 * trial + 500, 2 * trial + 501
            mu = float(gen.uniform(-1.5, 1.5))
            sd = float(gen.uniform(0.5, 2.0))
            x = gauss(seed_a, 4000)
            y = gauss(seed_b, 4000, mean=mu, sd=sd)
            fm = fm_two_samples(x, y, n_boot=0, seed=1).value
            tv = tv_two_samples(x, y, n_boot=0, seed=1).value
            w1 = wasserstein1(x, y, n_boot=0, seed=1).value
            assert fm <= 2.0 * tv + 0.02
            assert fm <= w1 + 0.02

    def test_monotone_in_levels_when_lattice_nests(self):
        # the discretized function class grows exactly when the finer level
        # lattice contains the coarser one (window counts divide)
        from chaoslab.distances import _fm_lattice
        x = gauss(133, 30_000)
        y = np.zeros(30_000)
        dx = (max(x.max(), 0.0) - min(x.min(), 0.0)) / 512
        results = {}
        for lv in (51, 101, 201, 401, 801):
            _, window = _fm_lattice(dx, lv, 512)
            results[lv] = (window, fm_two_samples(x, y, levels=lv,
                                                  n_boot=0, seed=1).value)
        nested_checks = 0
        levels = sorted(results)
        for coarse in levels:
            for fine in levels:
                if fine <= coarse:
                    continue
                m_c, v_c = results[coarse]
                m_f, v_f = results[fine]
                if m_f % m_c == 0:
                    assert v_f >= v_c - 1e-12
                    nested_checks += 1
        assert nested_checks >= 2

    def test_cell_refinement_stays_within_grid_slack(self):
        x = gauss(134, 30_000)
        y = gauss(135, 30_000, mean=0.7)
        coarse = fm_two_samples(x, y, cells=256, n_boot=0, seed=1).value
        fine = fm_two_samples(x, y, cells=512, n_boot=0, seed=1).value
        span = max(x.max(), y.max()) - min(x.min(), y.min())
        assert fine >= coarse - span / 256.0

    def test_bounded_by_two(self):
        est = fm_two_samples(gauss(136, 2000, mean=-50.0),
                             gauss(137, 2000, mean=50.0), n_boot=0, seed=1)
        assert est.value <= 2.0 + 1e-9


class TestWasserstein:
    def test_identical(self):
        x = gauss(141, 5000)
        assert wasserstein1(x, x, n_boot=0, seed=1).value == 0.0

    def test_translation_exact(self):
        x = gauss(142, 5000)
        assert wasserstein1(x, x + 3.0, n_boot=0, seed=1).value == pytest.approx(3.0)

    def test_scale_gap_closed_form(self):
        est = wasserstein1(gauss(143, 10 ** 5), gauss(144, 10 ** 5, sd=2.0), seed=1)
        assert abs(est.value - math.sqrt(2.0 / math.pi)) <= 0.02

    def test_unequal_sizes_rejected(self):
        with pytest.raises(ValueError, match="sizes"):
            wasserstein1(gauss(145, 1000), gauss(146, 1001), seed=1)


class TestSmallBall:
    def test_threshold_above_range_gives_one(self):
        x = gauss(151, 20_000)
        est = small_ball(x, float(np.abs(x).max()) + 1.0)
        assert est.value == 1.0 and est.ci_high == 1.0

    def test_normal_interval_probability(self):
        est = small_ball(gauss(152, 10 ** 5), 1.0)
        target = 2.0 * normal_cdf(1.0) - 1.0
        assert est.ci_low - 1e-3 <= target <= est.ci_high + 1e-3

    def test_monotone_in_alpha(self):
        x = gauss(153, 20_000)
        vals = [small_ball(x, a).value for a in (0.1, 0.5, 1.0, 2.0)]
        assert vals == sorted(vals)

    def test_cubed_gaussian_sharpness(self):
        x = rng.gaussians(154, 0, 10 ** 5) ** 3
        est = small_ball(x, 1e-3)
        ratio = est.value / (1e-3) ** (1.0 / 3.0)
        assert abs(ratio - math.sqrt(2.0 / math.pi)) <= 0.1 * math.sqrt(2.0 / math.pi)

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            small_ball(gauss(155, 20_000), 0.0)
        with pytest.raises(ValueError, match="10000"):
            small_ball(gauss(156, 500), 1.0)


class TestClopperPearson:
    """small_ball's interval uses scipy.special.betaincinv, so importing
    chaoslab does not load scipy.stats; beta.ppf stays the oracle here."""

    @staticmethod
    def _cases():
        for n in (10_000, 100_000, 1_000_000):
            for k in (1, 2, 3, 17, 250, n // 3, n // 2, n - 250, n - 17, n - 2, n - 1):
                yield 0.025, k, n - k + 1   # lower end at k successes
                yield 0.975, k + 1, n - k   # upper end at k successes

    def test_betaincinv_matches_beta_ppf_bit_for_bit(self):
        from scipy.special import betaincinv
        from scipy.stats import beta
        for q, a, b in self._cases():
            assert betaincinv(a, b, q) == beta.ppf(q, a, b), (q, a, b)

    @pytest.mark.parametrize("k", [0, 1, 2, 5000, 9998, 9999, 10_000])
    def test_small_ball_interval(self, k):
        from scipy.stats import beta
        n = 10_000
        x = np.where(np.arange(n) < k, 0.5, 3.0)
        est = small_ball(x, 1.0)
        assert est.value == k / n
        assert est.ci_low == (0.0 if k == 0 else float(beta.ppf(0.025, k, n - k + 1)))
        assert est.ci_high == (1.0 if k == n else float(beta.ppf(0.975, k + 1, n - k)))

    def test_import_leaves_scipy_stats_unloaded(self):
        code = "import sys, chaoslab; print('scipy.stats' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_fm_and_w1_leave_scipy_unloaded(self):
        code = ("import sys\n"
                "from chaoslab import fm_two_samples, rng, wasserstein1\n"
                "x, y = rng.gaussians(1, 0, 2000), rng.gaussians(2, 0, 2000)\n"
                "fm_two_samples(x, y, n_boot=5)\n"
                "wasserstein1(x, y, n_boot=5)\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestEstimateContract:
    def test_every_estimator_deterministic_given_seed(self):
        x = gauss(191, 20_000)
        y = gauss(192, 20_000, mean=0.5)
        xy = rng.gaussians(193, 0, 2 * 20_000).reshape(-1, 2)
        pairs = [
            (tv_vs_density(x, 0.0, 1.0, seed=9), tv_vs_density(x, 0.0, 1.0, seed=9)),
            (tv_two_samples(x, y, seed=9), tv_two_samples(x, y, seed=9)),
            (tv_multivariate(xy, np.eye(2), seed=9), tv_multivariate(xy, np.eye(2), seed=9)),
            (fm_two_samples(x, y, seed=9), fm_two_samples(x, y, seed=9)),
            (wasserstein1(x, y, seed=9), wasserstein1(x, y, seed=9)),
            (small_ball(x, 1.0), small_ball(x, 1.0)),
        ]
        for a, b in pairs:
            assert a == b

    def test_scalar_estimators_reject_vector_batches(self):
        xy = rng.gaussians(194, 0, 2 * 20_000).reshape(-1, 2)
        for call in (lambda: tv_vs_density(xy, 0.0, 1.0, seed=1),
                     lambda: tv_two_samples(xy, xy, seed=1),
                     lambda: fm_two_samples(xy, xy, seed=1),
                     lambda: wasserstein1(xy, xy, seed=1),
                     lambda: small_ball(xy, 1.0)):
            with pytest.raises(ValueError, match="scalar"):
                call()

    def test_serialization_fields(self):
        est = tv_two_samples(gauss(161, 2000), gauss(162, 2000), n_boot=8, seed=1)
        d = est.to_dict()
        assert set(d) == {"method", "value", "ci", "n"}
        assert d["method"] == "tv-hist"
        assert d["ci"][0] <= d["value"] <= d["ci"][1]
        assert d["n"] == [2000, 2000]

    def test_tv_values_in_unit_interval(self, gen):
        for trial in range(10):
            x = gauss(trial + 170, 2000)
            y = gauss(trial + 180, 2000, mean=float(gen.uniform(-4, 4)))
            est = tv_two_samples(x, y, n_boot=4, seed=1)
            assert 0.0 <= est.value <= 1.0



PAIR = (gauss(201, 2000), gauss(202, 2000, mean=0.5))
CONSTANT_PAIR = (np.full(2000, 1.5), np.full(2000, 1.5))  # pooled range 0: no bootstrap
KNOB_CASES = [
    ("tv_vs_density", lambda kw: tv_vs_density(PAIR[0], 0.0, 1.0, seed=1, **kw)),
    ("tv_two_samples", lambda kw: tv_two_samples(*PAIR, seed=1, **kw)),
    ("tv_two_samples-constant", lambda kw: tv_two_samples(*CONSTANT_PAIR, seed=1, **kw)),
    ("tv_multivariate", lambda kw: tv_multivariate(
        rng.gaussians(203, 0, 2 * 10_000).reshape(-1, 2), np.eye(2), seed=1, **kw)),
    ("fm_two_samples", lambda kw: fm_two_samples(*PAIR, seed=1, **kw)),
    ("fm_two_samples-constant", lambda kw: fm_two_samples(*CONSTANT_PAIR, seed=1, **kw)),
    ("wasserstein1", lambda kw: wasserstein1(*PAIR, seed=1, **kw)),
]
FM_KNOBS = [("cells", 0), ("cells", -3), ("levels", 1), ("levels", 0), ("levels", -2)]


@pytest.mark.parametrize("call, knob, value", [
    *[pytest.param(call, "n_boot", -1, id=f"{name}-n_boot") for name, call in KNOB_CASES],
    *[pytest.param(call, knob, value, id=f"{name}-{knob}{value}")
      for name, call in KNOB_CASES if name.startswith("fm") for knob, value in FM_KNOBS],
])
def test_bad_knob_rejected_before_binning_or_draws(monkeypatch, call, knob, value):
    """n_boot >= 0 on every bootstrapped estimator, and cells >= 1 and
    levels >= 2 on fm_two_samples, are refused by name before any
    histogram or generator is made."""
    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the knob check")

    for name in ("_pooled_counts", "_bootstrap"):
        monkeypatch.setattr(distances, name, forbidden)
    monkeypatch.setattr(distances.np, "histogram", forbidden)
    monkeypatch.setattr(distances.np, "histogram2d", forbidden)
    monkeypatch.setattr(distances.np.random, "default_rng", forbidden)
    with pytest.raises(ValueError, match=f"{knob} must be >= .*, got {value}"):
        call({knob: value})


# (estimator, call on its sample sets, sets it takes, sample shape)
NON_FINITE_CASES = [
    ("tv_vs_density", lambda s: tv_vs_density(s[0], 0.0, 1.0, seed=1), 1, ()),
    ("tv_two_samples", lambda s: tv_two_samples(*s, seed=1), 2, ()),
    ("tv_multivariate", lambda s: tv_multivariate(s[0], np.eye(2), seed=1), 1, (2,)),
    ("fm_two_samples", lambda s: fm_two_samples(*s, seed=1), 2, ()),
    ("wasserstein1", lambda s: wasserstein1(*s, seed=1), 2, ()),
    ("small_ball", lambda s: small_ball(s[0], 1.0), 1, ()),
]


class TestNonFiniteSamples:
    """Every estimator refuses a sample set holding a NaN or an infinity,
    naming the first such sample, whichever set it is in."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("call, arity, which, shape", [
        pytest.param(call, arity, which, shape, id=f"{name}-set{which + 1}")
        for name, call, arity, shape in NON_FINITE_CASES for which in range(arity)])
    def test_refused_naming_the_sample(self, call, arity, which, shape, bad):
        d = shape[0] if shape else 1
        sets = [gauss(200 + i, 10_000 * d).reshape((-1,) + shape) for i in range(arity)]
        pos = (5,) + (1,) * len(shape)
        sets[which][pos] = bad
        sets[which][(7,) + pos[1:]] = math.nan     # a later one is not named
        with pytest.raises(ValueError,
                           match=f"^sample {'/'.join(map(str, pos))} is not finite"):
            call(sets)


# ---------------------------------------------------------------------------
# reference: the per-replicate bootstrap loop and 1-D statistics that the
# one-array bootstrap replaced; the estimators must match it bit for bit

def _loop_estimate(stat, samples, n_boot, seed, label, cap=None):
    point = stat(*(c for c, _ in samples))
    gen = np.random.default_rng(rng.derive(seed, label))
    probs = [(n, c / n) for c, n in samples]
    boots = np.array([stat(*[gen.multinomial(n, p) for n, p in probs])
                      for _ in range(n_boot)])
    lo, hi = np.percentile(boots, [2.5, 97.5]) if boots.size else (point, point)
    out = (float(point), float(min(lo, point)), float(max(hi, point)))
    return out if cap is None else tuple(min(v, cap) for v in out)


def _loop_fm_stat(diff, lv, window):
    # scipy is imported here, not at the top, so that the tracemalloc tests
    # of this module see an import that a library call makes
    from scipy.ndimage import maximum_filter1d

    best = lv * diff[0]
    if window is None or window >= lv.size - 1:
        for d in diff[1:]:
            best = lv * d + best.max()
    else:
        for d in diff[1:]:
            best = lv * d + maximum_filter1d(best, size=2 * window + 1, mode="nearest")
    return float(best.max())


def _loop_wasserstein1(x1, x2, n_boot, seed):
    a, b = np.sort(x1), np.sort(x2)
    gen = np.random.default_rng(rng.derive(seed, 0x7D5))
    boots = np.empty(n_boot)
    for i in range(n_boot):
        ra = np.sort(gen.choice(a, size=a.size, replace=True))
        rb = np.sort(gen.choice(b, size=b.size, replace=True))
        boots[i] = np.abs(ra - rb).mean()
    point = float(np.abs(a - b).mean())
    lo, hi = np.percentile(boots, [2.5, 97.5]) if boots.size else (point, point)
    return point, float(min(lo, point)), float(max(hi, point))


def _common_histograms(x1, x2, cells):
    edges = np.linspace(min(x1.min(), x2.min()), max(x1.max(), x2.max()), cells + 1)
    return edges, np.histogram(x1, edges)[0], np.histogram(x2, edges)[0]


def _loop_fm(x1, x2, cells, levels, n_boot, seed):
    n1, n2 = x1.size, x2.size
    edges, c1, c2 = _common_histograms(x1, x2, cells)
    lv, window = _fm_lattice(edges[1] - edges[0], levels, cells)
    return window, lv.size, _loop_estimate(
        lambda a, b: _loop_fm_stat(a / n1 - b / n2, lv, window),
        [(c1, n1), (c2, n2)], n_boot, seed, 0x7D4)


def _loop_tv_two_samples(x1, x2, n_boot, seed):
    n1, n2 = x1.size, x2.size
    _, c1, c2 = _common_histograms(x1, x2, max(20, int(min(n1, n2) ** (1.0 / 3.0))))
    return _loop_estimate(lambda a, b: 0.5 * float(np.abs(a / n1 - b / n2).sum()),
                          [(c1, n1), (c2, n2)], n_boot, seed, 0x7D2)


def _loop_tv_vs_density(x, n_boot, seed, grid_points=2048):
    n = x.size
    h = 1.06 * float(np.std(x, ddof=1)) * n ** (-0.2)
    lo, hi = float(x.min()) - 4.0 * h, float(x.max()) + 4.0 * h
    edges = np.linspace(lo, hi, grid_points + 1)
    dx = edges[1] - edges[0]
    radius = min(int(math.ceil(5.0 * h / dx)), grid_points // 2 - 1)
    kernel = np.exp(-(np.arange(-radius, radius + 1) * dx) ** 2 / (2.0 * h * h))
    kernel /= kernel.sum()
    target = normal_pdf(0.5 * (edges[:-1] + edges[1:]))
    tail = float(normal_cdf(lo) + (1.0 - normal_cdf(hi)))

    def stat(c):
        dens = np.convolve(c, kernel, mode="same") / (n * dx)
        return 0.5 * (float(np.trapezoid(np.abs(dens - target), dx=dx)) + tail)

    return _loop_estimate(stat, [(np.histogram(x, edges)[0], n)], n_boot, seed,
                          0x7D1, cap=1.0)


def _loop_tv_multivariate(xy, cov, n_boot, seed, grid_cells=40):
    n = xy.shape[0]
    half = 4.0 * math.sqrt(float(cov.diagonal().max()))
    edges = np.linspace(-half, half, grid_cells + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    cinv = np.linalg.inv(cov)
    cx, cy = np.meshgrid(centers, centers, indexing="ij")
    quad = cinv[0, 0] * cx ** 2 + 2.0 * cinv[0, 1] * cx * cy + cinv[1, 1] * cy ** 2
    gauss = np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(np.linalg.det(cov)))
    gmass = gauss.ravel() * (edges[1] - edges[0]) ** 2
    gout = max(0.0, 1.0 - float(gmass.sum()))
    counts = np.histogram2d(xy[:, 0], xy[:, 1], bins=(edges, edges))[0].ravel()

    def stat(c):
        return 0.5 * (float(np.abs(c[:-1] / n - gmass).sum()) + c[-1] / n + gout)

    return _loop_estimate(stat, [(np.append(counts, n - counts.sum()), n)],
                          n_boot, seed, 0x7D3, cap=1.0)


def _triple(est):
    return est.value, est.ci_low, est.ci_high


def _bits(values):
    """Values as uint64, so that +0.0 and -0.0 differ."""
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


class TestBootstrapMatchesReplicateLoop:
    """Evaluating all replicates as one array draws and computes exactly
    what the per-replicate loop did: equal bits, not approximate ones."""

    @pytest.mark.parametrize("n_boot", [0, 25])
    def test_fm_windowed_lattice(self, n_boot):
        x, y = gauss(201, 5000), gauss(202, 5000, mean=0.4, sd=1.3)
        window, size, ref = _loop_fm(x, y, 512, 201, n_boot, 7)
        assert window is not None and window < size - 1
        assert _bits(_triple(fm_two_samples(x, y, n_boot=n_boot, seed=7))) == _bits(ref)

    @pytest.mark.parametrize("n_boot", [0, 25])
    def test_fm_window_spans_lattice(self, n_boot):
        # pooled range 7.6 over 4 cells: dx = 1.9, so the window reaches
        # across the whole 11-level lattice
        x = 7.6 * rng.uniforms(203, 0, 4000)
        x[:2] = 0.0, 7.6
        y = 7.6 * rng.uniforms(204, 0, 4000) ** 2
        window, size, ref = _loop_fm(x, y, 4, 11, n_boot, 7)
        assert window is not None and window >= size - 1
        assert _bits(_triple(fm_two_samples(x, y, cells=4, levels=11,
                                            n_boot=n_boot, seed=7))) == _bits(ref)

    @pytest.mark.parametrize("n_boot", [0, 25])
    def test_fm_void_chain_constraint(self, n_boot):
        x, y = gauss(205, 4000, sd=3.0), gauss(206, 4000, mean=1.0, sd=3.0)
        window, _, ref = _loop_fm(x, y, 2, 201, n_boot, 7)
        assert window is None
        assert _bits(_triple(fm_two_samples(x, y, cells=2, n_boot=n_boot,
                                            seed=7))) == _bits(ref)

    @pytest.mark.parametrize("n_boot", [0, 25])
    def test_fm_heavy_tails(self, n_boot):
        # squared Gaussians: a long right tail leaves ~40% of the 512
        # cells empty in both histograms, most of them in runs
        x, y = gauss(211, 5000) ** 2, 1.2 * gauss(212, 5000) ** 2
        window, size, ref = _loop_fm(x, y, 512, 201, n_boot, 7)
        assert window is not None and window < size - 1
        assert _bits(_triple(fm_two_samples(x, y, n_boot=n_boot, seed=7))) == _bits(ref)

    @pytest.mark.parametrize("n_boot", [0, 25])
    def test_fm_lone_minimum(self, n_boot):
        # one outlier holds the first cell and every cell after it up to
        # the bulk is empty
        x, y = gauss(213, 5000), gauss(214, 5000, mean=0.5)
        x[0] = -9.0
        _, _, ref = _loop_fm(x, y, 512, 201, n_boot, 7)
        assert _bits(_triple(fm_two_samples(x, y, n_boot=n_boot, seed=7))) == _bits(ref)

    @pytest.mark.parametrize("n_boot", [0, 25])
    def test_fm_identical_inputs(self, n_boot):
        # the observed row is all zeros: its value is a signed zero
        x = gauss(215, 4000)
        _, _, ref = _loop_fm(x, x, 512, 201, n_boot, 7)
        est = fm_two_samples(x, x, n_boot=n_boot, seed=7)
        assert est.value == 0.0
        assert _bits(_triple(est)) == _bits(ref)

    @pytest.mark.parametrize("cells, levels, dx", [
        (2, 17, 0.5),   # all-zero rows end mixed: the final reduction decides the sign
        (4, 9, 0.3),    # trailing empty cells still move those signs
        (2, 9, 1.9),    # window spans the lattice
        (3, 17, 0.34),  # equal maxima: the highest level's signed zero wins
    ])
    def test_fm_stat_all_zero_rows(self, cells, levels, dx):
        lv, window = _fm_lattice(dx, levels, cells)
        diff = np.zeros((3, cells))
        diff[1, :2] = 0.25, -0.25
        assert _bits(_fm_stat(diff, lv, window)) == \
            _bits([_loop_fm_stat(d, lv, window) for d in diff])

    @pytest.mark.parametrize("n_boot", [0, 25])
    def test_wasserstein1(self, n_boot):
        x, y = gauss(216, 6000), gauss(217, 6000, mean=0.2, sd=1.4)
        assert _bits(_triple(wasserstein1(x, y, n_boot=n_boot, seed=7))) == \
            _bits(_loop_wasserstein1(x, y, n_boot, 7))

    @pytest.mark.parametrize("n_boot", [0, 25])
    def test_tv_two_samples(self, n_boot):
        x, y = gauss(207, 8000), gauss(208, 8000, mean=0.3)
        assert _triple(tv_two_samples(x, y, n_boot=n_boot, seed=7)) == \
            _loop_tv_two_samples(x, y, n_boot, 7)

    @pytest.mark.parametrize("n_boot", [0, 25])
    def test_tv_vs_density(self, n_boot):
        x = gauss(209, 4000, mean=0.3)
        assert _triple(tv_vs_density(x, 0.0, 1.0, n_boot=n_boot, seed=7)) == \
            _loop_tv_vs_density(x, n_boot, 7)

    @pytest.mark.parametrize("n_boot", [0, 25])
    def test_tv_multivariate(self, n_boot):
        cov = np.array([[1.0, 0.3], [0.3, 1.2]])
        xy = rng.gaussians(210, 0, 2 * 12_000).reshape(-1, 2) * 1.2
        assert _triple(tv_multivariate(xy, cov, n_boot=n_boot, seed=7)) == \
            _loop_tv_multivariate(xy, cov, n_boot, 7)


# ---------------------------------------------------------------------------
# reference: the row lists, np.stack and vectorized KDE and 2d-grid
# statistics that the preallocated, row-by-row bootstrap replaced

def _stacked_bootstrap(stat, samples, n_boot, seed, label, method, cap=None):
    gen = np.random.default_rng(rng.derive(seed, label))
    probs = [(n, c / n) for c, n in samples]
    rows = [[c] for c, _ in samples]
    for _ in range(n_boot):
        for arg, (n, p) in zip(rows, probs):
            arg.append(gen.multinomial(n, p))
    vals = stat(*map(np.stack, rows))
    return distances._finish(vals[0], vals[1:], method, tuple(n for _, n in samples), cap)


def _stacked_kde_stat(kernel, n, dx, target, tail):
    def stat(c):
        dens = np.array([np.convolve(r, kernel, mode="same") for r in c]) / (n * dx)
        return 0.5 * (np.trapezoid(np.abs(dens - target), dx=dx, axis=1) + tail)
    return stat


def _stacked_grid_stat(n, gmass, gout):
    def stat(c):
        emp = c[:, :-1] / n
        return 0.5 * (np.abs(emp - gmass).sum(axis=1) + c[:, -1] / n + gout)
    return stat


_VECTORIZED = {"tv-kde": _stacked_kde_stat, "tv-grid2d": _stacked_grid_stat}


def _stacked(monkeypatch, call):
    """call() run through the stacked bootstrap.  The KDE and 2d-grid
    statistics are rebuilt in their vectorized form from the variables the
    estimator's own statistic closes over, so the setup is shared and only
    the bootstrap and the reduction differ."""
    def bootstrap(stat, samples, n_boot, seed, label, method, cap=None):
        if method in _VECTORIZED:
            stat = _VECTORIZED[method](**inspect.getclosurevars(stat).nonlocals)
        return _stacked_bootstrap(stat, samples, n_boot, seed, label, method, cap)

    with monkeypatch.context() as m:
        m.setattr(distances, "_bootstrap", bootstrap)
        return call()


class TestBootstrapMatchesStackedArrays:
    """Writing replicates into one preallocated array per argument and
    reducing the KDE and 2d-grid statistics row by row gives the bits of
    the row lists, np.stack and the vectorized statistics."""

    @staticmethod
    def _check(monkeypatch, call):
        """Both routes give the same bits in every statistic value (the
        point and each replicate, as _finish receives them) and in the
        estimate."""
        seen, finish = [], distances._finish

        def spy(point, boots, *args, **kwargs):
            seen.append(_bits(np.append(point, boots)))
            return finish(point, boots, *args, **kwargs)

        monkeypatch.setattr(distances, "_finish", spy)
        assert _bits(_triple(call())) == _bits(_triple(_stacked(monkeypatch, call)))
        assert len(seen) == 2 and seen[0] == seen[1]

    @pytest.mark.parametrize("counts", [np.array([3, 0, 5, 2]),         # np.histogram
                                        np.array([3.0, 0.0, 5.0, 2.0])])  # histogram2d
    def test_replicate_arrays_equal_stacked_rows(self, counts):
        def collect(into):
            def stat(*arrays):
                into.extend(arrays)
                return np.zeros(len(arrays[0]))
            return stat

        other = np.array([1, 4, 4, 1])
        got, want = [], []
        for bootstrap, into in ((distances._bootstrap, got), (_stacked_bootstrap, want)):
            bootstrap(collect(into), [(counts, 10), (other, 10)], 25, 7, 0x7D2, "m")
        assert [a.dtype for a in got] == [a.dtype for a in want] == [counts.dtype, np.int64]
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("n_boot", [0, 1, 25])
    def test_tv_vs_density(self, monkeypatch, n_boot):
        x = gauss(218, 4000, mean=0.3, sd=1.1)
        self._check(monkeypatch, lambda: tv_vs_density(x, 0.0, 1.0, n_boot=n_boot, seed=7))

    @pytest.mark.parametrize("n_boot", [0, 1, 25])
    def test_tv_vs_density_clamped_kernel(self, monkeypatch, n_boot):
        # sigma is at most about (max - min) / 2, so h < 0.14 (max - min) at
        # N >= 1000, and on the shipped grid the clamp (which needs h above
        # about (max - min) / 2) cannot be reached; on a 4-point grid a
        # two-point sample reaches it (unclamped radius 2, clamp 1)
        monkeypatch.setattr(distances, "KDE_GRID_POINTS", 4)
        x = np.where(np.arange(1000) % 2 == 0, -1.0, 1.0)
        kernels = []
        real = distances._bootstrap

        def spy(stat, *args, **kwargs):
            kernels.append(inspect.getclosurevars(stat).nonlocals["kernel"])
            return real(stat, *args, **kwargs)

        call = lambda: tv_vs_density(x, 0.0, 1.0, n_boot=n_boot, seed=7)  # noqa: E731
        with monkeypatch.context() as m:
            m.setattr(distances, "_bootstrap", spy)
            call()
        assert kernels[0].size == 2 * (4 // 2 - 1) + 1
        self._check(monkeypatch, call)

    @pytest.mark.parametrize("n_boot", [0, 1, 25])
    def test_tv_multivariate_escaped_mass(self, monkeypatch, n_boot):
        xy = rng.gaussians(226, 0, 2 * 12_000).reshape(-1, 2) * 2.0
        cov = np.array([[1.0, 0.3], [0.3, 1.2]])
        assert (np.abs(xy) > 4.0 * math.sqrt(1.2)).any(axis=1).sum() > 100
        self._check(monkeypatch, lambda: tv_multivariate(xy, cov, n_boot=n_boot, seed=7))

    @pytest.mark.parametrize("n_boot", [0, 1, 25])
    def test_tv_two_samples(self, monkeypatch, n_boot):
        x, y = gauss(220, 8000), gauss(221, 8000, mean=0.3)
        self._check(monkeypatch, lambda: tv_two_samples(x, y, n_boot=n_boot, seed=7))

    @pytest.mark.parametrize("n_boot", [0, 1, 25])
    def test_fm_two_samples(self, monkeypatch, n_boot):
        x, y = gauss(222, 5000), gauss(223, 5000, mean=0.4, sd=1.3)
        self._check(monkeypatch, lambda: fm_two_samples(x, y, n_boot=n_boot, seed=7))

    def test_kde_peak_memory_is_one_replicate_array(self):
        x = gauss(224, 50_000)
        tracemalloc.start()
        try:
            tv_vs_density(x, 0.0, 1.0, n_boot=200, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the (201, grid) int64 replicate array plus one grid per row; a
        # stacked copy and float arrays of every row would double it
        assert peak < 2 * 201 * KDE_GRID_POINTS * 8
