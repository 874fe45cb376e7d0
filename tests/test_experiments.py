import inspect
import math

import numpy as np
import pytest

from chaoslab import (MultilinearSpec,
                      basis_element, carbery_wright_probe, carre_du_champ,
                      constant_element, d12_rate_probe, df_small_ball_probe,
                      dm_rate, evaluate_batch, expectation, evaluate,
                      fourth_moment_certificate, identity_suite, kernel_add,
                      linear_combine, make_kernel, moment, moo_invariance,
                      multilinear_eval, multilinear_to_chaos,
                      pair_sum_element, pair_sum_kernel, pair_sum_vector,
                      peccati_tudor_run, rademacher_average,
                      sample_multilinear, shigekawa_rate, single_integral,
                      variance, zero_kernel)
from chaoslab import ChaosElement, ChaosVector, distances, experiments, rng
from chaoslab.chaos import _SAMPLE_BLOCK
from chaoslab.experiments import (D12_STABILITY_FACTOR, DM_SLOPE_SLACK,
                                  DM_STABILITY_FACTOR, _all_rows_verdict,
                                  _d12_verdict, _dm_verdict, _moo_verdict,
                                  _peccati_tudor_verdict, _shigekawa_verdict)

X_CUBED = linear_combine([
    (1.0, single_integral(make_kernel(3, 1, [((1, 1, 1), 1.0)]))),
    (3.0, basis_element(1, 1))])


class TestPairSumFamily:
    @pytest.mark.parametrize("n", [1, 2, 5, 10, 50])
    def test_unit_variance_exact(self, n):
        assert variance(pair_sum_element(n)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 5, 10, 50])
    def test_fourth_moment_closed_form(self, n):
        assert moment(pair_sum_element(n), 4) == pytest.approx(3.0 + 6.0 / n, abs=1e-10)

    def test_polynomial_form(self, gen):
        n = 4
        fel = pair_sum_element(n)
        x = gen.normal(size=(50, 2 * n))
        direct = sum(x[:, 2 * i] * x[:, 2 * i + 1] for i in range(n)) / math.sqrt(n)
        assert np.allclose(evaluate_batch(fel, x), direct, atol=1e-12)

    def test_offset_embedding(self):
        ker = pair_sum_kernel(3, offset=1, dim=7)
        assert ker.dim == 7 and min(min(idx) for idx in ker.entries) == 2


class TestFourthMoment:
    def test_pair_sum_passes(self):
        members = [(float(n), pair_sum_element(n)) for n in (10, 20)]
        rep = fourth_moment_certificate(2, members, 20_000, seed=5)
        assert rep.verdict == "pass"
        assert [r["fourth_moment"] for r in rep.rows] == \
            pytest.approx([3.6, 3.3], abs=1e-10)

    def test_vacuous_bound_reported(self):
        # a fixed far-from-normal member: normalized H_2 has fourth moment 15
        fixed = single_integral(make_kernel(2, 1, [((1, 1), 1.0)]), 1 / math.sqrt(2))
        rep = fourth_moment_certificate(2, [(1.0, fixed)], 20_000, seed=5)
        assert rep.rows[0]["fourth_moment"] == pytest.approx(15.0, abs=1e-9)
        assert rep.rows[0]["bound"] == pytest.approx(math.sqrt(2.0 / 3.0) * math.sqrt(12.0))
        assert rep.rows[0]["vacuous"] is True
        assert rep.verdict == "vacuous"

    def test_bound_constant_at_unit_excess(self):
        # at six pairs the fourth-moment excess is exactly 1, so the bound
        # equals the bare constant sqrt(2/3)
        rep = fourth_moment_certificate(2, [(6.0, pair_sum_element(6))], 2000, seed=5)
        assert rep.rows[0]["bound"] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)

    def test_low_order_rejected(self):
        with pytest.raises(ValueError, match="k >= 2"):
            fourth_moment_certificate(1, [(4.0, pair_sum_element(4))], 2000, seed=1)

    def test_member_outside_chaos_k_rejected(self):
        mixed = linear_combine([(1.0, pair_sum_element(4)), (0.5, basis_element(8, 1))])
        members = [(0.0, pair_sum_element(4)), (1.0, mixed)]
        with pytest.raises(ValueError, match="member 1.0 is not in chaos 2"):
            fourth_moment_certificate(2, members, 2000, seed=1)
        with pytest.raises(ValueError, match="member 4.0 is not in chaos 3"):
            fourth_moment_certificate(3, [(4.0, pair_sum_element(4))], 2000, seed=1)
        shifted = linear_combine([(1.0, pair_sum_element(4)), (1.0, constant_element(8, 1.0))])
        with pytest.raises(ValueError, match="not in chaos 2"):
            fourth_moment_certificate(2, [(0.0, shifted)], 2000, seed=1)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="zero variance"):
            fourth_moment_certificate(2, [(0.0, constant_element(2, 1.0))], 2000, seed=1)

    def test_zero_workers_refused_by_sample(self):
        with pytest.raises(ValueError, match="need workers >= 1, got 0"):
            fourth_moment_certificate(2, [(6.0, pair_sum_element(6))], 2000, seed=1,
                                      workers=0)


class TestShigekawa:
    def test_pair_sum_against_gaussian_limit(self):
        members = [(float(n), pair_sum_element(n)) for n in (10, 30)]
        rep = shigekawa_rate(2, members, basis_element(1, 1), 20_000, seed=5)
        assert rep.verdict == "pass"
        assert rep.rows[0]["fourth_moment"] == pytest.approx(3.6, abs=1e-10)

    def test_constant_sequence_is_vacuous(self):
        limit = pair_sum_element(8)
        members = [(float(i), limit) for i in range(3)]
        rep = shigekawa_rate(2, members, limit, 20_000, seed=5)
        assert rep.verdict == "vacuous"

    def test_zero_variance_limit_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            shigekawa_rate(2, [(1.0, pair_sum_element(2))],
                           constant_element(1, 3.0), 2000, seed=1)

    def test_member_above_declared_order_rejected(self):
        cubic = single_integral(make_kernel(3, 3, [((1, 2, 3), 1.0)]))
        with pytest.raises(ValueError, match="order"):
            shigekawa_rate(2, [(1.0, cubic)], basis_element(1, 1), 2000, seed=1)

    def test_limit_above_declared_order_rejected_before_sampling(self, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "sample", lambda *args, **kw: calls.append(args))
        members = [(float(n), pair_sum_element(n, dim=40)) for n in (5, 10)]
        limit = single_integral(make_kernel(3, 40, [((1, 2, 3), 1.0 / math.sqrt(6.0))]))
        with pytest.raises(ValueError,
                           match="^limit of order 3 exceeds declared max order 2$"):
            shigekawa_rate(2, members, limit, 5000, seed=1)
        assert calls == []

    def test_members_above_the_moment_cap_report_no_fourth_moment(self):
        # E[F^4] of X_1 + t I_3(e_1 e_2 e_3) takes the product route, 4 * 3 > ORDER_CAP
        cubic = single_integral(make_kernel(3, 3, [((1, 2, 3), 1.0)]))
        members = [(t, linear_combine([(1.0, basis_element(3, 1)), (t, cubic)]))
                   for t in (0.5, 0.25)]
        rep = shigekawa_rate(3, members, basis_element(3, 1), 2000, seed=1)
        assert [row["fourth_moment"] for row in rep.rows] == [None, None]
        assert rep.notes == ["rate exponent 1/(2p+1) = 0.142857 at p=3"]


def perturbation(base, direction, scales):
    """The members (t, I(base + t direction)) and the limit I(base)."""
    return ([(t, single_integral(kernel_add(base, direction.scale(t)))) for t in scales],
            single_integral(base))


class TestDmRate:
    def setup_method(self):
        self.base = make_kernel(2, 2, [((1, 1), 1.0 / math.sqrt(2.0))])
        self.direction = make_kernel(2, 2, [((1, 2), 0.5)])

    def test_zero_scale_gives_exactly_zero_distance(self):
        rep = dm_rate(2, *perturbation(self.base, self.direction, [0.0]), 5000, seed=5)
        assert rep.rows[0]["kernel_dist"] == 0.0
        assert rep.rows[0]["tv"]["value"] == 0.0

    def test_rate_experiment_passes(self):
        scales = [2.0 ** -j for j in range(1, 7)]
        rep = dm_rate(2, *perturbation(self.base, self.direction, scales), 50_000, seed=5)
        assert rep.verdict == "pass"
        assert any("1/(2k) = 0.25" in note for note in rep.notes)

    def test_kernel_distance_is_t_times_direction_norm(self):
        scales = [0.5, 0.25]
        members, limit = perturbation(self.base, self.direction, scales)
        rep = dm_rate(2, members, limit, 2000, seed=1)
        for row, t in zip(rep.rows, scales):
            assert row["t"] == t
            assert row["kernel_dist"] == pytest.approx(t * self.direction.norm(), rel=1e-15)

    # the limit and every member must lie in chaos k; each refusal comes first
    def test_zero_base_rejected(self, monkeypatch):
        monkeypatch.setattr(experiments, "sample", _no_sampling)
        members, limit = perturbation(zero_kernel(2, 2), self.direction, [0.5])
        with pytest.raises(ValueError, match=r"^limit is not in chaos 2: constant 0\.0, "
                                             r"kernel orders \[\]$"):
            dm_rate(2, members, limit, 2000, seed=1)

    def test_cancelling_perturbation_rejected(self, monkeypatch):
        monkeypatch.setattr(experiments, "sample", _no_sampling)
        # a valid first member, so the check must cover the whole family
        members, limit = perturbation(self.base, make_kernel(2, 2, [((1, 1), 1.0)]),
                                      [0.25, -1.0 / math.sqrt(2.0)])
        with pytest.raises(ValueError, match=r"^member -0\.7071\d* is not in chaos 2: "
                                             r"constant 0\.0, kernel orders \[\]$"):
            dm_rate(2, members, limit, 2000, seed=1)

    BASE = single_integral(make_kernel(2, 2, [((1, 1), 1.0 / math.sqrt(2.0))]))

    @pytest.mark.parametrize("limit, member, match", [
        pytest.param(basis_element(2, 1), BASE,
                     r"^limit is not in chaos 2: constant 0\.0, kernel orders \[1\]$",
                     id="limit-order"),
        pytest.param(BASE, linear_combine([(1.0, BASE), (1.0, constant_element(2, 0.5))]),
                     r"^member 0\.5 is not in chaos 2: constant 0\.5, kernel orders \[2\]$",
                     id="constant"),
        pytest.param(BASE, linear_combine([(1.0, BASE), (1.0, basis_element(2, 2))]),
                     r"^member 0\.5 is not in chaos 2: constant 0\.0, "
                     r"kernel orders \[1, 2\]$", id="mixed-orders"),
    ])
    def test_outside_chaos_k_refused_before_sampling(self, monkeypatch, limit, member,
                                                     match):
        monkeypatch.setattr(experiments, "sample", _no_sampling)
        with pytest.raises(ValueError, match=match):
            dm_rate(2, [(0.25, self.BASE), (0.5, member)], limit, 2000, seed=1)


class TestCarberyWright:
    def test_first_chaos_ratio(self):
        rep = carbery_wright_probe(basis_element(1, 1), [1.0], 20_000, seed=5)
        # P(|X| <= 1) / 1 = 0.6827
        assert rep.rows[0]["ratio"] == pytest.approx(0.6827, abs=0.02)
        assert rep.verdict == "pass"

    def test_cubed_gaussian_small_alpha(self):
        rep = carbery_wright_probe(X_CUBED, [1.0, 1e-3], 10 ** 5, seed=5)
        last = rep.rows[-1]
        ratio = last["prob"]["value"] / (1e-3) ** (1.0 / 3.0)
        assert ratio == pytest.approx(math.sqrt(2.0 / math.pi), rel=0.1)

    def test_constant_rejected(self):
        with pytest.raises(ValueError, match="nonconstant"):
            carbery_wright_probe(constant_element(1, 2.0), [1.0], 20_000, seed=1)

    def test_degree_five(self):
        # E[Q^2] of an order-5 element is exact through the isometry
        fel = single_integral(make_kernel(5, 5, [((1, 2, 3, 4, 5), 1.0)]))
        rep = carbery_wright_probe(fel, [1.0], 20_000, seed=5)
        assert rep.notes[0] == f"degree 5, exact E[Q^2] = {variance(fel):.6f}"

    def test_alpha_grid_must_decrease(self):
        with pytest.raises(ValueError, match="decreasing"):
            carbery_wright_probe(basis_element(1, 1), [0.1, 1.0], 20_000, seed=1)


class TestGradientSmallBall:
    def test_first_chaos_gradient_is_constant(self):
        rep = df_small_ball_probe(basis_element(2, 1), [0.5, 0.99], 20_000, seed=5)
        assert all(r["prob"]["value"] == 0.0 for r in rep.rows)
        assert rep.verdict == "vacuous"

    def test_two_dim_second_chaos_matches_chi_square(self):
        fel = single_integral(make_kernel(2, 2, [((1, 2), 1.0)]))
        grad = carre_du_champ(fel, fel)
        assert expectation(grad) == pytest.approx(8.0)
        rep = df_small_ball_probe(fel, [1.0, 0.5], 10 ** 5, seed=5)
        for row in rep.rows:
            lam = row["lambda"]
            predicted = 1.0 - math.exp(-lam * lam / 8.0)  # chi-square(2) tail
            assert row["prob"]["value"] == pytest.approx(predicted, abs=0.01)
        assert rep.verdict == "pass"

    def test_ratio_uses_declared_exponent(self):
        fel = single_integral(make_kernel(2, 2, [((1, 2), 1.0)]))
        rep = df_small_ball_probe(fel, [0.5], 20_000, seed=5)
        row = rep.rows[0]
        scale = 0.5 ** (1.0 / (2 - 1)) / variance(fel) ** (1.0 / (2 * 2 - 2))
        assert row["ratio"] == pytest.approx(row["prob"]["value"] / scale)

    def test_third_order_exponent_is_one_half(self):
        fel = single_integral(make_kernel(3, 3, [((1, 2, 3), 0.5)]))
        rep = df_small_ball_probe(fel, [0.25], 20_000, seed=5)
        row = rep.rows[0]
        scale = 0.25 ** 0.5 / variance(fel) ** (1.0 / 4.0)
        assert row["ratio"] == pytest.approx(row["prob"]["value"] / scale)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            df_small_ball_probe(constant_element(1, 1.0), [0.5], 20_000, seed=1)


def _no_sampling(*args, **kwargs):
    raise AssertionError("sampled before the input was checked")


@pytest.mark.parametrize("call", [
    pytest.param(lambda: distances.small_ball(np.zeros(10_000), math.nan), id="small_ball"),
    pytest.param(lambda: carbery_wright_probe(pair_sum_element(2), [1.0, math.nan],
                                              10_000, seed=1), id="carbery_wright_probe"),
    pytest.param(lambda: df_small_ball_probe(pair_sum_element(2), [math.nan], 10_000, seed=1),
                 id="df_small_ball_probe"),
])
def test_nan_threshold_refused_before_sampling(call, monkeypatch):
    monkeypatch.setattr(experiments, "sample", _no_sampling)
    with pytest.raises(ValueError, match="must be positive"):
        call()


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: fourth_moment_certificate(2, [], 2000, seed=1), "members",
                 id="fourth_moment_certificate"),
    pytest.param(lambda: shigekawa_rate(2, [], basis_element(1, 1), 2000, seed=1), "members",
                 id="shigekawa_rate"),
    pytest.param(lambda: dm_rate(2, [], pair_sum_element(1), 2000, seed=1), "members",
                 id="dm_rate"),
    pytest.param(lambda: carbery_wright_probe(pair_sum_element(2), [], 10_000, seed=1),
                 "alphas", id="carbery_wright_probe"),
    pytest.param(lambda: df_small_ball_probe(pair_sum_element(2), [], 10_000, seed=1),
                 "lambdas", id="df_small_ball_probe"),
    pytest.param(lambda: df_small_ball_probe(pair_sum_element(2), np.array([]), 10_000,
                                             seed=1), "lambdas", id="df_small_ball_probe-array"),
    pytest.param(lambda: peccati_tudor_run([1, 2], [], np.eye(2), 10_000, seed=1), "vectors",
                 id="peccati_tudor_run"),
    pytest.param(lambda: moo_invariance([], 2000, seed=1), "specs", id="moo_invariance"),
    pytest.param(lambda: d12_rate_probe([], basis_element(1, 1), 1.0, 2000, seed=1),
                 "members", id="d12_rate_probe"),
])
def test_empty_family_refused_before_sampling(call, name, monkeypatch):
    monkeypatch.setattr(experiments, "sample", _no_sampling)
    with pytest.raises(ValueError, match=f"^{name} must not be empty$"):
        call()


def test_threshold_grids_may_be_arrays():
    grid = np.array([0.5, 0.1])
    assert len(carbery_wright_probe(pair_sum_element(2), grid, 10_000, seed=1).rows) == 2
    assert len(df_small_ball_probe(pair_sum_element(2), grid, 10_000, seed=1).rows) == 2


class TestPeccatiTudor:
    def test_exact_rows_for_canonical_family(self):
        vectors = [(float(n), pair_sum_vector(n)) for n in (5, 10)]
        rep = peccati_tudor_run([1, 2], vectors, np.eye(2), 20_000, seed=5)
        for row, n in zip(rep.rows, (5, 10)):
            assert row["cov_gap"] <= 1e-12
            assert row["gram_gap"] == pytest.approx(4.0 / n, abs=1e-10)
            assert row["det_mean"] == pytest.approx(2.0, abs=1e-10)
            assert row["det_var"] == pytest.approx(4.0 / n, abs=1e-10)
        assert rep.verdict == "pass"

    def test_cross_covariance_exactly_zero(self):
        vec = pair_sum_vector(6)
        from chaoslab import expectation_of_product
        assert expectation_of_product(vec.components[0], vec.components[1]) == 0.0

    def test_singular_target_rejected(self):
        vectors = [(1.0, pair_sum_vector(2))]
        with pytest.raises(ValueError, match="determinant"):
            peccati_tudor_run([1, 2], vectors, np.array([[1.0, 1.0], [1.0, 1.0]]),
                              20_000, seed=1)

    def test_dimension_other_than_two_rejected(self):
        with pytest.raises(ValueError, match="d = 2"):
            peccati_tudor_run([1, 2, 3], [], np.eye(3), 20_000, seed=1)

    @pytest.mark.parametrize("k_list, bad, match", [
        # (X_1, X_2) lives in chaos 1: with k = (2, 2) it used to report pass
        pytest.param([2, 2], (basis_element(6, 1), basis_element(6, 2)),
                     r"component 0 at 3\.0 is not in chaos 2: constant 0\.0, "
                     r"kernel orders \[1\]", id="first-chaos"),
        pytest.param([1, 2], (basis_element(6, 1),
                              linear_combine([(1.0, pair_sum_element(3)),
                                              (1.0, constant_element(6, 0.5))])),
                     r"component 1 at 3\.0 is not in chaos 2: constant 0\.5, "
                     r"kernel orders \[2\]", id="constant"),
        pytest.param([1, 2], (basis_element(6, 1),
                              linear_combine([(1.0, pair_sum_element(3)),
                                              (1.0, basis_element(6, 2))])),
                     r"component 1 at 3\.0 is not in chaos 2: constant 0\.0, "
                     r"kernel orders \[1, 2\]", id="mixed-orders"),
    ])
    def test_components_outside_their_chaos_refused_up_front(self, monkeypatch, k_list,
                                                             bad, match):
        calls = []
        for name in ("sample", "expectation_of_product", "malliavin_matrix"):
            monkeypatch.setattr(experiments, name,
                                lambda *a, name=name, **k: calls.append(name))
        # a valid first vector, so the check must come before any row is computed
        good = ChaosVector(tuple(pair_sum_element(3) if k == 2 else basis_element(6, 1)
                                 for k in k_list))
        vectors = [(2.0, good), (3.0, ChaosVector(bad))]
        with pytest.raises(ValueError, match=match):
            peccati_tudor_run(k_list, vectors, np.eye(2), 20_000, seed=1)
        assert calls == []


class TestMultilinear:
    def test_influences_of_average(self):
        spec = rademacher_average(25)
        inf = spec.influences()
        assert np.allclose(inf, 1.0 / 25.0, atol=1e-13)
        assert spec.max_influence() == pytest.approx(0.04, abs=1e-13)
        assert spec.degree == 1

    def test_normalization_enforced(self):
        with pytest.raises(ValueError, match="unit square sum"):
            MultilinearSpec({(1,): 1.0, (2,): 1.0})

    def test_subset_validation(self):
        with pytest.raises(ValueError, match="sorted distinct"):
            MultilinearSpec({(2, 1): 1.0})

    def test_discrete_law_moment_conditions(self):
        with pytest.raises(ValueError, match="mean 0"):
            MultilinearSpec({(1,): 1.0}, law="discrete",
                            law_values=(0.0, 2.0), law_probs=(0.5, 0.5))
        spec = MultilinearSpec({(1,): 1.0}, law="discrete",
                               law_values=(-1.0, 1.0), law_probs=(0.5, 0.5))
        values = sample_multilinear(spec, 2000, seed=3)
        assert set(np.unique(values)) <= {-1.0, 1.0}

    @pytest.mark.parametrize("coeffs", [{(1,): math.nan}, {(1,): math.inf},
                                        {(): math.nan, (1,): 1.0}],
                             ids=["nan", "inf", "nan-constant"])
    def test_non_finite_coefficient_refused(self, coeffs):
        with pytest.raises(ValueError, match="must be finite"):
            MultilinearSpec(coeffs)

    @pytest.mark.parametrize("values, probs", [
        ((-1.0, math.nan, 1.0), (0.5, 0.0, 0.5)),
        ((-1.0, math.inf, 1.0), (0.5, 0.0, 0.5)),
        ((-1.0, 1.0), (0.5, math.nan)),
        ((-1.0, 0.0, 1.0), (0.5, math.nan, 0.5)),
    ], ids=["nan-value", "inf-value", "nan-prob", "nan-middle-prob"])
    def test_non_finite_discrete_law_refused(self, values, probs):
        with pytest.raises(ValueError, match="needs matching, finite values and probs"):
            MultilinearSpec({(1,): 1.0}, law="discrete", law_values=values, law_probs=probs)

    def test_chaos_conversion_agrees_pointwise(self, gen):
        spec = MultilinearSpec({(1,): 0.6, (2, 3): 0.8})
        fel = multilinear_to_chaos(spec)
        x = gen.normal(size=(100, 3))
        assert np.allclose(evaluate_batch(fel, x), multilinear_eval(spec, x), atol=1e-12)
        assert variance(fel) == pytest.approx(1.0, abs=1e-12)

    def test_invariance_run_passes(self):
        # gate sized for n = 100; the canonical 0.05 gate belongs to n = 400
        specs = [rademacher_average(n) for n in (25, 100)]
        rep = moo_invariance(specs, 20_000, seed=5, fm_gate=0.08)
        assert rep.verdict == "pass"
        fms = [r["fm"]["value"] for r in rep.rows]
        assert fms[1] <= fms[0]

    def test_single_variable_counterexample_regime(self):
        # max influence 1: the invariance gate must not pass at the
        # two-point law, whose distance to the Gaussian stays large
        specs = [MultilinearSpec({(1,): 1.0})]
        rep = moo_invariance(specs, 20_000, seed=5, fm_gate=0.05)
        assert rep.rows[0]["max_influence"] == 1.0
        assert rep.rows[0]["fm"]["value"] > 0.3
        assert rep.verdict == "fail"


class TestStreamedMultilinear:
    """sample_multilinear draws and evaluates in row blocks; the reference
    draws the whole (N, dim) input in one rng call and evaluates it at once."""

    DIM = 7  # does not divide 2^15
    N = 2 * (_SAMPLE_BLOCK // DIM) + 1234  # three blocks, the last one ragged
    COEFFS = {(1,): 0.6, (2, 7): 0.48, (3, 5, 6): 0.64}
    LAW = (-1.5811388300841898, 0.0, 1.5811388300841898), (0.2, 0.6, 0.2)

    @pytest.mark.parametrize("law", ["gaussian", "rademacher", "discrete"])
    def test_bit_for_bit(self, law):
        values, probs = self.LAW if law == "discrete" else ((), ())
        spec = MultilinearSpec(self.COEFFS, law=law, law_values=values, law_probs=probs)
        count = self.N * self.DIM
        if law == "gaussian":
            x = rng.gaussians(31, 0, count)
        elif law == "rademacher":
            x = rng.rademacher(31, 0, count)
        else:
            x = rng.discrete(31, 0, count, values, probs)
        want = multilinear_eval(spec, x.reshape(self.N, self.DIM))
        for workers in (1, 2):
            got = sample_multilinear(spec, self.N, 31, workers=workers)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestD12Rate:
    def setup_method(self):
        a = 1.0 / math.sqrt(6.0)
        self.limit = single_integral(make_kernel(2, 4, [((1, 1), a), ((2, 2), a),
                                                        ((3, 3), a)]))
        self.direction = single_integral(make_kernel(2, 4, [((1, 2), 0.5)]))

    def test_identical_members_pass_with_zero_rows(self):
        rep = d12_rate_probe([(0.0, self.limit)], self.limit, 2.0, 20_000, seed=5)
        assert rep.verdict == "pass"
        assert rep.rows[0]["d12_norm"] == 0.0
        assert rep.rows[0]["tv"]["value"] == 0.0

    def test_first_chaos_negative_moment_exact(self):
        rep = d12_rate_probe([(0.0, basis_element(1, 1))], basis_element(1, 1),
                             2.0, 20_000, seed=5)
        assert any("estimate 1.000000" in n for n in rep.notes)
        assert any("truncated mass 0.00e+00" in n for n in rep.notes)

    def test_perturbation_family(self):
        members = [(t, linear_combine([(1.0, self.limit), (t, self.direction)]))
                   for t in (0.5, 0.25, 0.125)]
        rep = d12_rate_probe(members, self.limit, 2.0, 50_000, seed=5)
        assert rep.verdict == "pass"
        assert any("alpha/(alpha+2) = 0.5" in n for n in rep.notes)
        # exact D12 norm: t * sqrt(Var + E||D .||^2) of the direction
        d = self.direction
        per_t = math.sqrt(variance(d) + expectation(carre_du_champ(d, d)))
        for row, t in zip(rep.rows, (0.5, 0.25, 0.125)):
            assert row["d12_norm"] == pytest.approx(t * per_t, rel=1e-12)

    def test_alpha_range(self):
        with pytest.raises(ValueError, match="alpha"):
            d12_rate_probe([(0.0, self.limit)], self.limit, 2.5, 20_000, seed=1)

    def test_truncated_mass_flags_the_negative_moment(self):
        # ||D (0.01 H_2(X_1))||^2 = 4e-4 X_1^2 falls below D12_TRUNC for |X_1| < 0.005
        def h2(c):
            return single_integral(make_kernel(2, 1, [((1, 1), c)]))

        members = [(t, h2(0.01 * (1.0 + t))) for t in (0.5, 0.25)]
        rep = d12_rate_probe(members, h2(0.01), 1.0, 5000, seed=1)
        assert "truncated mass 4.20e-03" in rep.notes[1]
        assert rep.notes[2] == ("negative-moment estimate unreliable: "
                                "truncated mass exceeds 1e-4")

    @pytest.mark.parametrize("value", [0.0, 2.0])
    def test_constant_limit_refused_before_sampling(self, monkeypatch, value):
        # E||DF_inf||^-alpha is infinite: the rate has no hypothesis to run on
        monkeypatch.setattr(experiments, "sample", _no_sampling)
        members = [(t, linear_combine([(t, basis_element(1, 1))])) for t in (0.5, 0.25)]
        with pytest.raises(ValueError, match=r"^limit has E\|\|DF_inf\|\|\^2 = 0"):
            d12_rate_probe(members, constant_element(1, value), 1.0, 20_000, seed=1)


class TestIdentitySuite:
    def test_all_identities_hold(self):
        rep = identity_suite(40, seed=5)
        assert rep.verdict == "pass"
        assert {r["identity"] for r in rep.rows} == {
            "product_law", "carre_two_routes", "ibp", "delta_d_duality",
            "poincare", "hypercontractivity", "orthogonality"}
        assert all(r["max_deviation"] <= 1e-8 for r in rep.rows)

    def test_needs_a_trial(self):
        with pytest.raises(ValueError, match="trial"):
            identity_suite(0, seed=1)


class TestVerdictsRecomputable:
    def test_verdicts_are_pure_functions_of_rows(self):
        members = [(float(n), pair_sum_element(n)) for n in (5, 10)]
        rep = shigekawa_rate(2, members, basis_element(1, 1), 20_000, seed=5)
        assert _shigekawa_verdict(rep.rows, 0.05, 0.5, 0.02) == rep.verdict

        specs = [rademacher_average(n) for n in (25, 100)]
        rep2 = moo_invariance(specs, 20_000, seed=5)
        assert _moo_verdict(rep2.rows, 0.05) == rep2.verdict

        vectors = [(float(n), pair_sum_vector(n)) for n in (5, 10)]
        rep3 = peccati_tudor_run([1, 2], vectors, np.eye(2), 20_000, seed=5)
        assert _peccati_tudor_verdict(rep3.rows, 2.0, 0.1) == rep3.verdict

    def test_exact_quantities_are_seed_invariant(self):
        members = [(6.0, pair_sum_element(6))]
        r1 = fourth_moment_certificate(2, members, 2000, seed=1)
        r2 = fourth_moment_certificate(2, members, 2000, seed=999)
        assert r1.rows[0]["fourth_moment"] == r2.rows[0]["fourth_moment"]
        assert r1.rows[0]["variance"] == r2.rows[0]["variance"]
        assert r1.rows[0]["tv"] != r2.rows[0]["tv"]  # estimates move with the seed


class TestFixedGates:
    """Gates are module constants, not parameters: a verdict is recomputed
    from the stored rows and those constants alone."""

    def test_dm_verdict_from_rows_and_constants(self):
        base = make_kernel(2, 2, [((1, 1), 1.0 / math.sqrt(2.0))])
        direction = make_kernel(2, 2, [((1, 2), 0.5)])
        scales = [2.0 ** -j for j in range(1, 5)]
        rep = dm_rate(2, *perturbation(base, direction, scales), 20_000, seed=5)
        verdict, slope = _dm_verdict(rep.rows, 0.25, DM_SLOPE_SLACK, DM_STABILITY_FACTOR)
        assert verdict == rep.verdict
        assert f"log-log slope = {slope:.4f}" in rep.notes

    def test_d12_verdict_from_rows_and_constants(self):
        a = 1.0 / math.sqrt(6.0)
        limit = single_integral(make_kernel(2, 4, [((1, 1), a), ((2, 2), a), ((3, 3), a)]))
        direction = single_integral(make_kernel(2, 4, [((1, 2), 0.5)]))
        members = [(t, linear_combine([(1.0, limit), (t, direction)]))
                   for t in (0.5, 0.25, 0.125)]
        rep = d12_rate_probe(members, limit, 2.0, 20_000, seed=5)
        assert _d12_verdict(rep.rows, D12_STABILITY_FACTOR) == rep.verdict

    def test_settings_are_not_parameters(self):
        removed = {
            experiments.shigekawa_rate: {"tv_threshold", "ratio_slack", "fm_floor"},
            experiments.dm_rate: {"slope_slack", "stability_factor"},
            experiments.carbery_wright_probe: {"gate"},
            experiments.df_small_ball_probe: {"gate"},
            experiments.identity_suite: {"gate"},
            experiments.peccati_tudor_run: {"joint_gate"},
            experiments.d12_rate_probe: {"stability_factor", "trunc"},
            experiments.random_element: {"terms"},
            distances.tv_vs_density: {"grid_points"},
            distances.tv_two_samples: {"bins"},
            distances.tv_multivariate: {"grid_cells"},
        }
        for fn, names in removed.items():
            assert not names & set(inspect.signature(fn).parameters), fn.__name__
        assert "fm_gate" in inspect.signature(experiments.moo_invariance).parameters
        assert not hasattr(experiments.ExperimentReport, "row_values")
        assert not hasattr(ChaosElement, "kernel")


def _est(value):
    return {"value": value}


class TestVerdictBranches:
    """Each return of each verdict function, on synthetic rows."""

    def test_all_rows(self):
        ok, vac = {"passed": True}, {"passed": True, "vacuous": True}
        assert _all_rows_verdict([ok, vac]) == "pass"
        assert _all_rows_verdict([vac, vac]) == "vacuous"
        assert _all_rows_verdict([vac, {"passed": False, "vacuous": True}]) == "fail"

    @pytest.mark.parametrize("fms, tvs, ratios, verdict", [
        ([0.01, 0.01], [0.03, 0.02], [1.0, 1.0], "vacuous"),  # FM at the floor, TV small
        ([0.01, 0.01], [0.03, 0.2], [1.0, 1.0], "fail"),      # FM at the floor, TV large
        ([0.3, 0.2, 0.1], [0.3, 0.2, 0.1], [1.0, 1.0, 5.0], "fail"),  # ratio outlier
        ([0.3, 0.04], [0.3, 0.06], [1.0, 1.0], "fail"),       # FM below threshold, TV not
        ([0.3, 0.04], [0.3, 0.04], [1.0, 1.0], "pass"),
    ])
    def test_shigekawa(self, fms, tvs, ratios, verdict):
        rows = [{"fm": _est(f), "tv": _est(t), "ratio": r}
                for f, t, r in zip(fms, tvs, ratios)]
        assert _shigekawa_verdict(rows, 0.05, 0.5, 0.02) == verdict

    @pytest.mark.parametrize("pts, verdict", [
        ([(1.0, 0.5), (0.0, 0.0), (0.5, 0.0)], "vacuous"),  # one usable point
        ([(1.0, 0.5), (1e-4, 0.5)], "fail"),                # flat: slope 0
        ([(1.0, 0.5), (1e-4, 0.5e-3)], "fail"),             # slope 0.75, constants 100x apart
        ([(1.0, 0.5), (1e-4, 0.5e-1)], "pass"),             # slope 0.25, one constant
        ([(0.5, 0.1), (0.5, 0.2), (0.5, 0.1)], "vacuous"),  # one distance: no slope
    ])
    def test_dm(self, pts, verdict):
        rows = [{"kernel_dist": d, "tv": _est(t)} for d, t in pts]
        got, slope = _dm_verdict(rows, 0.25, DM_SLOPE_SLACK, DM_STABILITY_FACTOR)
        assert got == verdict
        assert math.isnan(slope) == (verdict == "vacuous")

    @pytest.mark.parametrize("field", ["cov_gap", "gram_gap", "det_mean", "det_var",
                                       "joint_tv"])
    def test_peccati_tudor(self, field):
        def row(bad):
            r = {"cov_gap": 0.1, "gram_gap": 0.1, "det_mean": 2.1, "det_var": 0.1,
                 "joint_tv": _est(0.05)}
            if bad:
                r[field] = _est(0.5) if field == "joint_tv" else 0.2
            return r
        assert _peccati_tudor_verdict([row(False), row(False)], 2.0, 0.1) == "pass"
        assert _peccati_tudor_verdict([row(False), row(True)], 2.0, 0.1) == "fail"

    @pytest.mark.parametrize("fms, verdict", [
        ([0.2, 0.3], "fail"),   # FM rises as the influence shrinks
        ([0.3, 0.2], "fail"),   # last FM above the gate
        ([0.3, 0.01], "pass"),
    ])
    def test_moo(self, fms, verdict):
        rows = [{"max_influence": m, "fm": _est(f)} for m, f in zip([0.5, 0.1], fms)]
        assert _moo_verdict(rows, 0.05) == verdict

    @pytest.mark.parametrize("rows, verdict", [
        ([(0.0, 0.0, 0.0)], "pass"),                     # identical members, zero TV
        ([(0.0, 0.0, 0.01)], "fail"),                    # identical members, nonzero TV
        ([(0.0, 0.0, 0.0), (0.5, 1.0, 0.3)], "vacuous"),  # one live member
        ([(0.5, 1.0, 0.3), (0.25, 4.0, 0.2)], "fail"),    # constants 4x apart
        ([(0.5, 1.0, 0.3), (0.25, 2.0, 0.2)], "pass"),
    ])
    def test_d12(self, rows, verdict):
        rows = [{"d12_norm": n, "fitted_c": c, "tv": _est(t)} for n, c, t in rows]
        assert _d12_verdict(rows, D12_STABILITY_FACTOR) == verdict

    # two members at the smallest distance (t and -t) and a constant about
    # 4x theirs at the next one, which the two smallest points alone miss
    def test_dm_stability_takes_two_distinct_distances(self):
        rows = [{"kernel_dist": d, "tv": _est(t)}
                for d, t in [(0.5, 0.1), (0.5, 0.09), (1.0, 0.5)]]
        assert _dm_verdict(rows, 0.25, DM_SLOPE_SLACK, DM_STABILITY_FACTOR)[0] == "fail"
        rows[2]["tv"] = _est(0.2)
        assert _dm_verdict(rows, 0.25, DM_SLOPE_SLACK, DM_STABILITY_FACTOR)[0] == "pass"

    def test_d12_stability_takes_two_distinct_distances(self):
        rows = [{"d12_norm": n, "fitted_c": c, "tv": _est(t)}
                for n, c, t in [(0.5, 1.0, 0.3), (0.5, 1.1, 0.3), (1.0, 4.0, 0.5)]]
        assert _d12_verdict(rows, D12_STABILITY_FACTOR) == "fail"
        rows[2]["fitted_c"] = 2.0
        assert _d12_verdict(rows, D12_STABILITY_FACTOR) == "pass"
        # one distance only: its constants are compared with each other
        assert _d12_verdict(rows[:2], D12_STABILITY_FACTOR) == "pass"
        rows[1]["fitted_c"] = 3.5
        assert _d12_verdict(rows[:2], D12_STABILITY_FACTOR) == "fail"
