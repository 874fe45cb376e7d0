import inspect
import math

import numpy as np
import pytest

from chaoslab import (MultilinearSpec,
                      basis_element, carbery_wright_probe, carre_du_champ,
                      constant_element, d12_rate_probe, df_small_ball_probe,
                      dm_rate, evaluate_batch, expectation, evaluate,
                      fourth_moment_certificate, identity_suite,
                      linear_combine, make_kernel, moment, moo_invariance,
                      multilinear_eval, multilinear_to_chaos,
                      pair_sum_element, pair_sum_kernel, pair_sum_vector,
                      peccati_tudor_run, rademacher_average,
                      sample_multilinear, shigekawa_rate, single_integral,
                      variance)
from chaoslab import ChaosElement, distances, experiments, rng
from chaoslab.chaos import _SAMPLE_BLOCK
from chaoslab.experiments import (D12_STABILITY_FACTOR, DM_SLOPE_SLACK,
                                  DM_STABILITY_FACTOR, _d12_verdict, _dm_verdict,
                                  _moo_verdict, _peccati_tudor_verdict,
                                  _shigekawa_verdict)

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


class TestDmRate:
    def setup_method(self):
        self.base = make_kernel(2, 2, [((1, 1), 1.0 / math.sqrt(2.0))])
        self.direction = make_kernel(2, 2, [((1, 2), 0.5)])

    def test_zero_scale_gives_exactly_zero_distance(self):
        rep = dm_rate(2, self.base, [(0.0, self.direction)], 5000, seed=5)
        assert rep.rows[0]["kernel_dist"] == 0.0
        assert rep.rows[0]["tv"]["value"] == 0.0

    def test_rate_experiment_passes(self):
        perts = [(2.0 ** -j, self.direction) for j in range(1, 7)]
        rep = dm_rate(2, self.base, perts, 50_000, seed=5)
        assert rep.verdict == "pass"
        assert any("1/(2k) = 0.25" in note for note in rep.notes)

    def test_zero_base_rejected(self):
        from chaoslab import zero_kernel
        with pytest.raises(ValueError, match="nonzero"):
            dm_rate(2, zero_kernel(2, 2), [(0.5, self.direction)], 2000, seed=1)

    def test_cancelling_perturbation_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            dm_rate(2, self.base,
                    [(-1.0 / math.sqrt(2.0), make_kernel(2, 2, [((1, 1), 1.0)]))],
                    2000, seed=1)


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
    raise AssertionError("sampled before the thresholds were checked")


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
        batch = sample_multilinear(spec, 2000, seed=3)
        assert set(np.unique(batch.values)) <= {-1.0, 1.0}

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

    DIM = 7  # does not divide 2^16
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
            got = sample_multilinear(spec, self.N, 31, workers=workers).values
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
        perts = [(2.0 ** -j, direction) for j in range(1, 5)]
        rep = dm_rate(2, base, perts, 20_000, seed=5)
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
