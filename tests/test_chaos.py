import math
import tracemalloc

import numpy as np
import pytest

from chaoslab import (ChaosElement, ChaosVector, OrderCapError, basis_element,
                      carre_du_champ, check_ibp, constant_element, covariance,
                      det_chaos, evaluate, evaluate_batch, expectation,
                      expectation_of_product, linear_combine, make_kernel,
                      malliavin_matrix, mderiv, moment, multiply, ou_generator,
                      project, sample, single_integral, variance)
from chaoslab import chaos, rng
from chaoslab.chaos import _SAMPLE_BLOCK, _SAMPLE_CHUNK, _product_weight, gaussian_matrix
from chaoslab.experiments import (MultilinearSpec, pair_sum_element,
                                  rademacher_average, sample_multilinear)
from chaoslab.kernels import ORDER_CAP
from helpers import random_element

H2 = single_integral(make_kernel(2, 3, [((1, 1), 1.0)]))  # H_2(X_1)
E1 = basis_element(3, 1)
E2 = basis_element(3, 2)
CROSS = single_integral(make_kernel(2, 3, [((1, 2), 1.0)]))  # 2 X_1 X_2


from hypothesis import given, settings
from hypothesis import strategies as st


class TestLinearCombine:
    @given(st.floats(-4, 4, allow_nan=False), st.floats(-4, 4, allow_nan=False),
           st.floats(-2, 2, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_evaluation_is_linear(self, a, b, x):
        combo = linear_combine([(a, E1), (b, H2)])
        point = [x, 0.0, 0.0]
        expect = a * evaluate(E1, point) + b * evaluate(H2, point)
        assert evaluate(combo, point) == pytest.approx(expect, abs=1e-9)

    def test_cancellation_gives_zero_element(self):
        out = linear_combine([(1.0, E1), (-1.0, E1)])
        assert out.constant == 0.0 and out.kernels == {}

    def test_scaling(self):
        out = linear_combine([(2.0, E1)])
        assert out.kernels[1].entries == {(1,): 2.0}

    def test_mixed_slots(self):
        out = linear_combine([(1.0, E1), (1.0, H2)])
        assert set(out.kernels) == {1, 2}

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            linear_combine([(1.0, E1), (1.0, basis_element(4, 1))])


def _entries_hex(fel):
    """Constant and every kernel entry, in dict order, as float.hex strings."""
    return [fel.constant.hex()] + [(k, idx, c.hex()) for k, ker in fel.kernels.items()
                                   for idx, c in ker.entries.items()]


class TestFiniteResults:
    """Exact results refuse a coefficient that overflows instead of storing it."""

    def test_product_that_overflows(self):
        big1 = single_integral(make_kernel(1, 2, [((1,), 1e200)]))
        big2 = single_integral(make_kernel(1, 2, [((2,), 1e200)]))
        with pytest.raises(ValueError,
                           match=r"^order-2 coefficient at index \(1, 2\) is not finite: inf$"):
            multiply(big1, big2)

    def test_combination_that_overflows(self):
        big = single_integral(make_kernel(1, 2, [((2,), 1.7e308)]))
        with pytest.raises(ValueError,
                           match=r"^order-1 coefficient at index \(2,\) is not finite: inf$"):
            linear_combine([(1.0, big), (1.0, big)])

    def test_variance_that_overflows(self):
        fel = single_integral(make_kernel(1, 2, [((1,), 1e200), ((2,), 1.0)]))
        with pytest.raises(ValueError, match=r"^covariance is not finite: inf$"):
            variance(fel)

    def test_product_of_constants_that_overflows(self):
        big = constant_element(2, 1e200)
        with pytest.raises(ValueError, match=r"^E\[FG\] is not finite: inf$"):
            expectation_of_product(big, big)

    @pytest.mark.parametrize("fel, m", [
        (single_integral(make_kernel(1, 2, [((1,), 1e200), ((2,), 1.0)])), 4),
        (single_integral(make_kernel(2, 2, [((1, 1), 1e110)])), 3),
        (single_integral(make_kernel(2, 2, [((1, 2), 1e80)])), 4)])
    def test_single_chaos_moment_that_overflows(self, fel, m):
        with pytest.raises(ValueError, match=rf"^moment {m} is not finite: inf$"):
            moment(fel, m)


class TestProject:
    def test_constant_slot(self):
        fel = linear_combine([(1.0, constant_element(3, 2.5)), (1.0, H2)])
        assert project(fel, 0).constant == 2.5
        assert project(fel, 0).kernels == {}

    def test_populated_slot(self):
        fel = linear_combine([(1.0, constant_element(3, 2.5)), (1.0, H2)])
        out = project(fel, 2)
        assert out.constant == 0.0 and out.kernels[2].entries == {(1, 1): 1.0}

    def test_empty_slot(self):
        out = project(H2, 5)
        assert out.constant == 0.0 and out.kernels == {}


class TestMultiply:
    def test_square_of_first_chaos(self):
        out = multiply(E1, E1)
        assert out.constant == pytest.approx(1.0)
        assert out.kernels[2].entries == {(1, 1): pytest.approx(1.0)}

    def test_cross_term(self):
        out = multiply(E1, E2)
        assert out.constant == 0.0
        assert out.kernels[2].entries == {(1, 2): pytest.approx(0.5)}
        assert evaluate(out, [2.0, 3.0, 0.0]) == pytest.approx(6.0)

    def test_hermite_linearization(self):
        # H_2^2 = H_4 + 4 H_2 + 2
        out = multiply(H2, H2)
        assert out.constant == pytest.approx(2.0)
        assert out.kernels[2].entries == {(1, 1): pytest.approx(4.0)}
        assert out.kernels[4].entries == {(1, 1, 1, 1): pytest.approx(1.0)}

    def test_constants_pass_through(self):
        out = multiply(constant_element(3, 2.0), H2)
        assert out.kernels[2].entries == {(1, 1): pytest.approx(2.0)}

    def test_order_cap(self):
        q = single_integral(make_kernel(5, 5, [((1, 2, 3, 4, 5), 1.0)]))
        with pytest.raises(OrderCapError):
            multiply(q, q)

    def test_pointwise_product_law(self, gen):
        for _ in range(25):
            dim = int(gen.integers(2, 6))
            f = random_element(gen, dim, 3)
            g = random_element(gen, dim, 3)
            prod = multiply(f, g)
            pts = gen.normal(size=(20, dim))
            lhs = evaluate_batch(prod, pts)
            rhs = evaluate_batch(f, pts) * evaluate_batch(g, pts)
            assert np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))) <= 1e-8


class TestMomentsAndCovariance:
    def test_orthogonal_chaoses(self):
        assert covariance(E1, H2) == 0.0

    def test_variance_of_second_chaos(self):
        assert covariance(H2, H2) == pytest.approx(2.0)

    def test_cross_kernel_variance(self):
        # E[(2 X1 X2)^2] = 4
        assert covariance(CROSS, CROSS) == pytest.approx(4.0)

    def test_gaussian_fourth_moment(self):
        assert moment(E1, 4) == pytest.approx(3.0)

    def test_centered_chi_square_moments(self):
        assert [moment(H2, m) for m in (1, 2, 3, 4)] == \
            pytest.approx([0.0, 2.0, 8.0, 60.0])

    def test_moment_two_matches_variance(self, gen):
        for _ in range(100):
            fel = random_element(gen, 4, 2)
            assert moment(fel, 2) - expectation(fel) ** 2 == \
                pytest.approx(variance(fel), abs=1e-10)

    def test_odd_moment_exact(self):
        # E[(X+1)^3] = E[X^3 + 3X^2 + 3X + 1] = 4
        fel = linear_combine([(1.0, basis_element(1, 1)), (1.0, constant_element(1, 1.0))])
        assert moment(fel, 3) == pytest.approx(4.0)

    def test_moment_cap(self):
        with pytest.raises(OrderCapError):
            moment(H2, 5)

    @pytest.mark.parametrize("q", [5, 8])
    def test_moment_two_beyond_half_the_cap(self, q):
        # E[F^2] comes through the isometry, so no product of order 2q is built
        f = linear_combine([(1.0, single_integral(make_kernel(q, q, [(tuple(range(1, q + 1)),
                                                                       1.0)]))),
                            (0.5, constant_element(q, 1.0))])
        assert moment(f, 2) == variance(f) + expectation(f) ** 2
        assert moment(f, 1) == 0.5
        with pytest.raises(OrderCapError):
            moment(f, 3)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            covariance(E1, basis_element(5, 1))


class TestEvaluate:
    def test_hermite_form(self):
        x = [1.5, 0.0, 0.0]
        assert evaluate(H2, x) == pytest.approx(1.5 ** 2 - 1.0)

    def test_perm_count_weighting(self):
        assert evaluate(CROSS, [2.0, 3.0, 0.0]) == pytest.approx(12.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            evaluate(H2, [1.0, 2.0])


class TestMalliavinDerivative:
    def test_first_chaos_derivative_is_constant(self):
        out = mderiv(E1, 1)
        assert out.constant == 1.0 and out.kernels == {}
        assert mderiv(E1, 2).constant == 0.0

    def test_second_chaos(self):
        out = mderiv(H2, 1)
        assert out.kernels[1].entries == {(1,): pytest.approx(2.0)}

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label"):
            mderiv(H2, 4)

    def test_finite_difference_oracle(self, gen):
        eps = 1e-5
        for _ in range(50):
            dim = int(gen.integers(2, 6))
            fel = random_element(gen, dim, 3)
            i = int(gen.integers(1, dim + 1))
            x = gen.normal(size=dim)
            up, down = x.copy(), x.copy()
            up[i - 1] += eps
            down[i - 1] -= eps
            fd = (evaluate(fel, up) - evaluate(fel, down)) / (2 * eps)
            exact = evaluate(mderiv(fel, i), x)
            assert abs(fd - exact) <= 1e-6 * (1.0 + abs(exact))


class TestCarreDuChamp:
    def test_first_chaos_unit(self):
        assert carre_du_champ(E1, E1).constant == pytest.approx(1.0)

    def test_second_chaos_closed_form(self):
        # ||D H_2(X_1)||^2 = 4 X_1^2 = 4 + 4 H_2(X_1)
        out = carre_du_champ(H2, H2)
        assert out.constant == pytest.approx(4.0)
        assert out.kernels[2].entries == {(1, 1): pytest.approx(4.0)}

    def test_coordinate_sum_route(self, gen):
        for _ in range(30):
            dim = int(gen.integers(2, 6))
            f = random_element(gen, dim, 3)
            g = random_element(gen, dim, 3)
            direct = carre_du_champ(f, g)
            coord = linear_combine([(1.0, multiply(mderiv(f, i), mderiv(g, i)))
                                    for i in range(1, dim + 1)])
            diff = linear_combine([(1.0, direct), (-1.0, coord)])
            worst = abs(diff.constant)
            for ker in diff.kernels.values():
                worst = max(worst, max(abs(c) for c in ker.entries.values()))
            assert worst <= 1e-10

    def test_order_closure(self, gen):
        # orders of <DF, DG> stay within max_order(F) + max_order(G) - 2
        for _ in range(30):
            f = random_element(gen, 4, 3)
            g = random_element(gen, 4, 3)
            out = carre_du_champ(f, g)
            if f.kernels and g.kernels:
                assert out.max_order <= f.max_order + g.max_order - 2
            assert variance(out) < math.inf

    def test_order_cap(self):
        # <D I_8(f), D I_8(f)> would reach order 14, past ORDER_CAP
        f = single_integral(make_kernel(8, 2, [((1, 1, 1, 1, 2, 2, 2, 2), 1.0)]))
        with pytest.raises(OrderCapError, match="order 14"):
            carre_du_champ(f, f)

    def test_order_cap_boundary(self):
        q = single_integral(make_kernel(5, 5, [((1, 2, 3, 4, 5), 1.0)]))
        assert carre_du_champ(q, q).max_order == 8

    def test_weight_is_r_times_product_weight(self):
        # the closed form k l (r-1)! C(k-1,r-1) C(l-1,r-1), as exact integers
        for k in range(1, ORDER_CAP + 1):
            for l in range(1, ORDER_CAP + 1):
                for r in range(1, min(k, l) + 1):
                    closed = (k * l * math.factorial(r - 1) * math.comb(k - 1, r - 1)
                              * math.comb(l - 1, r - 1))
                    assert closed == r * _product_weight(k, l, r)


class TestGeneratorAndIbp:
    def test_generator_kills_constants(self):
        out = ou_generator(constant_element(3, 5.0))
        assert out.constant == 0.0 and out.kernels == {}

    def test_generator_eigenvalue(self):
        out = ou_generator(H2)
        assert out.kernels[2].entries == {(1, 1): pytest.approx(-2.0)}

    def test_generator_quadratic_form(self, gen):
        # E[I_k(f) L I_k(f)] = -k k! ||f||^2
        for k in (1, 2, 3):
            fel = random_element(gen, 4, k, with_constant=False)
            ker = fel.kernels.get(k)
            if ker is None:
                continue
            single = single_integral(ker)
            got = expectation_of_product(single, ou_generator(single))
            assert got == pytest.approx(-k * math.factorial(k) * ker.norm_sq(), rel=1e-10)

    def test_ibp_trivial(self):
        one = constant_element(3, 1.0)
        lhs, rhs = check_ibp(H2, one, one)
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)

    def test_ibp_first_chaos(self):
        one = constant_element(3, 1.0)
        lhs, rhs = check_ibp(E1, E1, one)
        assert lhs == pytest.approx(1.0) and rhs == pytest.approx(1.0)

    def test_ibp_random(self, gen):
        for _ in range(30):
            dim = int(gen.integers(2, 6))
            f = random_element(gen, dim, 2)
            g = random_element(gen, dim, 2)
            h = random_element(gen, dim, 2)
            lhs, rhs = check_ibp(f, g, h)
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))


class TestMalliavinMatrix:
    def test_orthonormal_first_chaos(self):
        vec = ChaosVector((basis_element(2, 1), basis_element(2, 2)))
        mat = malliavin_matrix(vec)
        assert mat[0][0].constant == 1.0 and mat[1][1].constant == 1.0
        assert mat[0][1].constant == 0.0 and mat[0][1].kernels == {}

    def test_repeated_component(self):
        vec = ChaosVector((basis_element(2, 1), basis_element(2, 1)))
        mat = malliavin_matrix(vec)
        for row in mat:
            for el in row:
                assert el.constant == 1.0 and el.kernels == {}

    def test_diagonal_energy_identity(self, gen):
        # E<DF, DF> = sum_k k k! ||f_k||^2
        for _ in range(20):
            fel = random_element(gen, 4, 3)
            expect = sum(k * math.factorial(k) * ker.norm_sq()
                         for k, ker in fel.kernels.items())
            got = expectation(carre_du_champ(fel, fel))
            assert got == pytest.approx(expect, abs=1e-10)


class TestDetChaos:
    def test_constant_matrix(self):
        c = lambda v: constant_element(2, v)
        mat = [[c(2.0), c(1.0)], [c(1.0), c(3.0)]]
        assert expectation(det_chaos(mat)) == pytest.approx(5.0)

    def test_diagonal_is_product(self):
        zero = constant_element(3, 0.0)
        mat = [[H2, zero], [zero, E1]]
        out = det_chaos(mat)
        ref = multiply(H2, E1)
        assert expectation(out) == pytest.approx(expectation(ref))
        assert covariance(out, out) == pytest.approx(covariance(ref, ref))

    def test_three_by_three_constants_match_numpy(self, gen):
        a = gen.normal(size=(3, 3))
        mat = [[constant_element(2, float(a[i, j])) for j in range(3)] for i in range(3)]
        assert expectation(det_chaos(mat)) == pytest.approx(float(np.linalg.det(a)))

    def test_independence_example(self):
        vec = ChaosVector((basis_element(3, 1),
                           single_integral(make_kernel(2, 3, [((2, 2), 1.0)]))))
        out = det_chaos(malliavin_matrix(vec))
        assert expectation(out) == pytest.approx(4.0)

    def test_two_by_two_is_the_two_product_formula_bit_for_bit(self, gen):
        for _ in range(100):
            dim = int(gen.integers(1, 5))
            a, b, c, d = (random_element(gen, dim, 2) for _ in range(4))
            for mat in ([[a, b], [c, d]], malliavin_matrix(ChaosVector((a, b)))):
                ref = linear_combine([(1.0, multiply(mat[0][0], mat[1][1])),
                                      (-1.0, multiply(mat[0][1], mat[1][0]))])
                assert _entries_hex(det_chaos(mat)) == _entries_hex(ref)

    def test_three_by_three_matches_leibniz_sum(self, gen):
        perms = [(1.0, (0, 1, 2)), (1.0, (1, 2, 0)), (1.0, (2, 0, 1)),
                 (-1.0, (0, 2, 1)), (-1.0, (2, 1, 0)), (-1.0, (1, 0, 2))]
        for _ in range(40):
            dim = int(gen.integers(1, 4))
            mat = [[random_element(gen, dim, 2) for _ in range(3)] for _ in range(3)]
            terms = [(sign, multiply(multiply(mat[0][i], mat[1][j]), mat[2][k]))
                     for sign, (i, j, k) in perms]
            diff = linear_combine([(1.0, det_chaos(mat)), (-1.0, linear_combine(terms))])
            scale = max([abs(t.constant) for _, t in terms]
                        + [abs(c) for _, t in terms for ker in t.kernels.values()
                           for c in ker.entries.values()])
            worst = max([abs(diff.constant)] + [abs(c) for ker in diff.kernels.values()
                                                for c in ker.entries.values()])
            assert worst <= 1e-12 * scale

    def test_size_limits(self):
        c = constant_element(1, 1.0)
        with pytest.raises(ValueError, match="square"):
            det_chaos([[c, c]])
        with pytest.raises(ValueError, match="d <= 3"):
            det_chaos([[c] * 4 for _ in range(4)])

    def test_empty_matrix_is_named(self):
        with pytest.raises(ValueError, match="empty matrix"):
            det_chaos([])


class TestSampling:
    def test_constant_batch(self):
        assert np.all(sample(constant_element(2, 5.0), 100, seed=1) == 5.0)

    def test_law_of_large_numbers(self):
        batch = sample(basis_element(2, 1), 10 ** 5, seed=2)
        assert abs(batch.mean()) <= 4.0 / math.sqrt(10 ** 5)

    def test_sample_variance_matches_exact(self):
        cross = single_integral(make_kernel(2, 2, [((1, 2), 1.0)]))
        n = 10 ** 5
        batch = sample(cross, n, seed=3)
        # exact Var = 4, exact Var of the squared values from the engine
        m2, m4 = moment(cross, 2), moment(cross, 4)
        se = math.sqrt((m4 - m2 ** 2) / n)
        assert abs(batch.var() - 4.0) <= 4.0 * se

    def test_determinism_and_partition_invariance(self):
        fel = H2
        a = sample(fel, 5000, seed=9)
        b = sample(fel, 5000, seed=9)
        c = sample(fel, 5000, seed=9, workers=3)
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)

    def test_more_workers_than_rows(self):
        want = sample(H2, 3, seed=9)
        assert _same_bits(sample(H2, 3, seed=9, workers=4), want)

    def test_vector_sampling(self):
        vec = ChaosVector((basis_element(2, 1), basis_element(2, 2)))
        assert sample(vec, 2000, seed=4).shape == (2000, 2)

    def test_prefix_consistency(self):
        # extending a batch keeps the existing draws
        a = sample(H2, 1000, seed=11)
        b = sample(H2, 3000, seed=11)
        assert np.array_equal(a, b[:1000])

    def test_moments_against_exact_engine(self, gen):
        # MC moments 1..4 within four standard errors of the engine; the SE
        # uses the exact E[F^{2m}] where that stays under the order cap and
        # the sampled power's own spread otherwise
        n = 200_000
        cases = [random_element(gen, 3, 1) for _ in range(2)] \
            + [random_element(gen, 3, 2) for _ in range(2)] \
            + [random_element(gen, 3, 4, terms=2)]
        for fel in cases:
            p = max(fel.max_order, 1)
            vals = sample(fel, n, seed=int(gen.integers(1 << 30)))
            for m in range(1, 5):
                if m * p > 8:
                    continue
                exact = moment(fel, m)
                if 2 * m * p <= 8:
                    se = math.sqrt(max(moment(fel, 2 * m) - exact ** 2, 0.0) / n)
                else:
                    se = float(np.std(vals ** m)) / math.sqrt(n)
                got = float(np.mean(vals ** m))
                assert abs(got - exact) <= 4.0 * se + 1e-12


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestStreamedSampling:
    """sample() draws and evaluates in row blocks; the reference draws the
    whole (N, dim) input in one rng call and evaluates it at once."""

    DIM = 7  # does not divide 2^15, so blocks and Gaussian chunks straddle rows
    N = 2 * (_SAMPLE_BLOCK // DIM) + 1234  # three blocks, the last one ragged

    @staticmethod
    def _reference_input(dim: int, n: int, seed: int) -> np.ndarray:
        return rng.gaussians(seed, 0, n * dim).reshape(n, dim)

    @staticmethod
    def _block_rows(monkeypatch) -> list[int]:
        """The row count of every block drawn from now on, through a spy
        on gaussian_matrix."""
        rows, real = [], chaos.gaussian_matrix

        def spy(dim, n_samples, *args, **kwargs):
            rows.append(n_samples)
            return real(dim, n_samples, *args, **kwargs)

        monkeypatch.setattr(chaos, "gaussian_matrix", spy)
        return rows

    def test_element_bit_for_bit(self, gen):
        fel = random_element(gen, self.DIM, 3, terms=4)
        x = self._reference_input(self.DIM, self.N, 21)
        want = evaluate_batch(fel, x)
        for workers in (1, 2):
            assert _same_bits(sample(fel, self.N, 21, workers=workers), want)

    def test_vector_bit_for_bit(self, gen):
        vec = ChaosVector(tuple(random_element(gen, self.DIM, 2) for _ in range(3)))
        x = self._reference_input(self.DIM, self.N, 22)
        want = np.column_stack([evaluate_batch(c, x) for c in vec.components])
        for workers in (1, 2):
            assert _same_bits(sample(vec, self.N, 22, workers=workers), want)

    def test_draw_bit_for_bit(self):
        # repeated labels take the Hermite path of evaluate_batch
        fel = linear_combine([
            (1.0, constant_element(self.DIM, 0.5)),
            (1.0, single_integral(make_kernel(3, self.DIM, [((1, 1, 3), 0.7), ((2, 5, 7), 0.2)]))),
            (1.0, single_integral(make_kernel(2, self.DIM, [((4, 4), -1.1), ((1, 6), 0.3)])))])
        vec = ChaosVector((fel, basis_element(self.DIM, 1), project(fel, 3)))
        x = rng.rademacher(25, 0, self.N * self.DIM).reshape(self.N, self.DIM)
        want = np.column_stack([evaluate_batch(c, x) for c in vec.components])
        for workers in (1, 2):
            got = sample(fel, self.N, 25, workers=workers, draw=rng.rademacher)
            assert _same_bits(got, want[:, 0])
            got = sample(vec, self.N, 25, workers=workers, draw=rng.rademacher)
            assert _same_bits(got, want)

    @pytest.mark.parametrize("start", [0, 1, 9363, 20_000])
    def test_gaussian_matrix_start_is_a_row_offset(self, start):
        full = gaussian_matrix(self.DIM, 30_000, 23)
        assert _same_bits(full, self._reference_input(self.DIM, 30_000, 23))
        part = gaussian_matrix(self.DIM, 30_000 - start, 23, start=start)
        assert _same_bits(part, full[start:])

    def test_blocks_hold_a_piece_whatever_the_workers(self, monkeypatch):
        # a serial stand-in for the pool, so no worker count starts a thread
        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(chaos, "ThreadPoolExecutor", SerialPool)
        rows = self._block_rows(monkeypatch)
        fel = single_integral(make_kernel(2, self.DIM, [((1, 7), 1.0)]))
        want = sample(fel, 30_000, 24)
        assert rows == [30_000] and pools == []
        rows.clear()
        assert _same_bits(sample(fel, 30_000, 24, workers=10 ** 6), want)
        assert pools == [10 ** 6]
        assert len(rows) == -(-30_000 * self.DIM // _SAMPLE_CHUNK)
        assert min(rows[:-1]) == _SAMPLE_CHUNK // self.DIM

    def test_peak_memory_bounded_by_a_block(self):
        fel = pair_sum_element(100)  # dim 200: the whole input would be 80 MB
        tracemalloc.start()
        try:
            sample(fel, 50_000, 24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2 ** 20

    def test_peak_memory_under_two_blocks_and_the_output(self):
        # one block, one piece's generator temporaries and the output
        fel = pair_sum_element(100)
        tracemalloc.start()
        try:
            sample(fel, 50_000, 24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * _SAMPLE_BLOCK * 8 + 50_000 * 8

    def test_workers_take_blocks_of_a_wide_vector(self, gen, monkeypatch):
        dim, n = 201, 5000
        vec = ChaosVector((basis_element(dim, dim), random_element(gen, dim, 2, terms=6),
                           single_integral(make_kernel(2, dim, [((1, dim), 1.0), ((7, 7), 0.5)]))))
        rows = self._block_rows(monkeypatch)
        want = sample(vec, n, 26)
        rows.clear()
        got = sample(vec, n, 26, workers=3)
        assert len(rows) > 1 and sum(rows) == n
        assert max(rows) == _SAMPLE_BLOCK // dim
        assert _same_bits(got, want)
        x = self._reference_input(dim, n, 26)
        assert _same_bits(want, np.column_stack([evaluate_batch(c, x) for c in vec.components]))

    @pytest.mark.parametrize("law", ["rademacher", "discrete"])
    def test_multilinear_peak_memory_bounded_by_a_block(self, law):
        # dim 400: one 2^18-coordinate block is 2 MB, and its draws come in
        # cache-sized pieces, not as one call with 2 MB integer temporaries
        spec = MultilinearSpec(rademacher_average(400).coeffs, law=law,
                               law_values=(-1.0, 1.0), law_probs=(0.5, 0.5))
        tracemalloc.start()
        try:
            sample_multilinear(spec, 50_000, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


class TestInequalities:
    def test_poincare(self, gen):
        for _ in range(40):
            fel = random_element(gen, 5, 3)
            assert variance(fel) <= expectation(carre_du_champ(fel, fel)) + 1e-10

    def test_hypercontractivity_fourth_moment(self, gen):
        for _ in range(40):
            k = int(gen.integers(1, 3))
            fel = random_element(gen, 5, k, with_constant=False)
            ker = fel.kernels.get(k)
            if ker is None:
                continue
            single = single_integral(ker)
            assert moment(single, 4) <= 3.0 ** (2 * k) * moment(single, 2) ** 2 + 1e-9


class TestValidation:
    def test_zero_variance_is_legal(self):
        fel = constant_element(3, 1.5)
        assert variance(fel) == 0.0
        assert moment(fel, 3) == pytest.approx(1.5 ** 3)

    def test_kernel_slot_validation(self):
        ker = make_kernel(2, 3, [((1, 2), 1.0)])
        with pytest.raises(ValueError, match="order"):
            ChaosElement(3, 0.0, {3: ker})
        with pytest.raises(ValueError, match="dim"):
            ChaosElement(4, 0.0, {2: ker})

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_non_finite_constant_rejected(self, c):
        with pytest.raises(ValueError, match="constant must be finite"):
            ChaosElement(3, c, {})
        with pytest.raises(ValueError, match="constant must be finite"):
            constant_element(3, c)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_sample_refuses_workers_below_one(self, monkeypatch, workers):
        def forbidden(*args, **kwargs):
            raise AssertionError("drew before the workers check")

        monkeypatch.setattr(chaos, "gaussian_matrix", forbidden)
        with pytest.raises(ValueError, match=f"need workers >= 1, got {workers}"):
            sample(H2, 1000, 1, workers=workers)

    def test_vector_validation(self):
        with pytest.raises(ValueError, match="dim"):
            ChaosVector((basis_element(2, 1), basis_element(3, 1)))
        with pytest.raises(ValueError, match="component"):
            ChaosVector(())
