"""Third and fourth moments of a single chaos I_q(f) from contraction norms.

The product route (building F^2 with multiply) is the oracle where it
fits under the order cap; Gauss-Hermite quadrature is the oracle beyond
it, and numpy traces are the oracle for q = 2.
"""

import math

import numpy as np
import pytest

from chaoslab import (ChaosElement, OrderCapError, SequenceSpec, basis_element,
                      chaos, constant_element, evaluate_batch, expectation_of_product,
                      fourth_moment_certificate, linear_combine, make_kernel,
                      moment, multiply, pair_sum_element, shigekawa_rate,
                      single_integral, variance)
from helpers import nonzero_kernel

TOL = 1e-10


def _close(got: float, want: float, scale: float) -> bool:
    """Relative agreement; scale (sigma^m) stands in for |want| when the
    moment cancels to near zero."""
    return abs(got - want) <= TOL * max(abs(want), scale)


def _product_moments(fel: ChaosElement) -> tuple[float, float]:
    """E[F^3] and E[F^4] through the explicit square F^2."""
    square = multiply(fel, fel)
    return expectation_of_product(square, fel), expectation_of_product(square, square)


def _permuted_pair_sum(gen: np.random.Generator, n: int) -> ChaosElement:
    """n^(-1/2) sum_i s_i X_a X_b over disjoint random label pairs (a, b)."""
    labels = gen.permutation(2 * n) + 1
    signs = gen.choice([-1.0, 1.0], size=n)
    c = 0.5 / math.sqrt(n)
    raw = [((int(labels[2 * i]), int(labels[2 * i + 1])), float(s * c))
           for i, s in enumerate(signs)]
    return single_integral(make_kernel(2, 2 * n, raw))


def _quadrature_moment(fel: ChaosElement, m: int, points: int = 13) -> float:
    """E[F^m] for dim 2 on a tensor Gauss-Hermite grid, exact for degree
    <= 2 points - 1."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(points)
    grid = np.array([(a, b) for a in nodes for b in nodes])
    w = np.outer(weights, weights).ravel() / (2.0 * math.pi)
    return float(w @ evaluate_batch(fel, grid) ** m)


class TestAgainstProductRoute:
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_random_kernels(self, gen, q):
        for _ in range(15):
            dim = int(gen.integers(2, 6))
            fel = single_integral(nonzero_kernel(gen, q, dim, terms=5))
            sigma = math.sqrt(variance(fel))
            want3, want4 = _product_moments(fel)
            assert _close(moment(fel, 3), want3, sigma ** 3)
            assert _close(moment(fel, 4), want4, sigma ** 4)

    @pytest.mark.parametrize("n", [10, 100, 400])
    def test_relabeled_pair_sums(self, gen, n):
        fel = _permuted_pair_sum(gen, n)
        want3, want4 = _product_moments(fel)
        assert _close(moment(fel, 3), want3, 1.0)
        assert _close(moment(fel, 4), want4, 1.0)
        assert moment(fel, 4) == pytest.approx(3.0 + 6.0 / n, abs=TOL)

    def test_quadratic_form_traces(self, gen):
        # I_2(A) with A symmetric: sigma^2 = 2 tr(A^2), E[F^3] = 8 tr(A^3),
        # E[F^4] = 3 sigma^4 + 48 tr(A^4)
        dim = 6
        a = gen.uniform(-1.0, 1.0, size=(dim, dim))
        a = (a + a.T) / 2.0
        fel = single_integral(make_kernel(
            2, dim, [((i + 1, j + 1), a[i, j]) for i in range(dim) for j in range(i, dim)]))
        a2 = a @ a
        sigma2 = 2.0 * np.trace(a2)
        assert _close(moment(fel, 3), 8.0 * np.trace(a2 @ a), sigma2 ** 1.5)
        assert _close(moment(fel, 4), 3.0 * sigma2 ** 2 + 48.0 * np.trace(a2 @ a2), 0.0)

    def test_centered_chi_square_is_exact(self):
        h2 = single_integral(make_kernel(2, 1, [((1, 1), 1.0)]))
        assert moment(h2, 3) == 8.0
        assert moment(h2, 4) == 60.0


class TestBeyondTheProductCap:
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_fourth_moment_against_quadrature(self, gen, q):
        for _ in range(3):
            fel = single_integral(nonzero_kernel(gen, q, 2, terms=4))
            want = _quadrature_moment(fel, 4)
            assert _close(moment(fel, 4), want, 0.0)

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_third_moment_against_quadrature(self, gen, q):
        for _ in range(3):
            fel = single_integral(nonzero_kernel(gen, q, 2, terms=4))
            want = _quadrature_moment(fel, 3)
            assert _close(moment(fel, 3), want, math.sqrt(variance(fel)) ** 3)

    def test_products_of_distinct_coordinates(self):
        # I_q(sym(e_1 x ... x e_q)) / q! = X_1 ... X_q, so E[F^4] = 3^q
        x123 = single_integral(make_kernel(3, 3, [((1, 2, 3), 1.0 / 6.0)]))
        x1234 = single_integral(make_kernel(4, 4, [((1, 2, 3, 4), 1.0 / 24.0)]))
        assert moment(x123, 3) == 0.0
        assert moment(x123, 4) == pytest.approx(27.0, rel=TOL)
        assert moment(x1234, 4) == pytest.approx(81.0, rel=TOL)

    def test_cap_on_the_largest_built_order(self):
        # m = 4 builds f contracted with itself at r = 1, of order 2q - 2
        sixth = single_integral(make_kernel(6, 6, [((1, 2, 3, 4, 5, 6), 1.0)]))
        with pytest.raises(OrderCapError, match="order 10"):
            moment(sixth, 4)
        # the product route keeps its own check m * max_order <= ORDER_CAP
        shifted = linear_combine([(1.0, sixth), (1.0, constant_element(6, 1.0))])
        with pytest.raises(OrderCapError):
            moment(shifted, 3)


class TestRouting:
    def test_no_square_is_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("multiply called")

        monkeypatch.setattr(chaos, "multiply", refuse)
        fel = pair_sum_element(5000)
        assert moment(fel, 4) == pytest.approx(3.0 + 6.0 / 5000, abs=TOL)
        assert moment(fel, 3) == 0.0

    def test_other_elements_take_the_product_route(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("single-chaos route taken")

        monkeypatch.setattr(chaos, "_single_chaos_moment", refuse)
        pairs = pair_sum_element(3)
        two_orders = linear_combine([(1.0, pairs), (0.5, basis_element(6, 1))])
        shifted = linear_combine([(1.0, pairs), (1.0, constant_element(6, 0.5))])
        for fel in (two_orders, shifted):
            for m in (3, 4):
                assert math.isfinite(moment(fel, m))
        for m in (1, 2):
            assert math.isfinite(moment(pairs, m))


def _triple_sum(n: int) -> ChaosElement:
    """n^(-1/2) sum_i X_{3i-2} X_{3i-1} X_{3i}: unit variance, E[F^4] = 3 + 24/n."""
    raw = [((3 * i + 1, 3 * i + 2, 3 * i + 3), 1.0 / (6.0 * math.sqrt(n))) for i in range(n)]
    return single_integral(make_kernel(3, 3 * n, raw))


class TestThirdChaosExperiments:
    def test_fourth_moment_certificate_k3(self):
        members = tuple((float(n), _triple_sum(n)) for n in (1, 4, 8))
        rep = fourth_moment_certificate(3, SequenceSpec("custom", elements=members),
                                        2000, seed=3)
        for row, (n, _) in zip(rep.rows, members):
            assert math.isfinite(row["fourth_moment"]) and math.isfinite(row["bound"])
            assert row["fourth_moment"] == pytest.approx(3.0 + 24.0 / n, rel=TOL)

    def test_shigekawa_reports_third_chaos_fourth_moments(self):
        members = [(float(n), _triple_sum(n)) for n in (2, 4)]
        limit = _triple_sum(8)
        rep = shigekawa_rate(3, members, limit, 2000, seed=3)
        for row, (n, _) in zip(rep.rows, members):
            assert row["fourth_moment"] == pytest.approx(3.0 + 24.0 / n, rel=TOL)
        assert any("exact fourth moments bounded by" in note for note in rep.notes)
