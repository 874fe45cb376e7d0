"""Label-wise Hermite products against the contraction route they replaced.

multiply and carre_du_champ expand entry pairs label by label.  The
oracle below is the former route: one symmetrized contraction per
(order k, order l, contraction r) triple through the public sym_contract
and inner, weighted by _product_weight.  Dense arrays check both for
small orders and dims, and hand-expanded Hermite products pin the
weights on repeated labels.
"""

import math

import numpy as np
import pytest

from chaoslab import (ORDER_CAP, ChaosElement, SymmetricKernel, carre_du_champ,
                      chaos, evaluate_batch, inner, kernels, make_kernel, moment,
                      multiply, pair_sum_element, single_integral, sym_contract)
from chaoslab.chaos import _product_weight
from dense_oracle import dense_from_kernel, dense_sym_contract
from helpers import nonzero_kernel, random_element

REL = 1e-12


def _contraction_pairs(f_el: ChaosElement, g_el: ChaosElement, first_r: int,
                       const: float, acc: dict) -> float:
    """sum_{k,l,r >= first_r} r^first_r r! C(k,r) C(l,r) I_{k+l-2r}(f_k
    sym-contract_r g_l) added into acc; full contractions go to const."""
    for k, f in f_el.kernels.items():
        for l, g in g_el.kernels.items():
            for r in range(first_r, min(k, l) + 1):
                w = r ** first_r * _product_weight(k, l, r)
                if k + l - 2 * r == 0:
                    const += w * inner(f, g)
                    continue
                slot = acc.setdefault(k + l - 2 * r, {})
                for idx, c in sym_contract(f, g, r).entries.items():
                    slot[idx] = slot.get(idx, 0.0) + w * c
    return const


def _oracle(f_el: ChaosElement, g_el: ChaosElement, first_r: int):
    """(constant, {order: {index: coefficient}}) of F G (first_r = 0) or
    <DF, DG> (first_r = 1) by the contraction route; exact zeros dropped."""
    acc: dict = {}
    const = 0.0
    if not first_r:
        const = f_el.constant * g_el.constant
        for a, el in ((g_el.constant, f_el), (f_el.constant, g_el)):
            for k, ker in el.kernels.items():
                slot = acc.setdefault(k, {})
                for idx, c in ker.entries.items():
                    slot[idx] = slot.get(idx, 0.0) + a * c
    const = _contraction_pairs(f_el, g_el, first_r, const, acc)
    kernels = {k: {idx: c for idx, c in slot.items() if c != 0.0} for k, slot in acc.items()}
    return const, {k: slot for k, slot in kernels.items() if slot}


def _assert_matches(got: ChaosElement, want) -> None:
    """Same supports, every coefficient within REL of the oracle's."""
    const, kernels = want
    assert got.constant == pytest.approx(const, rel=REL, abs=0.0)
    assert set(got.kernels) == set(kernels)
    for k, slot in kernels.items():
        entries = got.kernels[k].entries
        assert set(entries) == set(slot)
        for idx, c in slot.items():
            assert entries[idx] == pytest.approx(c, rel=REL, abs=0.0), (k, idx)


def _check_both(f: ChaosElement, g: ChaosElement) -> None:
    _assert_matches(multiply(f, g), _oracle(f, g, 0))
    _assert_matches(carre_du_champ(f, g), _oracle(f, g, 1))


def _copy(fel: ChaosElement) -> ChaosElement:
    return ChaosElement(fel.dim, fel.constant, dict(fel.kernels))


def _on_labels(gen, order: int, dim: int, labels: list[int], terms: int = 3) -> SymmetricKernel:
    raw = [(sorted(gen.choice(labels, size=order).tolist()), float(gen.uniform(-1.0, 1.0)))
           for _ in range(terms)]
    return make_kernel(order, dim, raw)


class TestAgainstContractionRoute:
    @pytest.mark.parametrize("max_order", [1, 2, 3, 4])
    def test_random_elements(self, gen, max_order):
        for _ in range(40):
            dim = int(gen.integers(1, 7))
            f = random_element(gen, dim, max_order, terms=4)
            g = random_element(gen, dim, int(gen.integers(1, 5)), terms=4)
            _check_both(f, g)
            _check_both(g, f)

    def test_squares_take_each_pair_once(self, gen):
        # F F and F G with G a copy of F expand the same pairs, differently grouped
        for _ in range(40):
            f = random_element(gen, int(gen.integers(1, 7)), 4, terms=4)
            for fn, first_r in ((multiply, 0), (carre_du_champ, 1)):
                want = _oracle(f, f, first_r)
                _assert_matches(fn(f, f), want)
                _assert_matches(fn(f, _copy(f)), want)

    def test_disjoint_labels(self, gen):
        for _ in range(30):
            k, l = (int(v) for v in gen.integers(1, 5, size=2))
            f = ChaosElement(6, float(gen.uniform(-1, 1)),
                             {k: _on_labels(gen, k, 6, [1, 2, 3])})
            g = ChaosElement(6, float(gen.uniform(-1, 1)),
                             {l: _on_labels(gen, l, 6, [4, 5, 6])})
            _check_both(f, g)
            # F and G depend on different coordinates, so <DF, DG> = 0
            gamma = carre_du_champ(f, g)
            assert gamma.constant == 0.0 and gamma.kernels == {}
            pts = gen.normal(size=(8, 6))
            want = evaluate_batch(f, pts) * evaluate_batch(g, pts)
            assert np.allclose(evaluate_batch(multiply(f, g), pts), want, rtol=1e-12, atol=1e-12)

    def test_order4_square_at_the_cap(self, gen):
        for dim in (3, 5, 8):
            f = single_integral(nonzero_kernel(gen, 4, dim, terms=12))
            prod = multiply(f, f)
            assert prod.max_order == ORDER_CAP
            _assert_matches(prod, _oracle(f, f, 0))
            _assert_matches(carre_du_champ(f, f), _oracle(f, f, 1))


class TestRepeatedLabelsByHand:
    H2 = single_integral(make_kernel(2, 2, [((1, 1), 1.0)]))
    H3 = single_integral(make_kernel(3, 2, [((1, 1, 1), 1.0)]))

    def test_h2_h3(self):
        # H_2 H_3 = H_5 + 6 H_3 + 6 H_1
        out = multiply(self.H2, self.H3)
        assert out.constant == 0.0
        assert {k: dict(ker.entries) for k, ker in out.kernels.items()} == {
            5: {(1,) * 5: 1.0}, 3: {(1, 1, 1): 6.0}, 1: {(1,): 6.0}}

    def test_h2_h3_carre_du_champ(self):
        # H_2' H_3' = 2 X 3 H_2 = 6 (H_3 + 2 H_1)
        out = carre_du_champ(self.H2, self.H3)
        assert out.constant == 0.0
        assert {k: dict(ker.entries) for k, ker in out.kernels.items()} == {
            3: {(1, 1, 1): 6.0}, 1: {(1,): 12.0}}

    def test_two_shared_labels(self):
        # H_2(X_1) X_2 * X_1 X_2 = (H_3 + 2 H_1)(X_1) (H_2 + 1)(X_2); the
        # coefficients divide by perm counts 3, 2, 10, 1, 3 and 1
        f = single_integral(make_kernel(3, 2, [((1, 1, 2), 1.0 / 3.0)]))
        g = single_integral(make_kernel(2, 2, [((1, 2), 0.5)]))
        out = multiply(f, g)
        assert out.constant == 0.0
        assert set(out.kernels) == {5, 3, 1}
        assert out.kernels[5].entries == {(1, 1, 1, 2, 2): pytest.approx(0.1, rel=1e-15)}
        assert out.kernels[3].entries == {(1, 1, 1): pytest.approx(1.0, rel=1e-15),
                                          (1, 2, 2): pytest.approx(2.0 / 3.0, rel=1e-15)}
        assert out.kernels[1].entries == {(1,): pytest.approx(2.0, rel=1e-15)}
        _check_both(f, g)

    def test_coefficients_near_the_float_limit(self):
        # 4! * 1e307 overflows; the product's coefficient 1e297 / 5 does not
        f = single_integral(make_kernel(4, 5, [((1, 2, 3, 4), 1e307)]))
        g = single_integral(make_kernel(1, 5, [((4,), 1e-10), ((5,), 1e-10)]))
        _check_both(f, g)
        assert multiply(f, g).kernels[5].entries[(1, 2, 3, 4, 5)] == pytest.approx(2e296)


class TestDenseOracle:
    def test_products_in_small_dims(self, gen):
        for _ in range(25):
            dim = int(gen.integers(1, 4))
            f = random_element(gen, dim, 3, terms=3)
            g = random_element(gen, dim, 3, terms=3)
            for fn, first_r in ((multiply, 0), (carre_du_champ, 1)):
                const = f.constant * g.constant if not first_r else 0.0
                dense: dict[int, np.ndarray] = {}
                if not first_r:
                    for a, el in ((g.constant, f), (f.constant, g)):
                        for k, ker in el.kernels.items():
                            dense[k] = dense.get(k, 0.0) + a * dense_from_kernel(ker)
                for k, fk in f.kernels.items():
                    for l, gl in g.kernels.items():
                        for r in range(first_r, min(k, l) + 1):
                            w = r ** first_r * _product_weight(k, l, r)
                            term = w * np.asarray(dense_sym_contract(fk, gl, r))
                            if term.ndim == 0:
                                const += float(term)
                            else:
                                dense[term.ndim] = dense.get(term.ndim, 0.0) + term
                got = fn(f, g)
                assert got.constant == pytest.approx(const, rel=REL, abs=1e-14)
                for n in set(dense) | set(got.kernels):
                    want = dense.get(n, np.zeros((dim,) * n))
                    have = (dense_from_kernel(got.kernels[n]) if n in got.kernels
                            else np.zeros((dim,) * n))
                    assert np.allclose(have, want, rtol=REL, atol=1e-14), (fn.__name__, n)


class TestRoute:
    def test_products_never_contract(self, gen, monkeypatch):
        def refuse(*args):
            raise AssertionError("contraction route taken")

        monkeypatch.setattr(chaos, "sym_contract", refuse)
        monkeypatch.setattr(kernels, "contract", refuse)
        for _ in range(20):
            dim = int(gen.integers(1, 5))
            f, g = random_element(gen, dim, 4), random_element(gen, dim, 4)
            for a, b in ((f, g), (f, f)):
                multiply(a, b)
                carre_du_champ(a, b)

    def test_single_chaos_moments_still_contract(self, monkeypatch):
        seen = []
        real = kernels.contract

        def spy(f, g, r):
            seen.append(r)
            return real(f, g, r)

        monkeypatch.setattr(kernels, "contract", spy)
        fel = pair_sum_element(5)
        assert moment(fel, 3) == 0.0
        assert seen == [1]
        assert moment(fel, 4) == pytest.approx(3.0 + 6.0 / 5, rel=1e-12)
        assert seen == [1, 1]
        assert math.isfinite(moment(fel, 2))
        assert seen == [1, 1]
