import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import hermite_e

from chaoslab import (BipartiteKernel, MultilinearSpec, SymmetricKernel,
                      contract, hermite_eval, inner, kernel_add, make_kernel,
                      multilinear_to_chaos, perm_count, single_integral,
                      slice_label, sym_contract, symmetrize, zero_kernel)
from chaoslab.kernels import (_multiplicities, _multiset_diff, _sub_multisets,
                              hermite_table)
from dense_oracle import (dense_from_kernel, dense_sym_contract,
                          dense_symmetrize, dense_from_bipartite,
                          kernel_from_dense)
from helpers import nonzero_kernel, random_kernel


class TestHermite:
    def test_order_zero_is_one(self):
        assert hermite_eval(0, 7.3) == 1.0

    def test_order_two(self):
        assert hermite_eval(2, 1.5) == pytest.approx(1.25, abs=1e-12)

    def test_order_four(self):
        # H_4(x) = x^4 - 6x^2 + 3
        assert hermite_eval(4, 1.0) == pytest.approx(-2.0, abs=1e-12)

    def test_matches_numpy_probabilists_basis(self):
        xs = np.linspace(-3, 3, 13)
        for k in range(9):
            coef = [0.0] * k + [1.0]
            expect = hermite_e.hermeval(xs, coef)
            got = [hermite_eval(k, x) for x in xs]
            assert np.allclose(got, expect, rtol=1e-12, atol=1e-9)

    def test_table_matches_scalar(self):
        xs = np.array([-1.7, 0.0, 2.4])
        tab = hermite_table(6, xs)
        for k in range(7):
            for j, x in enumerate(xs):
                assert tab[k, j] == pytest.approx(hermite_eval(k, x), rel=1e-12)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            hermite_eval(-1, 0.0)


class TestMakeKernel:
    def test_sorts_indices(self):
        ker = make_kernel(2, 3, [((2, 1), 0.5)])
        assert ker.entries == {(1, 2): 0.5}

    def test_merges_and_drops_exact_zero(self):
        ker = make_kernel(2, 3, [((1, 2), 0.5), ((2, 1), -0.5)])
        assert ker.entries == {}
        assert ker.is_zero()

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label 3"):
            make_kernel(1, 2, [((3,), 1.0)])
        with pytest.raises(ValueError, match="label 0"):
            make_kernel(1, 2, [((0,), 1.0)])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            make_kernel(2, 3, [((1, 2, 3), 1.0)])

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            make_kernel(0, 3, [])
        with pytest.raises(ValueError):
            make_kernel(9, 3, [])

    @pytest.mark.parametrize("raw", [
        [((1,), math.nan)],
        [((1,), math.inf)],
        [((1,), -math.inf)],
        [((1,), 1e308), ((1,), 1e308)],     # the merge overflows to inf
        [((1,), -1e308), ((1,), -1e308)],
        [((1,), math.inf), ((1,), -math.inf)],  # merges to nan
    ])
    def test_non_finite_merged_coefficient_rejected(self, raw):
        with pytest.raises(ValueError, match=r"coefficient at index \(1,\) is not finite"):
            make_kernel(1, 1, raw)

    def test_large_finite_duplicates_that_fit_are_kept(self):
        ker = make_kernel(1, 1, [((1,), 8e307), ((1,), 8e307)])
        assert ker.entries == {(1,): 1.6e308}

    @given(st.lists(st.tuples(st.tuples(st.integers(1, 4), st.integers(1, 4)),
                              st.floats(-5, 5, allow_nan=False)), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_permutation_of_input_tuples_is_immaterial(self, raw):
        a = make_kernel(2, 4, [(idx, c) for idx, c in raw])
        b = make_kernel(2, 4, [(idx[::-1], c) for idx, c in raw])
        assert a == b


class TestScale:
    """scale keeps make_kernel's invariants: no stored exact zero, no
    non-finite coefficient."""

    def test_underflow_to_zero_is_dropped(self):
        f = make_kernel(2, 2, [((1, 2), 1e-300), ((1, 1), 1.0)])
        assert f.scale(1e-300).entries == {(1, 1): 1e-300}
        tiny = make_kernel(2, 2, [((1, 2), 1e-300)])
        assert tiny.scale(1e-300).is_zero()
        assert single_integral(tiny, 1e-300).kernels == {}

    def test_overflow_raises(self):
        with pytest.raises(ValueError, match=r"coefficient at index \(1, 2\) is not finite"):
            make_kernel(2, 2, [((1, 2), 1e300)]).scale(1e300)

_HUGE = make_kernel(1, 1, [((1,), 1e308)])
_G = make_kernel(2, 2, [((1, 1), 1e200), ((1, 2), 1e200), ((2, 2), 1e200)])


@pytest.mark.parametrize("build, refused", [
    (lambda: kernel_add(_HUGE, _HUGE), True),
    (lambda: contract(_G, _G, 1), True),
    (lambda: symmetrize(contract(_G, _G, 1)), True),
    (lambda: sym_contract(_G, _G, 1), True),
    # the split weight C(2, 1) = 2 overflows before the average divides it out
    (lambda: symmetrize(BipartiteKernel(1, 1, 1, {((1,), (1,)): 1e308})), True),
    (lambda: multilinear_to_chaos(MultilinearSpec({(1, 2, 3): 1.0, (4, 5, 6): 5e-324})),
     False),
], ids=["kernel_add", "contract", "symmetrize-of-contract", "sym_contract",
        "symmetrize", "multilinear_to_chaos"])
def test_every_build_is_finished(build, refused):
    """Every build keeps the kernel invariant: a non-finite result raises,
    and a coefficient that underflows to zero (5e-324 / 3!) is not stored."""
    if refused:
        with pytest.raises(ValueError, match=r"^coefficient at index .* is not finite"):
            build()
    else:
        assert build().kernels[3].entries == {(1, 2, 3): 1.0 / 6.0}


class TestInner:
    def test_repeated_index(self):
        f = make_kernel(2, 3, [((1, 1), 1.0)])
        assert inner(f, f) == 1.0

    def test_distinct_index_counts_both_orderings(self):
        f = make_kernel(2, 3, [((1, 2), 1.0)])
        assert inner(f, f) == 2.0

    def test_disjoint_supports(self):
        f = make_kernel(2, 3, [((1, 2), 1.0)])
        g = make_kernel(2, 3, [((1, 1), 1.0)])
        assert inner(f, g) == 0.0

    def test_equal_sizes_symmetric_bit_for_bit(self):
        # equal entry counts, different insertion orders: the summation
        # order must not depend on which argument comes first
        f = make_kernel(2, 2, [((1, 1), 1.25), ((1, 2), 2.0), ((2, 2), 0.5)])
        g = make_kernel(2, 2, [((1, 1), 1.1190815508522878),
                               ((2, 2), 0.11908155085228778), ((1, 2), 1.0)])
        assert inner(f, g) == inner(g, f)

    def test_mismatch_errors(self):
        f = make_kernel(2, 3, [((1, 2), 1.0)])
        with pytest.raises(ValueError, match="order"):
            inner(f, make_kernel(1, 3, [((1,), 1.0)]))
        with pytest.raises(ValueError, match="dim"):
            inner(f, make_kernel(2, 4, [((1, 2), 1.0)]))

    def test_matches_dense_tuple_sum(self, gen):
        for _ in range(25):
            k = int(gen.integers(1, 4))
            f = random_kernel(gen, k, 3)
            g = random_kernel(gen, k, 3)
            dense = float(np.tensordot(dense_from_kernel(f), dense_from_kernel(g), axes=k))
            assert inner(f, g) == pytest.approx(dense, abs=1e-12)

    def test_bilinear_and_psd(self, gen):
        for _ in range(40):
            f = random_kernel(gen, 2, 4)
            g = random_kernel(gen, 2, 4)
            h = random_kernel(gen, 2, 4)
            a, b = float(gen.uniform(-2, 2)), float(gen.uniform(-2, 2))
            lhs = inner(kernel_add(f.scale(a), g.scale(b)), h)
            assert lhs == pytest.approx(a * inner(f, h) + b * inner(g, h), abs=1e-10)
            assert inner(f, f) >= 0.0
            assert (inner(f, f) == 0.0) == f.is_zero()

    def test_norm_zero_iff_empty(self):
        assert zero_kernel(3, 5).norm() == 0.0
        assert make_kernel(3, 5, [((1, 2, 3), 0.1)]).norm() > 0.0

    @given(st.lists(st.tuples(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                              st.floats(-3, 3, allow_nan=False)), max_size=6),
           st.lists(st.tuples(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                              st.floats(-3, 3, allow_nan=False)), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_and_cauchy_schwarz(self, raw_f, raw_g):
        f = make_kernel(2, 3, raw_f)
        g = make_kernel(2, 3, raw_g)
        assert inner(f, g) == inner(g, f)
        assert abs(inner(f, g)) <= f.norm() * g.norm() + 1e-9


class TestContract:
    def test_repeated_single_label(self):
        f = make_kernel(2, 3, [((1, 1), 1.0)])
        t = contract(f, f, 1)
        assert t.entries == {((1,), (1,)): 1.0}

    def test_two_label_entry_enumerates_contraction_variable(self):
        f = make_kernel(2, 3, [((1, 2), 1.0)])
        t = contract(f, f, 1)
        assert t.entries == {((1,), (1,)): 1.0, ((2,), (2,)): 1.0}

    def test_full_contraction_is_inner(self):
        f = make_kernel(2, 3, [((1, 2), 1.0)])
        assert sym_contract(f, f, 2) == pytest.approx(inner(f, f))
        t = contract(f, f, 2)
        assert t.entries == {((), ()): 2.0}

    def test_r_out_of_range(self):
        f = make_kernel(2, 3, [((1, 2), 1.0)])
        with pytest.raises(ValueError, match="contraction order"):
            contract(f, f, 3)
        with pytest.raises(ValueError, match="contraction order"):
            contract(f, f, -1)

    def test_dim_mismatch(self):
        f = make_kernel(2, 3, [((1, 2), 1.0)])
        g = make_kernel(2, 4, [((1, 2), 1.0)])
        with pytest.raises(ValueError, match="dim"):
            contract(f, g, 1)


class TestSymmetrize:
    def test_split_weights_sum_to_one(self, gen):
        # a bipartite kernel constant on every split of every multiset
        # symmetrizes to that constant
        c = 0.7
        entries = {}
        gamma = (1, 1, 2)
        splits = {((1,), (1, 2)), ((1,), (1, 2)), ((2,), (1, 1))}
        for a, b in splits:
            entries[(a, b)] = c
        t = BipartiteKernel(1, 2, 3, entries)
        out = symmetrize(t)
        assert out.entries[gamma] == pytest.approx(c, abs=1e-12)

    def test_single_off_diagonal_split(self):
        t = BipartiteKernel(1, 1, 3, {((1,), (2,)): 1.0})
        assert symmetrize(t).entries == {(1, 2): 0.5}

    def test_projection_on_already_symmetric(self, gen):
        # view a symmetric kernel as bipartite on every split; symmetrizing
        # must reproduce it coefficientwise
        for _ in range(20):
            m = int(gen.integers(2, 5))
            s = int(gen.integers(1, m))
            ker = nonzero_kernel(gen, m, 3)
            entries = {}
            from itertools import combinations
            for gamma, c in ker.entries.items():
                for pos in set(combinations(range(m), s)):
                    left = tuple(gamma[i] for i in pos)
                    right = tuple(gamma[i] for i in range(m) if i not in pos)
                    entries[(tuple(sorted(left)), tuple(sorted(right)))] = c
            out = symmetrize(BipartiteKernel(s, m - s, 3, entries))
            assert set(out.entries) == set(ker.entries)
            for idx, c in ker.entries.items():
                assert out.entries[idx] == pytest.approx(c, abs=1e-12)

    def test_matches_dense_symmetrization(self, gen):
        for _ in range(15):
            k = int(gen.integers(1, 3))
            l = int(gen.integers(1, 3))
            f = nonzero_kernel(gen, k, 3)
            g = nonzero_kernel(gen, l, 3)
            t = contract(f, g, 0)
            sparse = symmetrize(t)
            dense = dense_symmetrize(dense_from_bipartite(t))
            expect = kernel_from_dense(np.where(np.abs(dense) < 1e-300, 0.0, dense), 3)
            for idx in set(sparse.entries) | set(expect.entries):
                assert sparse.entries.get(idx, 0.0) == pytest.approx(
                    expect.entries.get(idx, 0.0), abs=1e-12)


def _oracle_contract(f, g, r):
    """contract as one loop over sub-multisets for every r, with no fast path."""
    def split(ker):
        out = {}
        for alpha, c in ker.entries.items():
            for sub in _sub_multisets(alpha, r):
                out.setdefault(sub, []).append((_multiset_diff(alpha, sub), c))
        return out

    fmap, gmap = split(f), split(g)
    out = {}
    for sub, flist in fmap.items():
        glist = gmap.get(sub)
        if glist is None:
            continue
        w = perm_count(sub)
        for xi, c in flist:
            for eta, d in glist:
                key = (xi, eta)
                s = out.get(key, 0.0) + w * c * d
                out[key] = s
    out = {k: v for k, v in out.items() if v != 0.0}
    return BipartiteKernel(f.order - r, g.order - r, f.dim, out)


def _oracle_symmetrize(t):
    """symmetrize with split weights from full multiplicity maps."""
    m = t.left + t.right
    denom = math.comb(m, t.left)
    acc = {}
    for (xi, eta), val in t.entries.items():
        gamma = tuple(sorted(xi + eta))
        gmult = _multiplicities(gamma)
        ways = 1
        for v, c in _multiplicities(xi).items():
            ways *= math.comb(gmult[v], c)
        add = val * ways / denom
        s = acc.get(gamma, 0.0) + add
        acc[gamma] = s
    return SymmetricKernel(m, t.dim, {k: v for k, v in acc.items() if v != 0.0})


def _bits(entries):
    return [(key, float.hex(v)) for key, v in entries.items()]


def test_contract_and_symmetrize_match_loop_oracle_bit_for_bit(gen):
    # orders 1-4 on both sides, every r from 0 to min(k, l): r = k < l and
    # r = l < k give the one-sided kernels, and small dims force shared labels
    for _ in range(300):
        dim = int(gen.integers(1, 9))
        k, l = (int(v) for v in gen.integers(1, 5, size=2))
        f, g = nonzero_kernel(gen, k, dim, terms=8), nonzero_kernel(gen, l, dim, terms=8)
        for r in range(min(k, l) + 1):
            got, expect = contract(f, g, r), _oracle_contract(f, g, r)
            assert (got.left, got.right) == (expect.left, expect.right)
            assert _bits(got.entries) == _bits(expect.entries)
            if k + l > 2 * r:
                assert _bits(symmetrize(got).entries) == _bits(
                    _oracle_symmetrize(expect).entries)


class TestSymContract:
    def test_already_symmetric_output(self):
        f = make_kernel(2, 3, [((1, 1), 1.0)])
        assert sym_contract(f, f, 1).entries == {(1, 1): 1.0}

    def test_tensor_product_weight(self):
        f = make_kernel(2, 3, [((1, 1), 1.0)])
        g = make_kernel(2, 3, [((2, 2), 1.0)])
        out = sym_contract(f, g, 0)
        assert out.entries[(1, 1, 2, 2)] == pytest.approx(1.0 / 6.0, abs=1e-14)

    def test_contraction_output_already_symmetric(self):
        f = make_kernel(2, 3, [((1, 2), 1.0)])
        out = sym_contract(f, f, 1)
        assert out.entries == {(1, 1): 1.0, (2, 2): 1.0}

    def test_dense_equivalence_small(self, gen):
        for _ in range(30):
            n = int(gen.integers(1, 4))
            k = int(gen.integers(1, 4))
            l = int(gen.integers(1, 4))
            f = nonzero_kernel(gen, k, n)
            g = nonzero_kernel(gen, l, n)
            for r in range(min(k, l) + 1):
                got = sym_contract(f, g, r)
                expect = dense_sym_contract(f, g, r)
                if isinstance(got, float):
                    assert got == pytest.approx(float(expect), abs=1e-10)
                    continue
                dense_got = dense_from_kernel(got)
                assert np.max(np.abs(dense_got - expect)) <= 1e-10


class TestInvariantBounds:
    def test_contraction_norm_chain(self, gen):
        # ||sym contraction|| <= ||contraction|| <= ||f|| ||g||
        checked = 0
        while checked < 220:
            n = int(gen.integers(2, 6))
            k = int(gen.integers(1, 4))
            l = int(gen.integers(1, 4))
            f = nonzero_kernel(gen, k, n)
            g = nonzero_kernel(gen, l, n)
            for r in range(min(k, l) + 1):
                t = contract(f, g, r)
                tnorm = t.norm()
                if t.left + t.right == 0:
                    snorm = abs(inner(f, g))
                else:
                    snorm = symmetrize(t).norm()
                assert snorm <= tnorm + 1e-10
                assert tnorm <= f.norm() * g.norm() + 1e-10
                checked += 1

    def test_r0_path_consistency(self, gen):
        # contract(.,.,0) + symmetrize agrees with the dense plain tensor
        # product symmetrized
        for _ in range(10):
            f = nonzero_kernel(gen, 2, 3)
            g = nonzero_kernel(gen, 1, 3)
            via_contract = symmetrize(contract(f, g, 0))
            dense = dense_symmetrize(
                np.multiply.outer(dense_from_kernel(f), dense_from_kernel(g)))
            got = dense_from_kernel(via_contract)
            assert np.max(np.abs(got - dense)) <= 1e-12


class TestSliceLabel:
    def test_order_one_returns_coefficient(self):
        f = make_kernel(1, 2, [((1,), 2.0)])
        assert slice_label(f, 1) == 2.0
        assert slice_label(f, 2) == 0.0

    def test_drops_one_copy(self):
        f = make_kernel(3, 2, [((1, 1, 2), 0.5)])
        out = slice_label(f, 1)
        assert out.entries == {(1, 2): 0.5}

    def test_label_out_of_range(self):
        f = make_kernel(1, 2, [((1,), 2.0)])
        with pytest.raises(ValueError, match="label"):
            slice_label(f, 3)


def test_perm_count_values():
    assert perm_count((1, 1, 1)) == 1
    assert perm_count((1, 2, 3)) == 6
    assert perm_count((1, 1, 2)) == 3
    assert perm_count((1, 1, 2, 2)) == 6
