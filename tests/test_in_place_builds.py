"""Exact builders return the dict they accumulate into.

multiply and carre_du_champ (through chaos._expand_pairs), contract,
symmetrize and make_kernel sum into the dict their result keeps and
delete exact zeros from it in place.  The oracles below are the former
two-dict builds, kept frozen: one accumulator for every order (or a
zero-filtering copy of it), then a second pass into the result.  Both
must agree in every bit and in the order of kernels and entries, which
later float sums (inner, evaluate_batch) follow.  A tracemalloc bound
checks that the builds peak at about the size of what they return.
"""

import math
import tracemalloc
from collections import Counter
from itertools import chain, combinations_with_replacement, product

import numpy as np
import pytest

from chaoslab import (BipartiteKernel, ChaosElement, SymmetricKernel, carre_du_champ,
                      contract, make_kernel, multiply, symmetrize)
from chaoslab.chaos import _element, _hermite_entries, _shared_terms
from chaoslab.kernels import _add_scaled, _multiset_diff, _sub_multisets, perm_count

TINY = 2.0 ** -1074  # the smallest subnormal: products and quotients of it underflow
COEFS = [1.0, -1.0, 0.5, -0.5, 2.0, -2.0, 0.25, 3.0, -3.0]
CONSTANTS = [0.0, 0.0, 0.5, -1.0, 2.0, -3.0 * TINY]


def _two_dict_pairs(f_el, g_el, first_r, const, acc, seen):
    """The former _expand_pairs: every order in one dict, then a copy into
    acc; seen counts the cancellations and merges it met."""
    herm = {}
    square = g_el is f_el
    f_entries = _hermite_entries(f_el)
    pairs = (combinations_with_replacement(f_entries, 2) if square
             else product(f_entries, _hermite_entries(g_el)))
    for (alpha, am, c, fk), (beta, bm, d, fl) in pairs:
        hh = c * d * (2 * fk * fl if square and alpha != beta else fk * fl)
        shared = am.keys() & bm.keys()
        if not shared:
            if not first_r:
                gamma = tuple(sorted(alpha + beta))
                herm[gamma] = herm.get(gamma, 0.0) + hh
            continue
        labels = sorted(shared)
        rest = [v for v in alpha + beta if v not in shared]
        for pos, w in _shared_terms(tuple([(am[v], bm[v]) for v in labels]), first_r):
            gamma = tuple(sorted(rest + [labels[i] for i in pos]))
            herm[gamma] = herm.get(gamma, 0.0) + w * hh
    seeded = {k for k, slot in acc.items() if slot}
    for gamma, h in herm.items():
        if not gamma:
            const += h
            continue
        slot = acc.setdefault(len(gamma), {})
        add = h / math.factorial(len(gamma))
        seen["zero"] += add == 0.0
        seen["negative zero"] += add == 0.0 and math.copysign(1.0, add) < 0.0
        s = slot.get(gamma, 0.0) + add
        if len(gamma) in seeded:
            seen["merge"] += 1
            seen["merge cancelled"] += s == 0.0 and gamma in slot
        if s == 0.0:
            slot.pop(gamma, None)
        else:
            slot[gamma] = s
    return const


def _two_dict_multiply(f_el, g_el, seen):
    acc = {}
    for k, ker in f_el.kernels.items():
        _add_scaled(acc.setdefault(k, {}), ker, g_el.constant)
    for l, ker in g_el.kernels.items():
        _add_scaled(acc.setdefault(l, {}), ker, f_el.constant)
    const = _two_dict_pairs(f_el, g_el, 0, f_el.constant * g_el.constant, acc, seen)
    return _element(f_el.dim, const, acc)


def _two_dict_carre_du_champ(f_el, g_el, seen):
    acc = {}
    const = _two_dict_pairs(f_el, g_el, 1, 0.0, acc, seen)
    return _element(f_el.dim, const, acc)


def _nonzero(acc, seen):
    """The former zero-filtering copy."""
    out = {k: v for k, v in acc.items() if v != 0.0}
    seen["filtered"] += len(acc) - len(out)
    return out


def _two_dict_contract(f, g, r, seen):
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
            wc = w * c
            for eta, d in glist:
                key = (xi, eta)
                out[key] = out.get(key, 0.0) + wc * d
    return BipartiteKernel(f.order - r, g.order - r, f.dim, _nonzero(out, seen))


def _two_dict_symmetrize(t, seen):
    m = t.left + t.right
    denom = math.comb(m, t.left)
    acc = {}
    for (xi, eta), val in t.entries.items():
        ways = 1
        for v in set(xi).intersection(eta):
            a = xi.count(v)
            ways *= math.comb(a + eta.count(v), a)
        gamma = tuple(sorted(xi + eta))
        acc[gamma] = acc.get(gamma, 0.0) + val * ways / denom
    return SymmetricKernel(m, t.dim, _nonzero(acc, seen))


def _two_dict_make_kernel(order, dim, raw, seen):
    acc = {}
    for idx, coef in raw:
        key = tuple(sorted(idx))
        acc[key] = acc.get(key, 0.0) + float(coef)
    return SymmetricKernel(order, dim, _nonzero(acc, seen))


def _coef(gen) -> float:
    """A dyadic value, so that sums cancel exactly, or now and then a
    subnormal, so that products underflow to +-0.0."""
    if gen.random() < 0.1:
        return float(gen.choice([-3.0, -1.0, 1.0, 3.0])) * TINY
    return float(gen.choice(COEFS))


def _kernel(gen, k, dim, terms=4):
    entries = {}
    for _ in range(int(gen.integers(1, terms + 1))):
        entries[tuple(sorted(gen.integers(1, dim + 1, size=k).tolist()))] = _coef(gen)
    return SymmetricKernel(k, dim, entries)


def _chaos(gen, dim):
    orders = [k for k in range(1, 5) if gen.random() < 0.5] or [int(gen.integers(1, 5))]
    return ChaosElement(dim, float(gen.choice(CONSTANTS)),
                        {k: _kernel(gen, k, dim) for k in gen.permutation(orders).tolist()})


def _bits(entries: dict) -> list:
    return np.fromiter(entries.values(), float, len(entries)).view(np.uint64).tolist()


def _assert_same_kernel(got, want):
    assert (got.order, got.dim) == (want.order, want.dim)
    assert list(got.entries) == list(want.entries)
    assert _bits(got.entries) == _bits(want.entries)


def _assert_same_element(got: ChaosElement, want: ChaosElement):
    assert _bits({0: got.constant}) == _bits({0: want.constant})
    assert list(got.kernels) == list(want.kernels)
    for k, ker in want.kernels.items():
        _assert_same_kernel(got.kernels[k], ker)


def test_products_and_carre_du_champ_match_two_dict_build_bit_for_bit():
    gen = np.random.default_rng(2203)
    seen = Counter()
    for _ in range(2000):
        dim = int(gen.integers(1, 5))
        f = _chaos(gen, dim)
        g = f if gen.random() < 0.3 else _chaos(gen, dim)
        seen["square"] += g is f
        seen["constant"] += f.constant != 0.0 or g.constant != 0.0
        _assert_same_element(multiply(f, g), _two_dict_multiply(f, g, seen))
        _assert_same_element(carre_du_champ(f, g), _two_dict_carre_du_champ(f, g, seen))
    # the draws reach every branch: squares, a slot seeded by a nonzero
    # constant (merged, and cancelled there), sums of exactly 0, and -0.0
    for case in ("square", "constant", "merge", "merge cancelled", "zero",
                 "negative zero"):
        assert seen[case] > 0, case


def test_contract_symmetrize_and_make_kernel_match_two_dict_build_bit_for_bit():
    gen = np.random.default_rng(2204)
    seen = Counter()
    for _ in range(2000):
        dim = int(gen.integers(1, 5))
        k, l = (int(v) for v in gen.integers(1, 5, size=2))
        f = _kernel(gen, k, dim, terms=6)
        g = f if gen.random() < 0.3 else _kernel(gen, l, dim, terms=6)
        r = int(gen.integers(0, min(f.order, g.order) + 1))
        got, want = contract(f, g, r), _two_dict_contract(f, g, r, seen)
        assert (got.left, got.right, got.dim) == (want.left, want.right, want.dim)
        assert list(got.entries) == list(want.entries)
        assert _bits(got.entries) == _bits(want.entries)
        if got.left + got.right:
            _assert_same_kernel(symmetrize(got), _two_dict_symmetrize(want, seen))
        # permuted duplicates that cancel, and -0.0 inputs
        raw = [(tuple(gen.permutation(idx).tolist()), c)
               for idx, c in chain(f.entries.items(), f.entries.items())]
        raw += [(idx, -c) for idx, c in raw[:int(gen.integers(0, len(raw) + 1))]]
        raw.append((raw[0][0], -0.0))
        raw = [raw[i] for i in gen.permutation(len(raw))]
        _assert_same_kernel(make_kernel(k, dim, raw), _two_dict_make_kernel(k, dim, raw, seen))
    assert seen["filtered"] > 0


def _order4_element() -> ChaosElement:
    """150 distinct order-4 entries in dim 12, as in the exact-large
    workload's square."""
    gen = np.random.default_rng(12)
    support = list(combinations_with_replacement(range(1, 13), 4))
    picks = sorted(gen.choice(len(support), 150, replace=False).tolist())
    return ChaosElement(12, 0.0, {4: SymmetricKernel(
        4, 12, {support[i]: float(gen.uniform(-1.0, 1.0)) for i in picks})})


def _peak_over_result(build) -> float:
    """tracemalloc peak of build() over the memory its result keeps."""
    build()  # fill the _shared_terms cache first, so the result alone is kept
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = build()  # held while the retained size is read
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del out
    return (peak - base) / (kept - base)


F4 = _order4_element()
_RAW_GEN = np.random.default_rng(50_000)
RAW = [(tuple(_RAW_GEN.integers(1, 41, size=4).tolist()), float(_RAW_GEN.uniform(-1.0, 1.0)))
       for _ in range(50_000)]


@pytest.mark.parametrize("build", [
    pytest.param(lambda: multiply(F4, F4), id="multiply"),
    pytest.param(lambda: carre_du_champ(F4, F4), id="carre_du_champ"),
    pytest.param(lambda: make_kernel(4, 40, RAW), id="make_kernel"),
])
def test_exact_builds_peak_near_their_result(build):
    # the former two-dict builds, which keep a second copy, read 1.38-1.69
    assert _peak_over_result(build) <= 1.15
