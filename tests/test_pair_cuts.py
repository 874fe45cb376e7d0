"""Product terms cut from the merged index, against the former loop.

chaos._expand_pairs starts every entry pair from its merged index
sorted(alpha + beta) and cuts the shared-label copies each term pairs
off (chaos._pair_cuts).  The oracle is the frozen _two_dict_pairs of
test_in_place_builds, which builds each term's index from the labels
only one side carries plus the copies _shared_terms keeps.  Both must
agree in every bit and in the order of kernels and entries.  The pairs
here aim at the cuts: shared labels of multiplicity 2 to 4 on each side,
two or three shared labels, products at ORDER_CAP, and carres du champ,
whose R = 0 term drops.  The term table itself is compared with the
frozen _shared_terms on every shape ORDER_CAP admits.
"""

from collections import Counter
from itertools import combinations_with_replacement

import numpy as np
import pytest

from chaoslab import ORDER_CAP, ChaosElement, SymmetricKernel, carre_du_champ, chaos, multiply
from chaoslab.kernels import _multiplicities
from test_in_place_builds import (F4, _assert_same_element, _coef, _shared_terms,
                                  _two_dict_carre_du_champ, _two_dict_multiply)


def _element(dim, const, kernels):
    """An element with one kernel per entries dict, at that dict's order."""
    orders = [len(next(iter(entries))) for entries in kernels]
    return ChaosElement(dim, const, {k: SymmetricKernel(k, dim, entries)
                                     for k, entries in zip(orders, kernels)})


def _assert_both_match(f, g):
    seen = Counter()
    _assert_same_element(multiply(f, g), _two_dict_multiply(f, g, seen))
    _assert_same_element(carre_du_champ(f, g), _two_dict_carre_du_champ(f, g, seen))


@pytest.mark.parametrize("alpha, beta", [
    ((1, 1, 1, 1), (1, 1, 1, 1)),            # one label, multiplicity 4 on each side
    ((1, 1, 2, 2), (1, 1, 2, 2)),            # two labels, multiplicity 2 each
    ((1, 1, 1, 2), (1, 2, 2, 2)),            # multiplicities 3 and 1, 1 and 3
    ((1, 1, 2, 3), (1, 2, 2, 3)),            # three shared labels
    ((1, 1, 1, 2, 3), (1, 2, 3)),            # three shared labels at order 5 + 3
    ((1, 2, 2, 2, 2, 3, 4), (2,)),           # order 7 + 1, one shared label
    ((1, 1, 3, 3), (2, 2, 4, 4)),            # disjoint: one uncut term, none for Gamma
    ((1, 2, 2, 3, 3, 3), (2, 3)),            # the cut label sits mid-index
])
def test_hand_picked_pairs(alpha, beta):
    dim = max(alpha + beta)
    f = _element(dim, 0.0, [{alpha: 0.75}])
    g = _element(dim, 0.5, [{beta: -1.25}])
    assert len(alpha) + len(beta) <= ORDER_CAP
    _assert_both_match(f, g)
    if 2 * len(alpha) <= ORDER_CAP:
        _assert_both_match(f, f)


def _dense_element(gen, dim, orders):
    """Entries over few labels, so that labels repeat within an index and
    the two factors share several of them."""
    kernels = []
    for k in orders:
        entries = {}
        for _ in range(int(gen.integers(1, 5))):
            entries[tuple(sorted(gen.integers(1, dim + 1, size=k).tolist()))] = _coef(gen)
        kernels.append(entries)
    return _element(dim, float(gen.choice([0.0, 0.0, 0.5, -2.0])), kernels)


def test_random_pairs_aimed_at_the_cuts():
    gen = np.random.default_rng(2301)
    seen = Counter()
    for _ in range(1500):
        dim = int(gen.integers(1, 4))
        top = int(gen.integers(2, ORDER_CAP + 1))
        k = int(gen.integers(1, top))
        f = _dense_element(gen, dim, sorted({k, int(gen.integers(1, k + 1))}))
        g = f if 2 * k <= ORDER_CAP and gen.random() < 0.25 else _dense_element(
            gen, dim, sorted({top - k, int(gen.integers(1, top - k + 1))}))
        seen["order cap"] += f.max_order + g.max_order == ORDER_CAP
        for fk in f.kernels.values():
            for gk in g.kernels.values():
                for alpha in fk.entries:
                    for beta in gk.entries:
                        am, bm = _multiplicities(alpha), _multiplicities(beta)
                        shared = am.keys() & bm.keys()
                        seen[f"{len(shared)} shared labels"] += 1
                        for v in shared:
                            seen[f"multiplicity {min(am[v], bm[v])} on both sides"] += 1
                        if len(shared) > 1 and len({(am[v], bm[v]) for v in shared}) > 1:
                            seen["shared labels of unequal shape"] += 1
        _assert_both_match(f, g)
    for case in ("order cap", "0 shared labels", "2 shared labels", "3 shared labels",
                 "multiplicity 2 on both sides", "multiplicity 3 on both sides",
                 "multiplicity 4 on both sides", "shared labels of unequal shape"):
        assert seen[case] > 0, case


def test_cuts_keep_the_terms_of_shared_terms():
    """Applied to a merged index, the cuts of a shape give the indices that
    _shared_terms' positions give, in its order and with its weights."""
    for shape in [(), ((1, 1),), ((4, 4),), ((2, 3), (1, 1)), ((3, 1), (1, 2), (2, 2))]:
        labels = [10 * (i + 1) for i in range(len(shape))]
        rest = (5, 25, 99)
        ab = tuple(sorted(rest + tuple(v for v, (a, b) in zip(labels, shape)
                                       for _ in range(a + b))))
        for first_r in (0, 1):
            terms = _shared_terms(shape, first_r)
            cuts = chaos._pair_cuts(shape, first_r)
            assert [w for _, w in cuts] == [w for _, w in terms]
            for (pos, _), (cut, _) in zip(terms, cuts):
                gamma = ab
                for i, two_r in cut:
                    s = gamma.index(labels[i])
                    gamma = gamma[:s] + gamma[s + two_r:]
                assert gamma == tuple(sorted(rest + tuple(labels[i] for i in pos)))
    assert chaos._pair_cuts((), 0) == (((), 1.0),)
    assert chaos._pair_cuts((), 1) == ()


def _admitted_shapes(total):
    """Every shared-label shape ((a_1, b_1), ...), a_i, b_i >= 1, with
    sum_i (a_i + b_i) <= total and each side of order at most ORDER_CAP."""
    def grow(left):
        yield ()
        for s in range(2, left + 1):
            for a in range(1, s):
                for rest in grow(left - s):
                    yield ((a, s - a),) + rest
    return [shape for shape in grow(total)
            if sum(a for a, _ in shape) <= ORDER_CAP and sum(b for _, b in shape) <= ORDER_CAP]


@pytest.mark.parametrize("first_r, count", [(0, 128), (1, 510)])
def test_every_admitted_shape_matches_shared_terms(first_r, count):
    """A product meets shapes of total order up to ORDER_CAP, a carre du
    champ up to ORDER_CAP + 2; on each, _pair_cuts holds _shared_terms'
    terms in its order, each cut removing the copies the term does not keep,
    with the same weight bits."""
    shapes = _admitted_shapes(ORDER_CAP + 2 * first_r)
    assert len(shapes) == count
    for shape in shapes:
        want = [(tuple((i, a + b - pos.count(i)) for i, (a, b) in enumerate(shape)
                       if a + b > pos.count(i)), w.hex())
                for pos, w in _shared_terms(shape, first_r)]
        assert [(cuts, w.hex()) for cuts, w in chaos._pair_cuts(shape, first_r)] == want, shape


def test_pair_cuts_cache_holds_one_table_per_shape():
    """multiply(F4, F4) fills one cache entry per (shape, first_r) key it meets."""
    entries = [_multiplicities(alpha) for alpha in F4.kernels[4].entries]
    keys = {tuple([(am[v], bm[v]) for v in sorted(am.keys() & bm.keys())])
            for am, bm in combinations_with_replacement(entries, 2)}
    chaos._pair_cuts.cache_clear()
    multiply(F4, F4)
    assert chaos._pair_cuts.cache_info().currsize == len(keys)
