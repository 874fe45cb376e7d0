"""Sparse symmetric tensors over a finite orthonormal basis.

A symmetric kernel of order ``k`` over basis labels ``1..n`` is a
symmetric function on index tuples in ``[n]^k``.  We store a single
coefficient per *sorted* multi-index ``alpha``; that coefficient is the
value the function takes on every permutation of ``alpha``
(function-on-tuples convention).  Inner products, contractions and
derivative slicing are then literal coordinate sums weighted by
permutation counts:

    <f, g>  =  sum over tuples t of f(t) g(t)
            =  sum over sorted alpha of perm_count(alpha) c_alpha d_alpha.

Contraction and symmetrization run one loop for every r and every split;
their production caller is the single-chaos moment route.

Every build ends in _finished, so no kernel stores an exact zero (emptiness
is an exact algebraic statement) or a value that is not finite.  All objects
are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping

Index = tuple[int, ...]

# Multiset-split combinatorics use exact integers; capping the order keeps
# every factorial below 2**63.  Chaos products obey the same cap.
ORDER_CAP = 8


def hermite_eval(k: int, x: float) -> float:
    """Probabilists' Hermite polynomial H_k at x: entry k of hermite_table."""
    if k < 0:
        raise ValueError("Hermite order must be >= 0")
    return float(hermite_table(k, x)[k])


def hermite_table(k_max: int, x):
    """Stack H_0(x) .. H_{k_max}(x) for array-valued x; shape (k_max+1,) + x.shape.

    Three-term recurrence: H_0 = 1, H_1 = x, H_{k+1}(x) = x H_k(x) - k H_{k-1}(x).
    """
    import numpy as np

    x = np.asarray(x, dtype=float)
    out = np.empty((k_max + 1,) + x.shape)
    out[0] = 1.0
    if k_max >= 1:
        out[1] = x
    for j in range(1, k_max):
        out[j + 1] = x * out[j] - j * out[j - 1]
    return out


def perm_count(alpha: Index) -> int:
    """Number of distinct permutations of the sorted tuple alpha."""
    c = math.factorial(len(alpha))
    run = 1
    for i in range(1, len(alpha)):
        if alpha[i] == alpha[i - 1]:
            run += 1
            c //= run
        else:
            run = 1
    return c


def _multiplicities(alpha: Index) -> dict[int, int]:
    m: dict[int, int] = {}
    for v in alpha:
        m[v] = m.get(v, 0) + 1
    return m


def _sub_multisets(alpha: Index, r: int) -> set[Index]:
    """Distinct sorted sub-multisets of size r (combinations deduplicated)."""
    return set(combinations(alpha, r))


def _multiset_diff(alpha: Index, sub: Index) -> Index:
    rest = list(alpha)
    for v in sub:
        rest.remove(v)
    return tuple(rest)


def _split_by_sub(f: SymmetricKernel, r: int) -> dict[Index, list[tuple[Index, float]]]:
    """Group f's entries by each size-r sub-multiset A: A -> [(alpha - A, c)]."""
    out: dict[Index, list[tuple[Index, float]]] = {}
    for alpha, c in f.entries.items():
        for sub in _sub_multisets(alpha, r):
            out.setdefault(sub, []).append((_multiset_diff(alpha, sub), c))
    return out


@dataclass(frozen=True)
class SymmetricKernel:
    """Element of the symmetric tensor power H^(. k) over an n-point basis."""

    order: int
    dim: int
    entries: Mapping[Index, float]

    def norm_sq(self) -> float:
        return sum(perm_count(a) * c * c for a, c in self.entries.items())

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def is_zero(self) -> bool:
        return not self.entries

    def scale(self, a: float) -> "SymmetricKernel":
        """a * self; _finished drops products that underflow to zero and
        refuses one that is not finite."""
        return SymmetricKernel(self.order, self.dim,
                               _finished({idx: a * c for idx, c in self.entries.items()}))


@dataclass(frozen=True)
class BipartiteKernel:
    """Contraction output: symmetric in each argument group but not jointly.

    Keys are pairs (left multi-index of length s, right multi-index of
    length t), each sorted; values follow the same function-on-tuples
    convention within each group.
    """

    left: int
    right: int
    dim: int
    entries: Mapping[tuple[Index, Index], float]

    def norm_sq(self) -> float:
        return sum(perm_count(xi) * perm_count(eta) * v * v
                   for (xi, eta), v in self.entries.items())

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())


def _finished(acc: dict, what: str = "coefficient") -> dict:
    """Finish a build: delete acc's exact zeros in place and return acc, or
    raise ValueError at its first value that is not finite.  The other
    entries keep their order, so the dict becomes the result it built."""
    for key in [k for k, v in acc.items() if not v or not math.isfinite(v)]:
        if acc[key]:
            raise ValueError(f"{what} at index {key} is not finite: {acc[key]}")
        del acc[key]
    return acc


def make_kernel(order: int, dim: int,
                raw_entries: Iterable[tuple[Iterable[int], float]]) -> SymmetricKernel:
    """Build a kernel from (index tuple, coefficient) pairs.

    Tuples are sorted and duplicates merged by addition in the dict the
    kernel keeps, so the build peaks at about the size of its result;
    _finished deletes its exact zeros and refuses a merged coefficient that
    is not finite (a NaN or infinite input, or duplicates that overflow).
    """
    if order < 1 or order > ORDER_CAP:
        raise ValueError(f"kernel order must be in 1..{ORDER_CAP}, got {order}")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    acc: dict[Index, float] = {}
    for idx, coef in raw_entries:
        t = tuple(idx)
        if len(t) != order:
            raise ValueError(f"index {t} has length {len(t)}, expected {order}")
        for v in t:
            if not (1 <= v <= dim):
                raise ValueError(f"label {v} outside 1..{dim} in index {t}")
        key = tuple(sorted(t))
        acc[key] = acc.get(key, 0.0) + float(coef)
    return SymmetricKernel(order, dim, _finished(acc))


def zero_kernel(order: int, dim: int) -> SymmetricKernel:
    return SymmetricKernel(order, dim, {})


def _add_scaled(slot: dict[Index, float], ker: SymmetricKernel, w: float) -> None:
    """slot += w * ker entrywise, dropping entries that cancel to exactly zero."""
    if w == 0.0:
        return
    for idx, c in ker.entries.items():
        s = slot.get(idx, 0.0) + w * c
        if s == 0.0:
            slot.pop(idx, None)
        else:
            slot[idx] = s


def kernel_add(f: SymmetricKernel, g: SymmetricKernel) -> SymmetricKernel:
    if f.order != g.order or f.dim != g.dim:
        raise ValueError("kernel add requires matching order and dim")
    acc = dict(f.entries)
    _add_scaled(acc, g, 1.0)
    return SymmetricKernel(f.order, f.dim, _finished(acc))


def inner(f: SymmetricKernel, g: SymmetricKernel) -> float:
    """Tensor-power inner product: sum over all tuples of f(t) g(t)."""
    if f.order != g.order:
        raise ValueError(f"order mismatch: {f.order} vs {g.order}")
    if f.dim != g.dim:
        raise ValueError(f"dim mismatch: {f.dim} vs {g.dim}")
    small, big = f.entries, g.entries
    # the smaller dict sets the summation order; equal sizes break the tie on
    # the item lists, so inner(f, g) and inner(g, f) agree bit for bit
    if len(big) < len(small) or (len(big) == len(small) and f is not g
                                 and list(big.items()) < list(small.items())):
        small, big = big, small
    total = 0.0
    for idx, c in small.items():
        d = big.get(idx)
        if d is not None:
            total += perm_count(idx) * c * d
    return total


def contract(f: SymmetricKernel, g: SymmetricKernel, r: int) -> BipartiteKernel:
    """Pair r arguments of f with r arguments of g and sum them out.

    Output value on (xi, eta) is sum over tuples a in [n]^r of
    f(xi, a) g(eta, a); grouping tuples a by their multiset A gives the
    implemented form  sum_A (r!/prod mult_A!) f(xi + A) g(eta + A).
    For r = 0 this is the plain tensor product; for r = order of both
    it is the scalar <f, g> stored under the empty index pair.  One loop
    over the shared sub-multisets A serves every r; the production caller
    is chaos._single_chaos_moment, at f = g and 1 <= r <= q - 1.  Values
    accumulate in the dict the result keeps, and _finished deletes its
    exact zeros and refuses a sum that overflows.
    """
    if f.dim != g.dim:
        raise ValueError(f"dim mismatch: {f.dim} vs {g.dim}")
    if not (0 <= r <= min(f.order, g.order)):
        raise ValueError(f"contraction order {r} outside 0..{min(f.order, g.order)}")

    fmap, gmap = _split_by_sub(f, r), _split_by_sub(g, r)
    out: dict[tuple[Index, Index], float] = {}
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
    return BipartiteKernel(f.order - r, g.order - r, f.dim, _finished(out))


def symmetrize(t: BipartiteKernel) -> SymmetricKernel:
    """Full symmetrization of a bipartite kernel.

    On the sorted multi-index gamma the result averages T over all
    multiset splits gamma = A + B with |A| = s, each split weighted by
    prod_v C(mult_gamma(v), mult_A(v)) / C(s+t, s): the fraction of the
    (s+t)! argument permutations that realize that split.  Like contract,
    it sums into the dict the result keeps and then finishes it (_finished).
    """
    m = t.left + t.right
    if m == 0:
        raise ValueError("cannot symmetrize an order-0 kernel; read the scalar directly")
    denom = math.comb(m, t.left)
    acc: dict[Index, float] = {}
    for (xi, eta), val in t.entries.items():
        # a label with a copies in xi and b in eta contributes C(a + b, a)
        ways = 1
        for v in set(xi).intersection(eta):
            a = xi.count(v)
            ways *= math.comb(a + eta.count(v), a)
        gamma = tuple(sorted(xi + eta))
        acc[gamma] = acc.get(gamma, 0.0) + val * ways / denom
    return SymmetricKernel(m, t.dim, _finished(acc))


def sym_contract(f: SymmetricKernel, g: SymmetricKernel, r: int):
    """Symmetrized contraction.

    Returns a SymmetricKernel, except in the full-contraction case
    r = f.order = g.order where the result is the scalar <f, g>.
    """
    if r == f.order and r == g.order:
        return inner(f, g)
    return symmetrize(contract(f, g, r))


def slice_label(f: SymmetricKernel, i: int):
    """Fix one argument of f to basis label i: the kernel f(. , i).

    Returns a SymmetricKernel of order k-1, or the bare coefficient when
    k = 1.  This is the kernel-side move behind the Malliavin derivative.
    """
    if not (1 <= i <= f.dim):
        raise ValueError(f"label {i} outside 1..{f.dim}")
    if f.order == 1:
        return f.entries.get((i,), 0.0)
    acc: dict[Index, float] = {}
    for alpha, c in f.entries.items():
        if i in alpha:
            acc[_multiset_diff(alpha, (i,))] = c
    return SymmetricKernel(f.order - 1, f.dim, acc)
