"""Finite chaos expansions as first-class values.

A ChaosElement is E[F] plus one symmetric kernel per active order,
realizing F = c + sum_k I_k(f_k) over n iid standard Gaussians.  On a
sorted index alpha, I_k(f) carries the Hermite monomial
prod_v H_{m_v}(X_v), so multiply and carre_du_champ, both one call of
_expand_pairs, expand entry pairs label by label through
H_a H_b = sum_r r! C(a,r) C(b,r) H_{a+b-2r}, which makes every moment a
finite exact computation without contracting kernels.  A pair's terms
differ only in how many copies of each shared label they pair off, so
each term is the pair's merged index with those copies cut out; one
table, _pair_cuts, cached per shared-label shape, holds every term's
cuts and weight.  Only the single-chaos third and fourth moments still
contract (kernels.sym_contract).  The Malliavin derivative and
Ornstein-Uhlenbeck generator are kernel surgery.  Builders from entry
dicts end in _element, and ChaosElement alone drops the kernels left
empty.

Multiplication is capped at total order ORDER_CAP, the same cap that
bounds kernel orders in kernels.py, to bound the combinatorial blowup.
moment(F, m) by repeated products refuses m * max_order > ORDER_CAP,
which covers fourth moments of order-2 elements and squares of order-4
elements.  Third and fourth moments of a single chaos I_q(f) come from
contractions of f with itself instead and are capped only by the largest
order they build: q for m = 3, 2q - 2 for m = 4.  moments(F, m_max)
gives every order up to m_max with the bits of moment, building each
power F^j, and the contraction that the single-chaos third and fourth
moments share, once.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import combinations_with_replacement, product
from typing import Mapping, Sequence

import numpy as np

from . import rng
from .kernels import (ORDER_CAP, Index, SymmetricKernel, _add_scaled,
                      _finished, _multiplicities, hermite_table, inner,
                      perm_count, slice_label, sym_contract)

_SAMPLE_CHUNK = 1 << 15  # draws per rng call
_SAMPLE_BLOCK = 1 << 18  # input coordinates drawn and evaluated together (2 MiB)


class OrderCapError(ValueError):
    """Raised when a product would exceed ORDER_CAP; lower the moment order."""


@dataclass(frozen=True)
class ChaosElement:
    """c + sum_k I_k(f_k) over basis labels 1..dim."""

    dim: int
    constant: float = 0.0
    kernels: Mapping[int, SymmetricKernel] = field(default_factory=dict)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not math.isfinite(self.constant):
            raise ValueError(f"constant must be finite, got {self.constant}")
        clean = {}
        for k, f in self.kernels.items():
            if f.order != k:
                raise ValueError(f"kernel in slot {k} has order {f.order}")
            if f.dim != self.dim:
                raise ValueError(f"kernel in slot {k} has dim {f.dim}, element has {self.dim}")
            if not f.is_zero():
                clean[k] = f
        object.__setattr__(self, "kernels", clean)

    @property
    def max_order(self) -> int:
        return max(self.kernels) if self.kernels else 0

    def is_constant(self) -> bool:
        return not self.kernels


@dataclass(frozen=True)
class ChaosVector:
    """Tuple of chaos elements over a common basis."""

    components: tuple[ChaosElement, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("vector needs at least one component")
        dims = {c.dim for c in self.components}
        if len(dims) != 1:
            raise ValueError(f"components disagree on dim: {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.components[0].dim

    def __len__(self) -> int:
        return len(self.components)


def constant_element(dim: int, c: float) -> ChaosElement:
    return ChaosElement(dim, float(c), {})


def single_integral(f: SymmetricKernel, scale: float = 1.0) -> ChaosElement:
    """The multiple integral I_k(scale * f) as a chaos element."""
    return ChaosElement(f.dim, 0.0, {f.order: f.scale(scale)})


def basis_element(dim: int, i: int) -> ChaosElement:
    """I_1(e_i): the coordinate Gaussian X_i."""
    if not (1 <= i <= dim):
        raise ValueError(f"label {i} outside 1..{dim}")
    return ChaosElement(dim, 0.0, {1: SymmetricKernel(1, dim, {(i,): 1.0})})


def linear_combine(terms: Sequence[tuple[float, ChaosElement]]) -> ChaosElement:
    """Coefficientwise linear combination; exact zeros dropped."""
    if not terms:
        raise ValueError("empty combination")
    dims = {fel.dim for _, fel in terms}
    if len(dims) != 1:
        raise ValueError(f"dim mismatch in combination: {sorted(dims)}")
    const = 0.0
    acc: dict[int, dict[Index, float]] = {}
    for a, fel in terms:
        a = float(a)
        if a == 0.0:
            continue
        const += a * fel.constant
        for k, ker in fel.kernels.items():
            _add_scaled(acc.setdefault(k, {}), ker, a)
    return _element(dims.pop(), const, acc)


def project(fel: ChaosElement, k: int) -> ChaosElement:
    """Orthogonal projection on the kth chaos (k = 0 gives the mean)."""
    if k < 0:
        raise ValueError("projection order must be >= 0")
    if k == 0:
        return constant_element(fel.dim, fel.constant)
    ker = fel.kernels.get(k)
    if ker is None:
        return constant_element(fel.dim, 0.0)
    return ChaosElement(fel.dim, 0.0, {k: ker})


def _element(dim: int, const: float, acc: dict[int, dict[Index, float]]) -> ChaosElement:
    """Chaos element from a constant and per-order entry accumulators, each
    finished in place by kernels._finished, whose error names the order.
    A slot left empty is dropped by ChaosElement, as every empty kernel is."""
    return ChaosElement(dim, const, {
        k: SymmetricKernel(k, dim, _finished(slot, f"order-{k} coefficient"))
        for k, slot in acc.items()})


def _hermite_entries(fel: ChaosElement) -> list[tuple[Index, dict[int, int], float, int]]:
    """Every kernel entry (alpha, c) of fel as (alpha, multiplicities, c, k!).
    I_k(f) carries perm_count(alpha) c prod_v H_{m_v}(X_v) at alpha, with
    perm_count(alpha) = k! / prod_v m_v!: k! c on prod_v H_{m_v}(X_v) / m_v!.
    The factor k! stays apart from c, so that a coefficient near the float
    limit only overflows where the product does."""
    return [(alpha, _multiplicities(alpha), c, math.factorial(k))
            for k, ker in fel.kernels.items() for alpha, c in ker.entries.items()]


@cache
def _pair_cuts(shape: tuple[tuple[int, int], ...],
               first_r: int) -> tuple[tuple[tuple[tuple[int, int], ...], float], ...]:
    """The one term table of _expand_pairs: prod_i (H_{a_i}/a_i!)(H_{b_i}/b_i!)
    over the shared labels of shape ((a_1, b_1), ...), expanded label by
    label through H_a H_b = sum_r r! C(a,r) C(b,r) H_{a+b-2r} and divided
    by a! b!.  Each choice of the r_i is a term (cuts, weight).  A term
    pairs off r_i copies of shared label i and keeps a_i + b_i - 2 r_i, so
    it is the merged index with 2 r_i copies cut out: cuts lists (i, 2 r_i)
    for every r_i > 0.  The weight is
    prod_i (a_i+b_i-2r_i)! / (r_i! (a_i-r_i)! (b_i-r_i)!), an exact integer
    quotient divided once, times R = sum_i r_i when first_r = 1, which
    drops R = 0.  The disjoint shape () is the one term ((), 1.0) for a
    product and none for a carre du champ.  Shapes carry no labels, so
    ORDER_CAP bounds the cache."""
    terms = [((), 1, 1, 0)]
    for i, (a, b) in enumerate(shape):
        terms = [(cuts + ((i, 2 * r),) if r else cuts, num * math.factorial(a + b - 2 * r),
                  den * math.factorial(r) * math.factorial(a - r) * math.factorial(b - r),
                  big_r + r)
                 for cuts, num, den, big_r in terms for r in range(min(a, b) + 1)]
    return tuple((cuts, big_r ** first_r * num / den)
                 for cuts, num, den, big_r in terms if big_r or not first_r)


def _expand_pairs(f_el: ChaosElement, g_el: ChaosElement, first_r: int) -> ChaosElement:
    """F G (first_r = 0) or the carre du champ <DF, DG> (first_r = 1), the
    one builder behind multiply and carre_du_champ.  It checks the dims and
    raises OrderCapError when max_order(F) + max_order(G) - 2 first_r
    exceeds ORDER_CAP; a product is seeded with E[F] E[G] and each side's
    kernels times the other's constant, and the kernel pairs add the rest.

    Entries multiply as monomials (_hermite_entries), label by label: a
    label only one side carries passes through, and the shared labels
    expand by the one term table _pair_cuts.  Every pair starts from its
    merged index, the sorted alpha + beta, and each term cuts from it the
    shared-label copies it pairs off: the copies of a label sit together
    in the merged index, so a cut is one tuple.index and two slices.  A
    pair without shared labels is the single uncut term, of weight 1.0;
    the carre du champ skips it, having no R = 0 term.  The summed
    coefficient of a sorted index gamma of order n, divided by n!, is its
    kernel entry.  The carre du champ is (L(FG) - F LG - G LF) / 2: L
    scales a term that pairs off R shared-label copies (order k+l-2R) by
    -(k+l-2R), and F LG + G LF scales it by -(k+l), so the carre du champ
    weights it by R.  F F takes each unordered pair of entries once, at
    twice the weight.

    Sums collect per order n, in a dict made at n's first term.  When no
    constant part seeded order n, that dict is divided by n! in place and
    becomes the order-n slot, so the result is built once; only a seeded
    slot is merged into, each gamma once.  _element finishes every slot.
    """
    if f_el.dim != g_el.dim:
        raise ValueError(f"dim mismatch: {f_el.dim} vs {g_el.dim}")
    top = f_el.max_order + g_el.max_order - 2 * first_r
    if top > ORDER_CAP:
        what = "carre du champ" if first_r else "product"
        raise OrderCapError(f"{what} order {top} exceeds cap {ORDER_CAP}")
    const = 0.0
    acc: dict[int, dict[Index, float]] = {}
    if not first_r:
        const = f_el.constant * g_el.constant
        for fel, other in ((f_el, g_el), (g_el, f_el)):
            for k, ker in fel.kernels.items():
                _add_scaled(acc.setdefault(k, {}), ker, other.constant)
    herm: dict[int, dict[Index, float]] = {}
    square = g_el is f_el
    f_entries = _hermite_entries(f_el)
    pairs = (combinations_with_replacement(f_entries, 2) if square
             else product(f_entries, _hermite_entries(g_el)))
    for (alpha, am, c, fk), (beta, bm, d, fl) in pairs:
        if first_r and am.keys().isdisjoint(bm):
            continue
        hh = c * d * (2 * fk * fl if square and alpha != beta else fk * fl)
        ab = tuple(sorted(alpha + beta))
        labels = sorted(am.keys() & bm.keys())
        for cuts, w in _pair_cuts(tuple([(am[v], bm[v]) for v in labels]), first_r):
            gamma = ab
            for i, two_r in cuts:
                s = gamma.index(labels[i])
                gamma = gamma[:s] + gamma[s + two_r:]
            part = herm.get(len(gamma))
            if part is None:
                part = herm[len(gamma)] = {}
            part[gamma] = part.get(gamma, 0.0) + w * hh
    for n, part in herm.items():
        if not n:
            const += part[()]
            continue
        nfact = math.factorial(n)
        slot = acc.get(n)
        if slot:
            for gamma, h in part.items():
                slot[gamma] = slot.get(gamma, 0.0) + h / nfact
            continue
        for gamma, h in part.items():
            part[gamma] = h / nfact
        acc[n] = part
    return _element(f_el.dim, const, acc)


def _product_weight(k: int, l: int, r: int) -> int:
    return math.factorial(r) * math.comb(k, r) * math.comb(l, r)


def multiply(f_el: ChaosElement, g_el: ChaosElement) -> ChaosElement:
    """Exact chaos expansion of the pointwise product.

    Each pair of kernel entries multiplies as Hermite monomials, label by
    label (_expand_pairs); summed over entries this is the product
    formula  I_k(f) I_l(g) = sum_r r! C(k,r) C(l,r) I_{k+l-2r}(f sym-contract_r g),
    computed without contractions.  Order-0 terms feed the constant.  It
    raises OrderCapError when max_order(F) + max_order(G) exceeds ORDER_CAP.
    """
    return _expand_pairs(f_el, g_el, 0)


def _finite(value: float, quantity: str) -> float:
    """value, or ValueError naming the quantity when it is not finite."""
    if not math.isfinite(value):
        raise ValueError(f"{quantity} is not finite: {value}")
    return value


def expectation(fel: ChaosElement) -> float:
    return fel.constant


def covariance(f_el: ChaosElement, g_el: ChaosElement) -> float:
    """Exact covariance: orders pair off by isometry, sum_k k! <f_k, g_k>."""
    if f_el.dim != g_el.dim:
        raise ValueError(f"dim mismatch: {f_el.dim} vs {g_el.dim}")
    total = 0.0
    for k, f in f_el.kernels.items():
        g = g_el.kernels.get(k)
        if g is not None:
            total += math.factorial(k) * inner(f, g)
    return _finite(total, "covariance")


def variance(fel: ChaosElement) -> float:
    return covariance(fel, fel)


def moment(fel: ChaosElement, m: int) -> float:
    """Exact E[F^m].

    A single chaos F = I_q(f) (zero constant, one kernel) with m = 3 or 4
    takes the contraction-norm formulas of _single_chaos_moment, which
    never build F^2; they build kernels of order at most q (m = 3) or
    2q - 2 (m = 4), and raise OrderCapError when that exceeds ORDER_CAP.

    m = 1 is the constant and m = 2 is E[F F] through the isometry, for
    every element; no product is built.  Every other input takes the
    product route: F^b is built by repeated products, b = ceil(m/2), and
    E[F^a F^b] with a = m // 2 is read off through the isometry.  It
    raises OrderCapError when m * max_order > ORDER_CAP, a stricter check
    than the largest order it builds, b * max_order.

    Only m is computed, so an error names m; moments(F, m_max) computes
    every order up to m_max and shares the work between them.
    """
    return _moment(fel, m, {1: fel}, {})


def moments(fel: ChaosElement, m_max: int) -> list[float]:
    """[E[F], E[F^2], ..., E[F^m_max]], each bit for bit as moment(F, m).

    The orders are computed in turn and share their work: the product
    route builds each power F^j once for all m, so m_max = 400 on a
    constant makes 199 products where separate calls make 39,800, and
    the single-chaos third and fourth moments of an even-order I_q(f)
    build the contraction f sym-contract_{q/2} f once.  No other
    contraction is kept.  The first order that fails raises what
    moment(F, m) raises at that m.  m = 1 and m = 2 build nothing and
    come from moment itself, so a profile that counts moment calls (the
    traced exact-large run of perfbench) still sees the CLI's.
    """
    if m_max < 1:
        raise ValueError("moment order must be >= 1")
    powers = {1: fel}
    contractions: dict[int, SymmetricKernel] = {}
    return [moment(fel, m) if m <= 2 else _moment(fel, m, powers, contractions)
            for m in range(1, m_max + 1)]


def _moment(fel: ChaosElement, m: int, powers: dict[int, ChaosElement],
            contractions: dict[int, SymmetricKernel]) -> float:
    """E[F^m] for moment and moments.  powers maps j to F^j and starts as
    {1: F}; the product route adds the powers it builds.  contractions
    carries f sym-contract_{q/2} f of a single chaos from m = 3 to m = 4
    (_single_chaos_moment)."""
    if m < 1:
        raise ValueError("moment order must be >= 1")
    if m == 1:
        return fel.constant
    if m == 2:
        return expectation_of_product(fel, fel)
    if m in (3, 4) and fel.constant == 0.0 and len(fel.kernels) == 1:
        (f,) = fel.kernels.values()
        return _single_chaos_moment(f, m, contractions)
    if m * fel.max_order > ORDER_CAP:
        raise OrderCapError(
            f"moment {m} of an order-{fel.max_order} element exceeds cap {ORDER_CAP}")
    a = m // 2
    b = m - a
    for j in range(len(powers) + 1, b + 1):
        powers[j] = multiply(powers[j - 1], fel)
    return expectation_of_product(powers[a], powers[b])


def _single_chaos_moment(f: SymmetricKernel, m: int,
                         contractions: dict[int, SymmetricKernel]) -> float:
    """E[I_q(f)^m] for m = 3 or 4 from contractions of f with itself.

    m = 4 (Nualart-Peccati 2005; Nourdin-Peccati 2012, ch. 5):
        E[F^4] = 3 sigma^4 + (3/q) sum_{r=1}^{q-1} r (r!)^2 C(q,r)^4 (2q-2r)!
                 ||f sym-contract_r f||^2,   sigma^2 = q! ||f||^2,
    computed with the integer (3/q) r C(q,r)^4 = 3 C(q-1,r-1) C(q,r)^3.
    m = 3: the order-q term of F^2 paired with F,
        E[F^3] = q! (q/2)! C(q,q/2)^2 <f, f sym-contract_{q/2} f>  (q even),
    and 0 for odd q, where F^2 has no order-q term.
    At q = 2 these are 3 sigma^4 + 48 tr(A^4) and 8 tr(A^3).

    m = 3 leaves f sym-contract_{q/2} f in contractions, keyed by q/2,
    and m = 4 takes it from there instead of building it again, so a
    caller that passes one dict to both builds it once; m = 4 removes it,
    being its last use.
    """
    q = f.order
    built = q if m == 3 else 2 * q - 2
    if built > ORDER_CAP:
        raise OrderCapError(
            f"moment {m} of a single order-{q} chaos builds order {built}, "
            f"above cap {ORDER_CAP}")
    if m == 3:
        if q % 2:
            return 0.0
        weight = math.factorial(q) * _product_weight(q, q, q // 2)
        half = contractions[q // 2] = sym_contract(f, f, q // 2)
        return _finite(weight * inner(f, half), "moment 3")
    sigma2 = math.factorial(q) * f.norm_sq()
    total = 3.0 * sigma2 * sigma2
    for r in range(1, q):
        weight = (3 * math.comb(q - 1, r - 1) * math.comb(q, r) ** 3
                  * math.factorial(r) ** 2 * math.factorial(2 * q - 2 * r))
        fr = contractions.pop(r, None) if 2 * r == q else None
        if fr is None:
            fr = sym_contract(f, f, r)
        total += weight * fr.norm_sq()
    return _finite(total, "moment 4")


def evaluate_batch(fel: ChaosElement, x: np.ndarray) -> np.ndarray:
    """Evaluate at each row of x (shape (N, dim)); returns shape (N,).

    Each sorted multi-index contributes perm_count * coefficient times a
    product of per-label Hermite factors, which is Ito's identity for
    multiple integrals of basis tensors.  A value that overflows comes
    back as inf or nan without a numpy warning; the output gates
    (io.value, io.save_samples_csv, the distance estimators) refuse it.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != fel.dim:
        raise ValueError(f"points must have shape (N, {fel.dim})")
    out = np.full(x.shape[0], fel.constant)
    tables: dict[int, np.ndarray] = {}

    def factor(v: int, m: int) -> np.ndarray:
        if m == 1:
            return x[:, v - 1]
        tab = tables.get(v)
        if tab is None or tab.shape[0] <= m:
            tab = hermite_table(m, x[:, v - 1])
            tables[v] = tab
        return tab[m]

    with np.errstate(over="ignore", invalid="ignore"):
        for ker in fel.kernels.values():
            for alpha, c in ker.entries.items():
                (v, m), *rest = _multiplicities(alpha).items()
                term = factor(v, m) * (perm_count(alpha) * c)
                for v, m in rest:
                    term *= factor(v, m)
                out += term
    return out


def evaluate(fel: ChaosElement, x: Sequence[float]) -> float:
    """Evaluate the polynomial at a single point of length dim."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != fel.dim:
        raise ValueError(f"point must have length {fel.dim}")
    return float(evaluate_batch(fel, x[None, :])[0])


def _draw_matrix(draw, dim: int, n_samples: int, seed: int, start: int = 0) -> np.ndarray:
    """Rows of iid draws from draw(seed, first_counter, count), one of the
    rng generators; row i depends only on (seed, start + i).

    Entry (i, c) is draw counter (start + i) * dim + c.  The output is
    filled as one flat array in pieces of _SAMPLE_CHUNK draws, small
    enough for the generator's temporaries to stay in cache; the pieces
    cannot change a value.
    """
    out = np.empty((n_samples, dim))
    flat = out.reshape(-1)
    first = start * dim
    for lo in range(0, flat.size, _SAMPLE_CHUNK):
        hi = min(lo + _SAMPLE_CHUNK, flat.size)
        flat[lo:hi] = draw(seed, first + lo, hi - lo)
    return out


def gaussian_matrix(dim: int, n_samples: int, seed: int, start: int = 0) -> np.ndarray:
    """Rows are iid N(0, I_dim); entry (i, c) is Gaussian counter
    (start + i) * dim + c, drawn in cache-sized pieces by _draw_matrix."""
    return _draw_matrix(rng.gaussians, dim, n_samples, seed, start)


def sample(target: ChaosElement | ChaosVector, n_samples: int, seed: int,
           workers: int = 1, draw=None) -> np.ndarray:
    """Draw n_samples evaluations of target under iid input coordinates:
    an array of shape (n_samples,) for an element, (n_samples, d) for a
    vector of d components.

    Coordinate c of sample i is counter i * dim + c of draw(seed, first,
    count), an rng generator such as rng.rademacher or rng.discrete bound
    to a law; draw=None draws standard Gaussians through gaussian_matrix.
    Rows are cut into blocks of at most _SAMPLE_BLOCK coordinates and
    ceil(n_samples / workers) rows, but never fewer rows than one
    _SAMPLE_CHUNK piece holds, so a large worker count cannot cut tiny
    blocks and start a thread for each.  Each block is drawn at its own
    counters and then evaluated.  With workers > 1 and several blocks, a
    pool of workers threads takes whole blocks; otherwise they run in
    turn.  Peak memory is not bounded by n_samples * dim: it is the
    output, plus per worker one block (at most 2 MiB of input), one
    piece's generator temporaries and evaluate_batch's Hermite tables,
    which hold (m + 1) * rows floats for each label of multiplicity
    m >= 2.  Those tables can outweigh the block: 50k samples of a dim-2
    element with two squared labels fill one 0.8 MB block and peak at
    4.96 MiB under tracemalloc, a dim-200 pair sum at 3.88 MiB.  Blocks
    and workers only partition the counter stream and the rows, and
    cannot change any value.
    """
    if n_samples < 1:
        raise ValueError("need n_samples >= 1")
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    vector = isinstance(target, ChaosVector)
    parts = target.components if vector else (target,)
    dim = target.dim
    out = np.empty((n_samples, len(parts)))
    per_worker = max(_SAMPLE_CHUNK // dim, -(-n_samples // workers))
    rows = max(1, min(_SAMPLE_BLOCK // dim, per_worker))
    spans = [(lo, min(lo + rows, n_samples)) for lo in range(0, n_samples, rows)]
    matrix = gaussian_matrix if draw is None else partial(_draw_matrix, draw)

    def block(span) -> None:
        lo, hi = span
        x = matrix(dim, hi - lo, seed, start=lo)
        for j, fel in enumerate(parts):
            out[lo:hi, j] = evaluate_batch(fel, x)

    if workers > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(block, spans))
    else:
        for span in spans:
            block(span)
    return out if vector else out[:, 0]


def mderiv(fel: ChaosElement, i: int) -> ChaosElement:
    """Malliavin derivative in direction e_i: each order drops by one.

    D_i F = sum_k k I_{k-1}(f_k(., i)); the first-order slot lands in the
    constant.
    """
    if not (1 <= i <= fel.dim):
        raise ValueError(f"label {i} outside 1..{fel.dim}")
    const = 0.0
    kernels: dict[int, SymmetricKernel] = {}
    for k, ker in fel.kernels.items():
        sliced = slice_label(ker, i)
        if k == 1:
            const += sliced
        else:
            kernels[k - 1] = sliced.scale(float(k))
    return ChaosElement(fel.dim, const, kernels)


def carre_du_champ(f_el: ChaosElement, g_el: ChaosElement) -> ChaosElement:
    """Chaos expansion of <DF, DG>, label by label like multiply.

    It equals sum_{k,l} sum_{r=1}^{k^l} r r! C(k,r) C(l,r) I_{k+l-2r}(f_k sym-contract_r g_l),
    r times the product weight; on a pair of Hermite monomials the weight
    is R, the number of shared-label copies paired off (_expand_pairs).
    It lives in orders <= max_order(F) + max_order(G) - 2, and raises
    OrderCapError when that exceeds ORDER_CAP, as multiply does.
    """
    return _expand_pairs(f_el, g_el, 1)


def ou_generator(fel: ChaosElement) -> ChaosElement:
    """Ornstein-Uhlenbeck generator: multiply the kth chaos by -k."""
    kernels = {k: ker.scale(-float(k)) for k, ker in fel.kernels.items()}
    return ChaosElement(fel.dim, 0.0, kernels)


def check_ibp(f_el: ChaosElement, g_el: ChaosElement,
              h_el: ChaosElement) -> tuple[float, float]:
    """Both sides of the integration-by-parts identity.

    lhs = -E[H G LF],  rhs = E[H <DG, DF>] + E[G <DH, DF>]; both exact,
    equal up to roundoff.  With H = 1 this is the duality delta D = -L.
    """
    lhs = -expectation_of_product(multiply(h_el, g_el), ou_generator(f_el))
    rhs = expectation_of_product(h_el, carre_du_champ(g_el, f_el)) \
        + expectation_of_product(g_el, carre_du_champ(h_el, f_el))
    return lhs, rhs


def expectation_of_product(f_el: ChaosElement, g_el: ChaosElement) -> float:
    """E[F G] through the isometry, without materializing the product."""
    return _finite(f_el.constant * g_el.constant + covariance(f_el, g_el), "E[FG]")


def malliavin_matrix(vec: ChaosVector) -> list[list[ChaosElement]]:
    """Matrix of pairwise carres du champ <DV_i, DV_j>, as chaos elements."""
    d = len(vec)
    mat: list[list[ChaosElement]] = [[None] * d for _ in range(d)]  # type: ignore
    for i in range(d):
        for j in range(i, d):
            g = carre_du_champ(vec.components[i], vec.components[j])
            mat[i][j] = g
            mat[j][i] = g
    return mat


def det_chaos(mat: Sequence[Sequence[ChaosElement]]) -> ChaosElement:
    """Determinant of a small matrix of chaos elements (d <= 3) by Laplace
    expansion along the first row: sum_j (-1)^j mat[0][j] det(minor_j)."""
    d = len(mat)
    if d == 0:
        raise ValueError("determinant of an empty matrix: need 1 <= d <= 3 rows")
    if any(len(row) != d for row in mat):
        raise ValueError("matrix must be square")
    if d > 3:
        raise ValueError("determinant supported only for d <= 3")
    if d == 1:
        return mat[0][0]
    minors = ([row[:j] + row[j + 1:] for row in mat[1:]] for j in range(d))
    return linear_combine([((-1.0) ** j, multiply(mat[0][j], det_chaos(minor)))
                           for j, minor in enumerate(minors)])
