"""Monte Carlo distance estimators with bootstrap confidence intervals.

Scheffe's identity (total variation = half the L1 gap between densities)
drives the TV estimators: against a known normal target a binned
Gaussian KDE is integrated on a fixed grid; between two sample sets a
common histogram is used instead, since two KDEs would double the
smoothing bias.  Histogram TV is upward-biased at finite N and the bias
shrinks as N grows; acceptance gates carry explicit slack for it.

The Fortet-Mourier estimator maximizes sum phi_j (p_j - q_j) over grid
functions bounded by 1 whose increments respect the 1-Lipschitz
constraint, via dynamic programming over discretized levels; level
discretization can cost at most 2/(levels-1).

Every estimator is a pure function of (inputs, seed): bootstrap
resampling happens on histogram counts (multinomially), which is
distribution-identical to resampling the underlying observations for
these statistics, and much cheaper.  The replicates are drawn one after
another into one preallocated array per argument, under the observed
counts (row 0, the point estimate), and each statistic is called once on
those arrays: the histogram TV and the chain DP are vectorized over the
replicates (their arrays are small), while the KDE and 2d-grid
statistics reduce row by row and build no (replicates, grid) float
temporary.

Only small_ball uses scipy (betaincinv, for the Clopper-Pearson
interval), and imports it inside the function, so importing chaoslab,
its exact computations and every other estimator never load it; that
import is about half of a short exact command's start-up time and
memory.  normal_cdf, which tv_vs_density needs for the target's tail
mass, is a pure-Python port of the Cephes ndtr that scipy.special.ndtr
runs, and gives the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng

KDE_GRID_POINTS = 2048   # tv_vs_density grid
TV_MIN_BINS = 20         # tv_two_samples: max(TV_MIN_BINS, floor(min(N)^(1/3))) bins
GRID2D_CELLS = 40        # tv_multivariate cells per axis
MIN_SAMPLES = 1000       # tv_vs_density, tv_two_samples, fm_two_samples (per set)
MIN_SAMPLES_FINE = 10_000  # small_ball, tv_multivariate


class DegenerateSampleError(ValueError):
    """The empirical law is (nearly) atomic; a density comparison is invalid."""


@dataclass(frozen=True)
class DistanceEstimate:
    value: float
    ci_low: float
    ci_high: float
    method: str
    n_samples: tuple[int, ...]

    def ci_width(self) -> float:
        return self.ci_high - self.ci_low

    def to_dict(self) -> dict:
        return {"method": self.method, "value": self.value,
                "ci": [self.ci_low, self.ci_high], "n": list(self.n_samples)}


def _samples(values, minimum: int = 1, shape: tuple[int, ...] = ()) -> np.ndarray:
    """values as a float array: at least minimum rows of the given shape
    (() for scalars, (d,) in dimension d), all finite; the first value
    that is not is named by its sample (/coordinate) index."""
    x = np.asarray(values, dtype=float)
    if x.ndim != len(shape) + 1 or x.shape[1:] != shape:
        what = f"samples in d = {shape[0]}" if shape else "scalar samples"
        raise ValueError(f"expected {what}, got shape {x.shape}")
    if x.shape[0] < minimum:
        raise ValueError(f"need at least {minimum} samples, got {x.shape[0]}")
    finite = np.isfinite(x)
    if not finite.all():
        first = tuple(np.argwhere(~finite)[0])
        raise ValueError(f"sample {'/'.join(map(str, first))} is not finite: {x[first]}")
    return x


def _at_least(value: int, least: int, name: str) -> None:
    """Refuse an estimator knob (n_boot, cells, levels) below its least value."""
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def _finish(point: float, boots: np.ndarray, method: str,
            counts: tuple[int, ...], cap: float | None = None) -> DistanceEstimate:
    if boots.size:
        lo, hi = np.percentile(boots, [2.5, 97.5])
    else:
        lo = hi = point
    # percentile CIs occasionally miss the point estimate; widen so the
    # invariant ci_low <= value <= ci_high always holds
    lo, hi = min(lo, point), max(hi, point)
    if cap is not None:
        point, lo, hi = min(point, cap), min(lo, cap), min(hi, cap)
    return DistanceEstimate(float(point), float(lo), float(hi), method, counts)


def _bootstrap(stat, samples: list[tuple[np.ndarray, int]], n_boot: int,
               seed: int, label: int, method: str,
               cap: float | None = None) -> DistanceEstimate:
    """stat on the observed counts plus a multinomial bootstrap CI.

    samples holds one (counts, n) pair per argument of stat; each replicate
    redraws every argument's counts, in argument order, from one generator
    seeded by (seed, label).  Each argument gets one (n_boot + 1, cells)
    array, of the counts' dtype widened to int64 (so float for
    histogram2d cells): row 0 is the observed counts and row i the ith
    replicate, written in place as it is drawn.  stat is called once on
    the arrays and returns one value per row.  A cap clamps the value and
    both CI ends.
    """
    gen = np.random.default_rng(rng.derive(seed, label))
    probs = [(n, c / n) for c, n in samples]
    arrays = [np.empty((n_boot + 1, c.size), dtype=np.result_type(c, np.int64))
              for c, _ in samples]
    for a, (c, _) in zip(arrays, samples):
        a[0] = c
    for i in range(1, n_boot + 1):
        for a, (n, p) in zip(arrays, probs):
            a[i] = gen.multinomial(n, p)
    vals = stat(*arrays)
    return _finish(vals[0], vals[1:], method, tuple(n for _, n in samples), cap)


def _pooled_counts(x1: np.ndarray, x2: np.ndarray, bins: int):
    """Counts of both sets on bins equal cells over their pooled range, and
    the cell width; None when every value of both sets is the same."""
    lo = min(float(x1.min()), float(x2.min()))
    hi = max(float(x1.max()), float(x2.max()))
    if lo == hi:
        return None
    edges = np.linspace(lo, hi, bins + 1)
    return np.histogram(x1, edges)[0], np.histogram(x2, edges)[0], edges[1] - edges[0]


def _covariance_2x2(cov) -> np.ndarray:
    """cov as a float array, after checking that it is a finite, symmetric,
    positive definite 2x2 matrix by Sylvester's test (cov[0,0] > 0 and
    det > 0), which unlike the eigenvalues of (cov + cov.T) / 2 cannot
    overflow.  An infinite entry would pass the test with det = inf."""
    cov = np.asarray(cov, dtype=float)
    if (cov.shape != (2, 2) or not np.isfinite(cov).all() or not (cov == cov.T).all()
            or not (cov[0, 0] > 0.0 and np.linalg.det(cov) > 0.0)):
        raise ValueError("target covariance must be symmetric positive definite 2x2 "
                         "with finite entries (cov[0,0] > 0 and positive determinant)")
    return cov


def _normal_params(mean, var) -> tuple[float, float]:
    """mean and var of a normal target as floats, after checking that the
    mean is finite and the variance finite and positive."""
    if not math.isfinite(mean):
        raise ValueError(f"target mean must be finite, got {mean}")
    if not (math.isfinite(var) and var > 0.0):
        raise ValueError(f"target var must be a finite positive number, got {var}")
    return float(mean), float(var)


# Cephes ndtr.c (S. L. Moshier), after W. J. Cody's rational Chebyshev
# approximations of erf and erfc (Math. Comp. 1969): erf(x) = x T(x^2) / U(x^2)
# for |x| < 1; erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8 and
# exp(-x^2) R(x) / S(x) from 8 on.  U, Q and S have an implicit leading 1.
_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
      7.00332514112805075473E3, 5.55923013010394962768E4)
_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
      2.26290000613890934246E4, 4.92673942608635921086E4)
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
      4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
      9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)
_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
      6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
      1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_MAXLOG = 7.09782712893383996843E2   # log of the largest double: exp(-x^2) underflows beyond
_SQRT1_2 = 7.07106781186547524401E-1


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """coef[0] x^N + ... + coef[N], by Horner's rule."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple[float, ...]) -> float:
    """x^N + coef[0] x^(N-1) + ... + coef[N-1], by Horner's rule."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtr(a: float) -> float:
    """Cephes ndtr(a) = P(N(0, 1) <= a), operation for operation.

    ndtr calls erf only for |a/sqrt 2| < 1 and erfc only for |a/sqrt 2| >= 1,
    so their branches for the other side (and erfc's mirror for
    negative arguments, which returns 2 on underflow) never run and are
    left out.
    """
    if a != a:
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < 1.0:
        w = x * x
        return 0.5 + 0.5 * (x * _polevl(w, _T) / _p1evl(w, _U))
    w = -z * z
    if w < -_MAXLOG:
        y = 0.0
    elif z < 8.0:
        y = math.exp(w) * _polevl(z, _P) / _p1evl(z, _Q)
    else:
        y = math.exp(w) * _polevl(z, _R) / _p1evl(z, _S)
    y *= 0.5
    return 1.0 - y if x > 0.0 else y


def normal_cdf(x, mean: float = 0.0, var: float = 1.0):
    """P(N(mean, var) <= x), elementwise: a float for a scalar x, else an
    array of x's shape.

    (x - mean) / sqrt(var) goes through a pure-Python port of Cephes ndtr
    (Moshier's implementation of Cody's erf/erfc approximations), which is
    what scipy.special.ndtr runs; the result equals scipy.special.ndtr on
    the same argument bit for bit (tests/test_distances.py compares them),
    so KDE-TV does not need to import scipy.  Each element is evaluated
    with math.exp, not numpy's vectorized exp, which need not match libm
    to the last bit.  Built for the two tail masses of tv_vs_density, not
    for large arrays.
    """
    mean, var = _normal_params(mean, var)
    z = np.asarray((x - mean) / math.sqrt(var), dtype=float)
    return np.array([_ndtr(v) for v in z.ravel().tolist()]).reshape(z.shape)[()]


def normal_pdf(x, mean: float = 0.0, var: float = 1.0):
    mean, var = _normal_params(mean, var)
    return np.exp(-(x - mean) ** 2 / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


def tv_vs_density(batch, mean: float = 0.0, var: float = 1.0,
                  n_boot: int = 200, seed: int = 0) -> DistanceEstimate:
    """TV between the sample law and a normal(mean, var) target.

    Gaussian KDE with Silverman bandwidth h = 1.06 sigma N^(-1/5),
    evaluated by binned convolution on KDE_GRID_POINTS points spanning the
    data range +- 4h; the estimate is half the trapezoid integral of
    |kde - target| plus the target mass beyond the grid.  Bootstrap
    resamples the bin counts with the bandwidth held fixed; the KDE of
    each replicate is formed and integrated in turn, so only one grid of
    float temporaries is live at a time.
    """
    x = _samples(batch, MIN_SAMPLES)
    mean, var = _normal_params(mean, var)
    _at_least(n_boot, 0, "n_boot")
    n = x.size
    sigma = float(np.std(x, ddof=1))
    if sigma == 0.0:
        raise DegenerateSampleError("sample standard deviation is zero")
    h = 1.06 * sigma * n ** (-0.2)
    lo, hi = float(x.min()) - 4.0 * h, float(x.max()) + 4.0 * h
    edges = np.linspace(lo, hi, KDE_GRID_POINTS + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    dx = edges[1] - edges[0]
    counts = np.histogram(x, edges)[0]

    # clamp so the kernel never outgrows the grid (np.convolve 'same'
    # would change the output length); a kernel that wide is flat anyway
    radius = min(int(math.ceil(5.0 * h / dx)), KDE_GRID_POINTS // 2 - 1)
    offs = np.arange(-radius, radius + 1) * dx
    kernel = np.exp(-offs ** 2 / (2.0 * h * h))
    kernel /= kernel.sum()

    target = normal_pdf(centers, mean, var)
    tail = float(normal_cdf(lo, mean, var) + (1.0 - normal_cdf(hi, mean, var)))

    def stat(c: np.ndarray) -> np.ndarray:
        out = np.empty(len(c))
        for i, r in enumerate(c):
            dens = np.convolve(r, kernel, mode="same") / (n * dx)
            out[i] = np.trapezoid(np.abs(dens - target), dx=dx)
        return 0.5 * (out + tail)

    return _bootstrap(stat, [(counts, n)], n_boot, seed, 0x7D1, "tv-kde", cap=1.0)


def _cube_root_floor(n: int) -> int:
    """floor(n^(1/3)) for n >= 0, exact where the float cube root of a
    perfect cube (21^3 = 9261 gives 20.99...) falls below it."""
    k = round(n ** (1.0 / 3.0))
    while k ** 3 > n:
        k -= 1
    while (k + 1) ** 3 <= n:
        k += 1
    return k


def tv_two_samples(s1, s2, n_boot: int = 200, seed: int = 0) -> DistanceEstimate:
    """TV between two sample laws from a common histogram (Scheffe).

    The bin count is max(20, floor(min(N)^(1/3))) over the pooled range.
    Upward-biased at finite N; identical inputs give exactly 0.
    """
    x1, x2 = _samples(s1, MIN_SAMPLES), _samples(s2, MIN_SAMPLES)
    _at_least(n_boot, 0, "n_boot")
    n1, n2 = x1.size, x2.size
    pooled = _pooled_counts(x1, x2, max(TV_MIN_BINS, _cube_root_floor(min(n1, n2))))
    if pooled is None:
        return DistanceEstimate(0.0, 0.0, 0.0, "tv-hist", (n1, n2))
    c1, c2, _ = pooled

    def stat(a, b) -> np.ndarray:
        return 0.5 * np.abs(a / n1 - b / n2).sum(axis=1)

    return _bootstrap(stat, [(c1, n1), (c2, n2)], n_boot, seed, 0x7D2, "tv-hist")


def tv_multivariate(batch, cov, n_boot: int = 200, seed: int = 0) -> DistanceEstimate:
    """TV between a 2d sample law and N(0, C) on a grid of cells.

    Cells span +-4 sqrt(max C_ii) per axis; the Gaussian cell mass is
    density at the center times cell area, and mass escaping the grid is
    counted once from each side.  The L1 gap over the cells is reduced
    one bootstrap row at a time.
    """
    x = _samples(batch, MIN_SAMPLES_FINE, shape=(2,))
    n = x.shape[0]
    cov = _covariance_2x2(cov)
    _at_least(n_boot, 0, "n_boot")

    half = 4.0 * math.sqrt(float(cov.diagonal().max()))
    edges = np.linspace(-half, half, GRID2D_CELLS + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    area = (edges[1] - edges[0]) ** 2

    cinv = np.linalg.inv(cov)
    cx, cy = np.meshgrid(centers, centers, indexing="ij")
    quad = cinv[0, 0] * cx ** 2 + 2.0 * cinv[0, 1] * cx * cy + cinv[1, 1] * cy ** 2
    gauss = np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(np.linalg.det(cov)))
    gmass = gauss.ravel() * area
    gout = max(0.0, 1.0 - float(gmass.sum()))

    counts = np.histogram2d(x[:, 0], x[:, 1], bins=(edges, edges))[0].ravel()
    cells = np.append(counts, n - counts.sum())  # last slot = escaped mass

    def stat(c: np.ndarray) -> np.ndarray:
        gap = np.empty(len(c))
        for i, r in enumerate(c):
            gap[i] = np.abs(r[:-1] / n - gmass).sum()
        return 0.5 * (gap + c[:, -1] / n + gout)

    return _bootstrap(stat, [(cells, n)], n_boot, seed, 0x7D3, "tv-grid2d", cap=1.0)


def _fm_lattice(dx: float, levels: int, cells: int) -> tuple[np.ndarray, int | None]:
    """Level lattice for the chain DP, plus the window in level steps.

    The step is dx / m with integer m, so the Lipschitz bound between
    adjacent cells is exactly m lattice steps and slope-1 functions are
    representable whatever (cells, levels) the caller picked.  m is the
    smallest integer keeping the step at or below the nominal 2/(levels-1),
    so the snapping error stays bounded by roughly 2/(levels-1).

    Since both histograms carry total mass one, the objective is shift
    invariant and any feasible function can be slid down to touch -1;
    the lattice therefore only spans min(2, cells * dx), which keeps it
    small when the pooled range is tiny.
    """
    if dx >= 2.0:
        # cells wider than the whole value range: chain constraint is void
        return np.linspace(-1.0, 1.0, levels), None
    m = max(1, math.ceil(dx * (levels - 1) / 2.0 - 1e-12))
    step = dx / m
    count = int(min(2.0, dx * cells) / step + 1e-9) + 1
    return -1.0 + step * np.arange(count), m


def _dilate(a: np.ndarray, spare: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Running maximum of a over levels (axis 0) within +-width, edges
    clamped as maximum_filter1d(mode="nearest") clamps them; returns the
    result and the free buffer (a and spare, in some order).

    The reach grows 0 -> 1 -> 3 -> ... by doubling: step s combines the
    entries s levels below, at and above each level.  np.maximum returns
    its second argument on ties, and the arguments go in level order, so
    among equal maxima (+0.0 and -0.0) the highest level wins, as it does
    in maximum_filter1d.
    """
    width = min(width, a.shape[0] - 1)
    reach = 0
    while reach < width:
        s = min(reach + 1, width - reach)
        np.maximum(a[:-s], a[s:], out=spare[s:])
        spare[:s] = a[:s]
        np.maximum(spare[:-s], a[s:], out=spare[:-s])
        a, spare = spare, a
        reach += s
    return a, spare


def _fm_stat(diff: np.ndarray, lv: np.ndarray, window: int | None) -> np.ndarray:
    """Chain-constrained maximization of sum phi_j diff_j by DP over levels,
    for every row of diff at once (one value per row).

    The windowed DP runs levels-major: best is (levels, rows) and diff is
    transposed once to (cells, rows), so the running maximum over the
    window (_dilate) works on contiguous row slices.  A cell that is zero
    in every row, i.e. empty in both histograms (a bootstrap redraw never
    fills it), is skipped and its window is added to the next dilation:
    k dilations of half-width w are one of half-width k w.  Empty cells at
    the end are folded into one last dilation.

    Every value equals the cell-by-cell DP's bit for bit.  The maxima are
    exact, so only the sign of a zero could differ, and only in a row that
    is zero throughout (the point estimate of identical inputs; diff = p - q
    holds no -0.0).  For that row the last dilation, the level order of
    ties in _dilate and the final reduction over a replicate-major copy
    keep the cell-by-cell signed zero.  When the window spans the lattice
    the DP keeps its replicate-major form, because it reduces over the
    levels of each replicate after every cell.
    """
    cols = np.flatnonzero(diff.any(axis=0))
    cols = cols[cols > 0]
    if window is None or window >= lv.size - 1:
        best = lv * diff[:, :1]
        for j in cols:
            best = lv * diff[:, j:j + 1] + best.max(axis=1, keepdims=True)
        return best.max(axis=1)
    rows = np.ascontiguousarray(diff.T)
    col = lv[:, None]
    best = col * rows[0]
    spare = np.empty_like(best)
    prev = 0
    for j in cols:
        best, spare = _dilate(best, spare, (j - prev) * window)
        np.multiply(col, rows[j], out=spare)
        best += spare
        prev = j
    best, _ = _dilate(best, spare, (diff.shape[1] - 1 - prev) * window)
    return np.ascontiguousarray(best.T).max(axis=1)


def fm_two_samples(s1, s2, cells: int = 512, levels: int = 201,
                   n_boot: int = 200, seed: int = 0) -> DistanceEstimate:
    """Fortet-Mourier distance between two sample laws.

    Maximizes the mean difference of a 1-Lipschitz function bounded by 1
    over a grid of cells spanning the pooled range, with function values
    discretized to a lattice of roughly the given level count.  Returns
    the attained maximum: a lower bound of the supremum over the
    discretized class that converges as cells and levels grow.
    """
    x1, x2 = _samples(s1, MIN_SAMPLES), _samples(s2, MIN_SAMPLES)
    _at_least(cells, 1, "cells")
    _at_least(levels, 2, "levels")
    _at_least(n_boot, 0, "n_boot")
    n1, n2 = x1.size, x2.size
    pooled = _pooled_counts(x1, x2, cells)
    if pooled is None:
        return DistanceEstimate(0.0, 0.0, 0.0, "fm-dp", (n1, n2))
    c1, c2, dx = pooled
    lv, window = _fm_lattice(dx, levels, cells)

    def stat(a, b) -> np.ndarray:
        return _fm_stat(a / n1 - b / n2, lv, window)

    return _bootstrap(stat, [(c1, n1), (c2, n2)], n_boot, seed, 0x7D4, "fm-dp")


def wasserstein1(s1, s2, n_boot: int = 200, seed: int = 0) -> DistanceEstimate:
    """Exact empirical W1 between equal-size sample sets: mean sorted gap."""
    x1, x2 = _samples(s1), _samples(s2)
    if x1.size != x2.size:
        raise ValueError(f"sample sizes differ: {x1.size} vs {x2.size}")
    _at_least(n_boot, 0, "n_boot")
    n = x1.size
    a = np.sort(x1)
    b = np.sort(x2)
    point = float(np.abs(a - b).mean())
    gen = np.random.default_rng(rng.derive(seed, 0x7D5))
    boots = np.empty(n_boot)
    for i in range(n_boot):
        ra = gen.choice(a, size=n, replace=True)
        rb = gen.choice(b, size=n, replace=True)
        ra.sort()
        rb.sort()
        np.subtract(ra, rb, out=ra)
        boots[i] = np.abs(ra, out=ra).mean()
    return _finish(point, boots, "w1-sorted", (n, n))


def small_ball(batch, alpha: float) -> DistanceEstimate:
    """P(|value| <= alpha) with an exact Clopper-Pearson 95% interval."""
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    from scipy.special import betaincinv

    x = _samples(batch, MIN_SAMPLES_FINE)
    n = x.size
    k = int(np.count_nonzero(np.abs(x) <= alpha))
    p = k / n
    lo = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, 0.025))
    hi = 1.0 if k == n else float(betaincinv(k + 1, n - k, 0.975))
    return DistanceEstimate(p, lo, hi, "smallball", (n,))
