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
these statistics, and much cheaper.  One multinomial call draws every
replicate of every argument, plus one spare row that the observed counts
(the point estimate) overwrite, and each statistic is called once on
those rows: the histogram TV and the chain DP are vectorized over the
replicates (their arrays are small), while the KDE and 2d-grid
statistics reduce row by row and build no (replicates, grid) float
temporary.  The FM chain DP returns +0.0 for every zero value.  W1
resamples sorted sets at sorted indices, gathered with np.take into two
buffers that every replicate reuses.

Only small_ball uses scipy (betaincinv, for the Clopper-Pearson
interval), and imports it inside the function, so importing chaoslab,
its exact computations and every other estimator never load it; that
import is about half of a short exact command's start-up time and
memory.  normal_cdf, which tv_vs_density needs for the target's tail
mass, takes the standard library's math.erfc.
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

    samples holds one (counts, n) pair per argument of stat, all with the
    same number of cells.  One multinomial call, seeded by (seed, label),
    draws an int64 (n_boot + 1, arguments, cells) array; C order draws
    replicate i's arguments in turn, which is the stream of a loop over
    replicates and arguments.  The last row is a spare draw, overwritten
    with the observed counts (the point estimate), so rows 0 .. n_boot - 1
    are the replicates and nothing is joined or copied.  stat is called
    once, on one (n_boot + 1, cells) view per argument, and returns one
    value per row.  A cap clamps the value and both CI ends.
    """
    gen = np.random.default_rng(rng.derive(seed, label))
    counts = np.array([c for c, _ in samples], dtype=np.int64)
    ns = np.array([n for _, n in samples])
    rows = gen.multinomial(ns, counts / ns[:, None], size=(n_boot + 1, len(samples)))
    rows[-1] = counts
    vals = stat(*rows.transpose(1, 0, 2))
    return _finish(vals[-1], vals[:-1], method, tuple(n for _, n in samples), cap)


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


_SQRT1_2 = 7.07106781186547524401E-1


def normal_cdf(x, mean: float = 0.0, var: float = 1.0):
    """P(N(mean, var) <= x), elementwise: a float for a scalar x, else an
    array of x's shape.

    0.5 erfc(-z / sqrt 2) at z = (x - mean) / sqrt(var), each element by
    math.erfc, so KDE-TV does not need to import scipy.  It agrees with
    scipy.special.ndtr to a relative 1e-13 wherever ndtr is a normal double
    (tests/test_distances.py measures it), but not bit for bit.  Built for
    the two tail masses of tv_vs_density, not for large arrays.
    """
    mean, var = _normal_params(mean, var)
    z = np.asarray((x - mean) / math.sqrt(var), dtype=float)
    return np.array([0.5 * math.erfc(-v * _SQRT1_2)
                     for v in z.ravel().tolist()]).reshape(z.shape)[()]


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
    perfect cube (21^3 = 9261 gives 20.99...) falls below it: the rounded
    float root is the floor or one above it, and one check decides."""
    k = round(n ** (1.0 / 3.0))
    return k - (k ** 3 > n)


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


def _fm_lattice(dx: float, levels: int, cells: int) -> tuple[np.ndarray, int]:
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
        # cells wider than the whole value range: chain constraint is void,
        # and a window of levels - 1 spans the lattice
        return np.linspace(-1.0, 1.0, levels), levels - 1
    m = max(1, math.ceil(dx * (levels - 1) / 2.0 - 1e-12))
    step = dx / m
    count = int(min(2.0, dx * cells) / step + 1e-9) + 1
    return -1.0 + step * np.arange(count), m


def _dilate(a: np.ndarray, spare: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Running maximum of a over levels (axis 0) within +-width, edges
    clamped as maximum_filter1d(mode="nearest") clamps them; returns the
    result and the free buffer (a and spare, in some order).

    One-sided first: g[l] = max(a[l .. l + reach]) grows its reach
    0 -> 1 -> 3 -> ... -> width by doubling, one np.maximum per step
    (the top rows, whose reach already ends at the last level, are
    copied).  One two-sided pass then takes max(g[max(l - width, 0)],
    g[l]).  That is ceil(log2(width + 1)) + 1 passes.  np.maximum returns
    its second argument on ties, and the higher levels always go second,
    so among equal maxima (+0.0 and -0.0) the highest level wins, as it
    does in maximum_filter1d; _fm_stat reads every zero as +0.0, so the
    FM value does not depend on that order.
    """
    width = min(width, a.shape[0] - 1)
    if width <= 0:
        return a, spare
    reach = 0
    while reach < width:
        s = min(reach + 1, width - reach)
        np.maximum(a[:-s], a[s:], out=spare[:-s])
        spare[-s:] = a[-s:]
        a, spare = spare, a
        reach += s
    np.maximum(a[0], a[:width], out=spare[:width])
    np.maximum(a[:-width], a[width:], out=spare[width:])
    return spare, a


def _fm_stat(diff: np.ndarray, lv: np.ndarray, window: int) -> np.ndarray:
    """Chain-constrained maximization of sum phi_j diff_j by DP over levels,
    for every row of diff at once (one value per row).

    The DP runs levels-major: best is (levels, rows) and diff is
    transposed once to (cells, rows), so the running maximum over the
    window (_dilate: one-sided doubling, then one two-sided pass) works
    on contiguous row slices.  Each cell's term multiplies a full
    (levels, rows) level matrix, built once, by the cell's row, which
    numpy iterates faster than a broadcast level column.  A cell that is zero
    in every row, i.e. empty in both histograms (a bootstrap redraw never
    fills it), is skipped and its window is added to the next dilation:
    k dilations of half-width w are one of half-width k w.  Empty cells at
    the end need no dilation: it keeps the maximum over all levels.  A
    window that spans the lattice (levels - 1 when dx >= 2) takes the same
    path, its dilation clamped to the lattice.

    Every nonzero value equals the cell-by-cell DP's bit for bit: the
    maxima are exact, so only the sign of a zero could differ, and only in
    a row that is zero throughout (the point estimate of identical inputs;
    diff = p - q holds no -0.0).  Every zero is returned as +0.0.
    """
    cols = np.flatnonzero(diff.any(axis=0))
    cols = cols[cols > 0]
    rows = np.ascontiguousarray(diff.T)
    lvm = np.repeat(lv[:, None], rows.shape[1], axis=1)
    best = lvm * rows[0]
    spare = np.empty_like(best)
    prev = 0
    for j in cols:
        best, spare = _dilate(best, spare, (j - prev) * window)
        np.multiply(lvm, rows[j], out=spare)
        best += spare
        prev = j
    return best.max(axis=0) + 0.0


def fm_two_samples(s1, s2, cells: int = 512, levels: int = 201,
                   n_boot: int = 200, seed: int = 0) -> DistanceEstimate:
    """Fortet-Mourier distance between two sample laws.

    Maximizes the mean difference of a 1-Lipschitz function bounded by 1
    over a grid of cells spanning the pooled range, with function values
    discretized to a lattice of roughly the given level count.  Returns
    the attained maximum: a lower bound of the supremum over the
    discretized class that converges as cells and levels grow.
    Identical inputs give exactly +0.0.
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
    """Exact empirical W1 between equal-size sample sets: mean sorted gap.

    Each bootstrap replicate resamples both sorted sets with replacement.
    Its indices are gen.integers(0, n, size=n, dtype=np.uint32), the
    stream gen.choice draws, so replicates are those of
    gen.choice(a, size=n); since a and b are sorted, gathering them at
    sorted indices gives the sorted resample.  Sorting uint32 indices is
    faster than sorting the float resample (int64 indices are slower),
    but fancy indexing a[ia] with them is numpy's slow path, so the
    gather is np.take into two n-float buffers made once; the indices
    lie in [0, n), so mode="clip" never moves one.
    """
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
    ra, rb = np.empty(n), np.empty(n)
    for i in range(n_boot):
        ia = gen.integers(0, n, size=n, dtype=np.uint32)
        ib = gen.integers(0, n, size=n, dtype=np.uint32)
        ia.sort()
        ib.sort()
        np.take(a, ia, out=ra, mode="clip")
        np.take(b, ib, out=rb, mode="clip")
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
