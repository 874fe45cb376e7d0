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
another, then stacked under the observed counts and evaluated as one
array, so each statistic runs once per call (row 0 is the point
estimate) and the chain DP sweeps all replicates together.

scipy is imported inside the three functions that use it (normal_cdf,
the FM chain DP and small_ball), so importing chaoslab and running its
exact computations never load it; that import is about half of a short
exact command's start-up time and memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .chaos import SampleBatch

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


def _samples(batch, minimum: int = 1, shape: tuple[int, ...] = ()) -> np.ndarray:
    """The values of a SampleBatch or array: at least minimum rows of the
    given shape (() for scalars, (d,) in dimension d), all finite; the
    first value that is not is named by its sample (/coordinate) index."""
    x = np.asarray(batch.values if isinstance(batch, SampleBatch) else batch, dtype=float)
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
    seeded by (seed, label).  The draws are made replicate by replicate,
    then each argument's rows (observed counts first) are stacked into one
    (n_boot + 1, cells) array and stat is called once on them; it returns
    one value per row.  A cap clamps the value and both CI ends.
    """
    gen = np.random.default_rng(rng.derive(seed, label))
    probs = [(n, c / n) for c, n in samples]
    rows = [[c] for c, _ in samples]
    for _ in range(n_boot):
        for arg, (n, p) in zip(rows, probs):
            arg.append(gen.multinomial(n, p))
    vals = stat(*map(np.stack, rows))
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


def normal_cdf(x, mean: float = 0.0, var: float = 1.0):
    from scipy.special import ndtr

    return ndtr((x - mean) / math.sqrt(var))


def normal_pdf(x, mean: float = 0.0, var: float = 1.0):
    return np.exp(-(x - mean) ** 2 / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


def tv_vs_density(batch, mean: float = 0.0, var: float = 1.0,
                  n_boot: int = 200, seed: int = 0) -> DistanceEstimate:
    """TV between the sample law and a normal(mean, var) target.

    Gaussian KDE with Silverman bandwidth h = 1.06 sigma N^(-1/5),
    evaluated by binned convolution on KDE_GRID_POINTS points spanning the
    data range +- 4h; the estimate is half the trapezoid integral of
    |kde - target| plus the target mass beyond the grid.  Bootstrap
    resamples the bin counts with the bandwidth held fixed.
    """
    x = _samples(batch, MIN_SAMPLES)
    if not math.isfinite(mean):
        raise ValueError(f"target mean must be finite, got {mean}")
    if not (math.isfinite(var) and var > 0.0):
        raise ValueError(f"target var must be a finite positive number, got {var}")
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
        dens = np.array([np.convolve(r, kernel, mode="same") for r in c]) / (n * dx)
        return 0.5 * (np.trapezoid(np.abs(dens - target), dx=dx, axis=1) + tail)

    return _bootstrap(stat, [(counts, n)], n_boot, seed, 0x7D1, "tv-kde", cap=1.0)


def tv_two_samples(s1, s2, n_boot: int = 200, seed: int = 0) -> DistanceEstimate:
    """TV between two sample laws from a common histogram (Scheffe).

    The bin count is max(20, floor(min(N)^(1/3))) over the pooled range.
    Upward-biased at finite N; identical inputs give exactly 0.
    """
    x1, x2 = _samples(s1, MIN_SAMPLES), _samples(s2, MIN_SAMPLES)
    n1, n2 = x1.size, x2.size
    pooled = _pooled_counts(x1, x2, max(TV_MIN_BINS, int(min(n1, n2) ** (1.0 / 3.0))))
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
    counted once from each side.
    """
    x = _samples(batch, MIN_SAMPLES_FINE, shape=(2,))
    n = x.shape[0]
    cov = _covariance_2x2(cov)

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
        emp = c[:, :-1] / n
        return 0.5 * (np.abs(emp - gmass).sum(axis=1) + c[:, -1] / n + gout)

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


def _fm_stat(diff: np.ndarray, lv: np.ndarray, window: int | None) -> np.ndarray:
    """Chain-constrained maximization of sum phi_j diff_j by DP over levels,
    for every row of diff at once (one value per row)."""
    from scipy.ndimage import maximum_filter1d

    best = lv * diff[:, :1]
    if window is None or window >= lv.size - 1:
        for j in range(1, diff.shape[1]):
            best = lv * diff[:, j:j + 1] + best.max(axis=1, keepdims=True)
    else:
        size = 2 * window + 1
        for j in range(1, diff.shape[1]):
            best = lv * diff[:, j:j + 1] + maximum_filter1d(best, size=size, axis=1,
                                                            mode="nearest")
    return best.max(axis=1)


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
    n = x1.size
    a = np.sort(x1)
    b = np.sort(x2)
    point = float(np.abs(a - b).mean())
    gen = np.random.default_rng(rng.derive(seed, 0x7D5))
    boots = np.empty(n_boot)
    for i in range(n_boot):
        ra = np.sort(gen.choice(a, size=n, replace=True))
        rb = np.sort(gen.choice(b, size=n, replace=True))
        boots[i] = np.abs(ra - rb).mean()
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
