"""One runnable experiment per quantitative convergence statement.

Each experiment takes a family of chaos elements, computes everything
that has a closed form exactly through the moment engine, estimates the
statistical distances by Monte Carlo, and emits a report whose verdict
is a pure function of the stored rows.  Quantities labeled exact are
seed-independent; every estimate carries its confidence interval.

The bounds under test are of the form "there exists a constant c" with
the constant unspecified, so the gates check (a) stability of the
empirically fitted constant and (b) the exponent via a log-log slope
with explicit slack: the exponent, not the constant, is the falsifiable
content.  Bounds that exceed the trivial TV bound of 1 are reported as
vacuous rather than silently passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import rng
from .chaos import (ChaosElement, ChaosVector, OrderCapError, _element,
                    basis_element, carre_du_champ, check_ibp, constant_element,
                    covariance, det_chaos, evaluate_batch, expectation,
                    expectation_of_product, linear_combine, malliavin_matrix,
                    mderiv, moment, multiply, project, sample, single_integral,
                    variance)
from .distances import (_covariance_2x2, fm_two_samples, small_ball,
                        tv_multivariate, tv_two_samples, tv_vs_density)
from .kernels import SymmetricKernel, make_kernel

# Fixed gates: reports do not store them, so verdicts follow from rows alone.
IDENTITY_GATE = 1e-8          # identity_suite: max roundoff deviation
CONSTANT_GATE = 10.0          # carbery_wright_probe, df_small_ball_probe: max ratio
SHIGEKAWA_TV_THRESHOLD = 0.05
SHIGEKAWA_RATIO_SLACK = 0.5
SHIGEKAWA_FM_FLOOR = 0.02
DM_SLOPE_SLACK = 0.1
DM_STABILITY_FACTOR = 3.0
PT_JOINT_GATE = 0.1
D12_STABILITY_FACTOR = 3.0
D12_TRUNC = 1e-8              # carre du champ values below this are dropped
RANDOM_ELEMENT_TERMS = 3      # random_element: at most this many entries per order


@dataclass
class ExperimentReport:
    """Self-contained result holder: rows carry every number a verdict needs."""

    experiment: str
    seed: int
    rows: list[dict]
    verdict: str  # "pass" | "fail" | "vacuous"
    notes: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# canonical families

def pair_sum_kernel(n: int, offset: int = 0, dim: int | None = None) -> SymmetricKernel:
    """Order-2 kernel pairing disjoint coordinates: entries at
    (offset+2i-1, offset+2i) with weight 1/(2 sqrt n), i = 1..n.

    The integral evaluates to n^{-1/2} sum_i X_{2i-1} X_{2i} and has unit
    variance exactly; its fourth moment is 3 + 6/n.
    """
    if n < 1:
        raise ValueError("need n >= 1 pairs")
    c = 0.5 / math.sqrt(n)
    d = dim if dim is not None else offset + 2 * n
    return make_kernel(2, d, [((offset + 2 * i - 1, offset + 2 * i), c)
                              for i in range(1, n + 1)])


def pair_sum_element(n: int, offset: int = 0, dim: int | None = None) -> ChaosElement:
    return single_integral(pair_sum_kernel(n, offset, dim))


def pair_sum_vector(n: int) -> ChaosVector:
    """(X_1, pair-sum on labels >= 2): independent components, C = I_2."""
    dim = 2 * n + 1
    return ChaosVector((basis_element(dim, 1), pair_sum_element(n, offset=1, dim=dim)))


@dataclass(frozen=True)
class MultilinearSpec:
    """Multilinear polynomial sum_S c_S prod_{i in S} x_i with an input law.

    The nonempty coefficients must satisfy sum c_S^2 = 1 (unit variance
    under any centered unit-variance product law).  The law supplies iid
    coordinates with E X = 0 and E X^2 = 1: the built-in tags guarantee
    this, a custom discrete law is checked.
    """

    coeffs: Mapping[tuple[int, ...], float]
    law: str = "rademacher"
    law_values: tuple[float, ...] = ()
    law_probs: tuple[float, ...] = ()

    def __post_init__(self):
        clean: dict[tuple[int, ...], float] = {}
        for subset, c in self.coeffs.items():
            s = tuple(subset)
            if len(set(s)) != len(s) or (s and tuple(sorted(s)) != s):
                raise ValueError(f"subset {s} must be sorted distinct labels")
            if s and min(s) < 1:
                raise ValueError(f"labels must be >= 1 in {s}")
            if not math.isfinite(float(c)):
                raise ValueError(f"coefficient of {s} must be finite, got {c}")
            if float(c) != 0.0:
                clean[s] = float(c)
        object.__setattr__(self, "coeffs", clean)
        total = sum(c * c for s, c in clean.items() if s)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"nonconstant coefficients must have unit square sum, got {total}")
        if self.law == "discrete":
            v = np.asarray(self.law_values, dtype=float)
            p = np.asarray(self.law_probs, dtype=float)
            if v.size == 0 or v.size != p.size or not np.isfinite([*v, *p]).all():
                raise ValueError("discrete law needs matching, finite values and probs")
            if abs(p.sum() - 1.0) > 1e-9 or p.min() < 0:
                raise ValueError("discrete law probs must be a distribution")
            if abs(float(v @ p)) > 1e-9 or abs(float(v * v @ p) - 1.0) > 1e-9:
                raise ValueError("discrete law must have mean 0 and variance 1")
        elif self.law not in ("rademacher", "gaussian"):
            raise ValueError(f"unknown law {self.law!r}")

    @property
    def dim(self) -> int:
        return max((max(s) for s in self.coeffs if s), default=1)

    @property
    def degree(self) -> int:
        return max((len(s) for s in self.coeffs if s), default=0)

    def influences(self) -> np.ndarray:
        inf = np.zeros(self.dim)
        for s, c in self.coeffs.items():
            for i in s:
                inf[i - 1] += c * c
        return inf

    def max_influence(self) -> float:
        return float(self.influences().max())


def rademacher_average(n: int) -> MultilinearSpec:
    """(1/sqrt n) sum of the first n coordinates under the Rademacher law."""
    if n < 1:
        raise ValueError("need n >= 1 coordinates")
    c = 1.0 / math.sqrt(n)
    return MultilinearSpec({(i,): c for i in range(1, n + 1)})


def multilinear_eval(spec: MultilinearSpec, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[0])
    for s, c in spec.coeffs.items():
        if not s:
            out += c
            continue
        term = x[:, s[0] - 1] * c
        for i in s[1:]:
            term = term * x[:, i - 1]
        out += term
    return out


def multilinear_to_chaos(spec: MultilinearSpec) -> ChaosElement:
    """The same polynomial as a chaos element (valid because each variable
    enters with power <= 1, where Hermite and monomial factors agree),
    built by chaos._element like every other element from entry dicts."""
    by_order: dict[int, dict] = {}
    for s, c in spec.coeffs.items():
        if s:
            by_order.setdefault(len(s), {})[s] = c / math.factorial(len(s))
    return _element(spec.dim, spec.coeffs.get((), 0.0), by_order)


def sample_multilinear(spec: MultilinearSpec, n_samples: int, seed: int,
                       workers: int = 1) -> np.ndarray:
    """Draw n_samples evaluations of spec under iid inputs from its law,
    as an array of shape (n_samples,).

    This is chaos.sample of multilinear_to_chaos(spec) with the law's
    generator as draw: coordinate c of sample i is draw (seed, i * dim + c),
    and blocks, pieces and the worker count cannot change a value.  The
    values are multilinear_eval's on the same inputs bit for bit, except
    in the last bit (by at most 4.4e-16 where measured) in two cases:
    subsets listed with degrees interleaved or the constant not first,
    which changes the summation order, and a degree k >= 3 coefficient c
    with k! * (c / k!) != c, such as 0.123456789 at k = 3.
    """
    if spec.law == "gaussian":
        draw = None
    elif spec.law == "rademacher":
        draw = rng.rademacher
    else:
        def draw(s, first, count):
            return rng.discrete(s, first, count, spec.law_values, spec.law_probs)
    return sample(multilinear_to_chaos(spec), n_samples, seed, workers=workers, draw=draw)


# ---------------------------------------------------------------------------
# experiments

def _nonempty(items: Sequence, name: str) -> None:
    if len(items) == 0:   # not `not items`: alphas and lambdas may be arrays
        raise ValueError(f"{name} must not be empty")


def _in_chaos(k: int, fel: ChaosElement, what: str) -> None:
    if fel.constant != 0.0 or set(fel.kernels) != {k}:
        raise ValueError(f"{what} is not in chaos {k}: constant {fel.constant}, "
                         f"kernel orders {sorted(fel.kernels)}")


def _crn_tvs(members: Sequence[tuple[float, ChaosElement]], f_inf: ChaosElement,
             n_samples: int, seed: int, workers: int) -> list:
    """Two-sample TV of each member against f_inf on common random numbers:
    all are sampled at derive(seed, 0), so a member equal to the limit gives
    TV exactly zero; member pos bootstraps at derive(seed, 1000 + pos)."""
    ref = sample(f_inf, n_samples, rng.derive(seed, 0), workers=workers)
    return [tv_two_samples(sample(fel, n_samples, rng.derive(seed, 0), workers=workers),
                           ref, seed=rng.derive(seed, 1000 + pos))
            for pos, (_, fel) in enumerate(members)]


def _constants_agree(pts: Sequence[tuple[float, float]], stability_factor: float) -> bool:
    """Whether the fitted rate constants near the limit agree: every
    positive constant at the two smallest distinct positive distances lies
    within stability_factor of the others.  pts are (distance, constant);
    members at one distance (t and -t) differ only by noise, so the check
    takes distances, not points."""
    near = sorted({d for d, _ in pts if d > 0.0})[:2]
    cs = [c for d, c in pts if d in near and c > 0.0]
    return len(cs) < 2 or max(cs) <= stability_factor * min(cs)


def fourth_moment_certificate(k: int, members: Sequence[tuple[float, ChaosElement]],
                              n_samples: int, seed: int,
                              workers: int = 1) -> ExperimentReport:
    """Fourth-moment bound for normal approximation of a kth-chaos family.

    Per member, after normalizing to unit variance: the exact fourth
    moment, the bound sqrt((4k-4)/(3k)) sqrt(|E F^4 - 3|), and the
    estimated TV distance to the standard normal.  A member passes when
    the estimate is below bound + CI width + 0.02, or the bound itself
    is vacuous (>= 1).  The bound holds only inside one chaos, so a
    member with a nonzero constant or a kernel of order other than k
    raises ValueError before anything is sampled.
    """
    _nonempty(members, "members")
    if k < 2:
        raise ValueError("fourth-moment certificate needs chaos order k >= 2")
    for label, fel in members:
        if variance(fel) <= 0.0:
            raise ValueError(f"member {label} has zero variance")
        _in_chaos(k, fel, f"member {label}")
    const = math.sqrt((4.0 * k - 4.0) / (3.0 * k))
    rows = []
    for pos, (label, fel) in enumerate(members):
        var = variance(fel)
        norm = linear_combine([(1.0 / math.sqrt(var), fel)])
        m4 = moment(norm, 4)
        bound = const * math.sqrt(abs(m4 - 3.0))
        values = sample(norm, n_samples, rng.derive(seed, pos), workers=workers)
        tv = tv_vs_density(values, 0.0, 1.0, seed=rng.derive(seed, 1000 + pos))
        vacuous = bound >= 1.0
        passed = vacuous or tv.value <= bound + tv.ci_width() + 0.02
        rows.append({"index": label, "variance": var, "fourth_moment": m4,
                     "bound": bound, "tv": tv.to_dict(), "vacuous": vacuous,
                     "passed": bool(passed)})
    verdict = _all_rows_verdict(rows)
    return ExperimentReport("fourth-moment", seed, rows, verdict,
                            notes=[f"bound constant sqrt((4k-4)/(3k)) = {const:.6f} at k={k}"])


def _all_rows_verdict(rows: Sequence[dict]) -> str:
    if any(not r["passed"] for r in rows):
        return "fail"
    if all(r.get("vacuous", False) for r in rows):
        return "vacuous"
    return "pass"


def shigekawa_rate(p: int, members: Sequence[tuple[float, ChaosElement]],
                   f_inf: ChaosElement, n_samples: int, seed: int,
                   workers: int = 1) -> ExperimentReport:
    """TV vs Fortet-Mourier rate for a family in a fixed sum of chaoses.

    Per member: two-sample TV and FM distances to the limit, and the
    ratio tv / fm^(1/(2p+1)).  The gate bounds the max ratio by twice
    the median plus slack, and requires TV to drop below the threshold
    once FM does.  Exact fourth moments are reported so the uniform
    moment bound can be seen directly.  A member or limit of order above p
    is outside the theorem and raises ValueError before any sample is drawn.
    """
    _nonempty(members, "members")
    if variance(f_inf) <= 0.0:
        raise ValueError("limit element must have positive variance")
    for label, fel in members:
        if fel.max_order > p:
            raise ValueError(f"member {label} exceeds declared max order {p}")
    if f_inf.max_order > p:
        raise ValueError(f"limit of order {f_inf.max_order} exceeds declared max order {p}")
    expo = 1.0 / (2.0 * p + 1.0)
    ref = sample(f_inf, n_samples, rng.derive(seed, 0), workers=workers)
    rows = []
    for pos, (label, fel) in enumerate(members):
        values = sample(fel, n_samples, rng.derive(seed, pos + 1), workers=workers)
        tv = tv_two_samples(values, ref, seed=rng.derive(seed, 1000 + pos))
        fm = fm_two_samples(values, ref, seed=rng.derive(seed, 2000 + pos))
        ratio = tv.value / fm.value ** expo if fm.value > 0.0 else 0.0
        try:
            m4 = moment(fel, 4)
        except OrderCapError:
            m4 = None
        rows.append({"index": label, "tv": tv.to_dict(), "fm": fm.to_dict(),
                     "ratio": ratio, "fourth_moment": m4})
    verdict = _shigekawa_verdict(rows, SHIGEKAWA_TV_THRESHOLD, SHIGEKAWA_RATIO_SLACK,
                                 SHIGEKAWA_FM_FLOOR)
    notes = [f"rate exponent 1/(2p+1) = {expo:.6f} at p={p}"]
    m4s = [r["fourth_moment"] for r in rows if r["fourth_moment"] is not None]
    if m4s:
        notes.append(f"exact fourth moments bounded by {max(m4s):.6f}")
    return ExperimentReport("shigekawa", seed, rows, verdict, notes)


def _shigekawa_verdict(rows: Sequence[dict], tv_threshold: float,
                       ratio_slack: float, fm_floor: float) -> str:
    fms = [r["fm"]["value"] for r in rows]
    tvs = [r["tv"]["value"] for r in rows]
    if max(fms) <= fm_floor:
        return "vacuous" if max(tvs) <= tv_threshold else "fail"
    ratios = [r["ratio"] for r in rows]
    med = float(np.median(ratios))
    if max(ratios) > 2.0 * med + ratio_slack:
        return "fail"
    if fms[-1] <= tv_threshold and tvs[-1] > tv_threshold:
        return "fail"
    return "pass"


def dm_rate(k: int, members: Sequence[tuple[float, ChaosElement]],
            f_inf: ChaosElement, n_samples: int, seed: int,
            workers: int = 1) -> ExperimentReport:
    """Kernel-continuity rate: TV distance against kernel distance.

    Members are (t, I_k(f_t)) and the limit is I_k(f); the exact kernel
    distance is ||f_t - f|| (t ||g|| for f_t = f + t g), and TV uses
    common random numbers (_crn_tvs).  The gate checks the log-log slope
    against the exponent 1/(2k) minus slack, and that the fitted
    constants at the two smallest distinct distances agree within a factor
    (_constants_agree).  A limit or member outside chaos k raises
    ValueError before any work.
    """
    _nonempty(members, "members")
    _in_chaos(k, f_inf, "limit")
    for t, fel in members:
        _in_chaos(k, fel, f"member {t}")
    expo = 1.0 / (2.0 * k)
    gaps = [linear_combine([(1.0, fel), (-1.0, f_inf)]).kernels.get(k) for _, fel in members]
    dists = [gap.norm() if gap is not None else 0.0 for gap in gaps]
    tvs = _crn_tvs(members, f_inf, n_samples, seed, workers)
    rows = [{"t": float(t), "kernel_dist": dist, "tv": tv.to_dict(),
             "fitted_c": tv.value / dist ** expo if dist > 0.0 else 0.0}
            for (t, _), dist, tv in zip(members, dists, tvs)]
    verdict, slope = _dm_verdict(rows, expo, DM_SLOPE_SLACK, DM_STABILITY_FACTOR)
    return ExperimentReport("davydov-martynova", seed, rows, verdict,
                            notes=[f"exponent 1/(2k) = {expo:.6f} at k={k}",
                                   f"log-log slope = {slope:.4f}"])


def _dm_verdict(rows: Sequence[dict], expo: float, slope_slack: float,
                stability_factor: float) -> tuple[str, float]:
    pts = [(r["kernel_dist"], r["tv"]["value"]) for r in rows
           if r["kernel_dist"] > 0.0 and r["tv"]["value"] > 0.0]
    # a slope needs two distinct distances; members at one distance (scales
    # of equal size) leave the fit undefined, like a single point
    if len({d for d, _ in pts}) < 2:
        return "vacuous", float("nan")
    logd = np.log([p[0] for p in pts])
    logt = np.log([p[1] for p in pts])
    slope = float(np.polyfit(logd, logt, 1)[0])
    if slope < expo - slope_slack:
        return "fail", slope
    if not _constants_agree([(d, tv / d ** expo) for d, tv in pts], stability_factor):
        return "fail", slope
    return "pass", slope


def carbery_wright_probe(q_el: ChaosElement, alphas: Sequence[float],
                         n_samples: int, seed: int, workers: int = 1) -> ExperimentReport:
    """Anti-concentration of a Gaussian polynomial across thresholds.

    For each alpha: the small-ball probability and the normalized ratio
    E[Q^2]^(1/2d) P(|Q| <= alpha) / (d alpha^(1/d)), which the
    anti-concentration inequality bounds by an absolute constant.
    """
    _nonempty(alphas, "alphas")
    if q_el.is_constant():
        raise ValueError("polynomial must be nonconstant")
    alphas = [float(a) for a in alphas]
    if any(not a > 0 for a in alphas) or any(not a > b for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alphas must be positive and strictly decreasing")
    d = q_el.max_order
    m2 = moment(q_el, 2)
    values = sample(q_el, n_samples, rng.derive(seed, 0), workers=workers)
    rows = []
    for a in alphas:
        sb = small_ball(values, a)
        ratio = m2 ** (1.0 / (2.0 * d)) * sb.value / (d * a ** (1.0 / d))
        rows.append({"alpha": a, "prob": sb.to_dict(), "ratio": ratio})
    worst = max(r["ratio"] for r in rows)
    verdict = "pass" if worst <= CONSTANT_GATE else "fail"
    return ExperimentReport("carbery-wright", seed, rows, verdict,
                            notes=[f"degree {d}, exact E[Q^2] = {m2:.6f}",
                                   f"max normalized ratio {worst:.4f} (gate {CONSTANT_GATE})"])


def df_small_ball_probe(fel: ChaosElement, lambdas: Sequence[float],
                        n_samples: int, seed: int, workers: int = 1) -> ExperimentReport:
    """Small-ball behavior of the Malliavin gradient norm.

    Samples the carre du champ (the chaos expansion of ||DF||^2, a
    polynomial of degree <= 2p-2) and reports P(||DF||^2 <= lambda^2)
    against the predicted lambda^(1/(p-1)) / Var(F)^(1/(2p-2)) scale.
    First-chaos elements have constant gradient norm; their rows carry
    raw probabilities only.
    """
    _nonempty(lambdas, "lambdas")
    var = variance(fel)
    if var <= 0.0:
        raise ValueError("element must have positive variance")
    lambdas = [float(lam) for lam in lambdas]
    if any(not lam > 0 for lam in lambdas):
        raise ValueError("lambdas must be positive")
    p = fel.max_order
    grad_sq = carre_du_champ(fel, fel)
    values = sample(grad_sq, n_samples, rng.derive(seed, 0), workers=workers)
    rows = []
    for lam in lambdas:
        sb = small_ball(values, lam * lam)  # values are >= 0, so this is P(G <= lam^2)
        if p >= 2:
            scale = lam ** (1.0 / (p - 1.0)) / var ** (1.0 / (2.0 * p - 2.0))
            ratio = sb.value / scale
        else:
            ratio = None
        rows.append({"lambda": lam, "prob": sb.to_dict(), "ratio": ratio})
    ratios = [r["ratio"] for r in rows if r["ratio"] is not None]
    if ratios:
        verdict = "pass" if max(ratios) <= CONSTANT_GATE else "fail"
    else:
        verdict = "vacuous"
    return ExperimentReport("gradient-small-ball", seed, rows, verdict,
                            notes=[f"max order {p}, exact E||DF||^2 = "
                                   f"{expectation(grad_sq):.6f}"])


def peccati_tudor_run(k_list: Sequence[int],
                      vectors: Sequence[tuple[float, ChaosVector]],
                      cov: np.ndarray, n_samples: int, seed: int,
                      workers: int = 1) -> ExperimentReport:
    """Joint normal approximation of a vector of multiple integrals.

    Per index: the exact covariance matrix and its gap to the target C;
    the exact L2 gaps of the Malliavin matrix entries to sqrt(k_i k_j)
    C(i,j); the exact mean and variance of det Gamma against
    det(C) prod k_i; estimated marginal TVs and the joint 2d TV.  The
    exact gaps must shrink along the family and the final joint TV must
    beat the gate.  A target that overflows, or a vector whose component
    i has a nonzero constant or a kernel of order other than k_i, raises
    ValueError before anything is computed or sampled.
    """
    d = len(k_list)
    if d != 2:
        raise ValueError("vector experiment supports exactly d = 2")
    _nonempty(vectors, "vectors")
    cov = _covariance_2x2(cov)
    gamma_target = float(np.linalg.det(cov)) * math.prod(k_list)
    if not math.isfinite(gamma_target):
        raise ValueError(f"det Gamma target det(C) prod k_i = {gamma_target} is not finite")
    for label, vec in vectors:
        if len(vec) != d:
            raise ValueError(f"vector at {label} has {len(vec)} components, expected {d}")
        for i, (k, comp) in enumerate(zip(k_list, vec.components)):
            _in_chaos(k, comp, f"component {i} at {label}")
    rows = []
    for pos, (label, vec) in enumerate(vectors):
        comps = vec.components
        covmat = [[expectation_of_product(comps[i], comps[j]) for j in range(d)]
                  for i in range(d)]
        cov_gap = max(abs(covmat[i][j] - cov[i, j]) for i in range(d) for j in range(d))
        cross_gap = max((abs(covmat[i][j] - cov[i, j])
                         for i in range(d) for j in range(d) if i != j), default=0.0)
        gam = malliavin_matrix(vec)
        gram_gap = 0.0
        for i in range(d):
            for j in range(d):
                target = math.sqrt(k_list[i] * k_list[j]) * cov[i, j]
                diff = linear_combine([(1.0, gam[i][j]),
                                       (1.0, constant_element(vec.dim, -target))])
                gram_gap = max(gram_gap, moment(diff, 2))
        det_el = det_chaos(gam)
        det_mean = expectation(det_el)
        det_var = variance(det_el)
        values = sample(vec, n_samples, rng.derive(seed, pos), workers=workers)
        marg = [tv_vs_density(values[:, i], 0.0, float(cov[i, i]),
                              seed=rng.derive(seed, 1000 + 10 * pos + i))
                for i in range(d)]
        joint = tv_multivariate(values, cov, seed=rng.derive(seed, 2000 + pos))
        rows.append({"index": label, "cov_gap": cov_gap, "cross_cov_gap": cross_gap,
                     "det_mean": det_mean, "det_var": det_var,
                     "gram_gap": gram_gap,
                     "marginal_tv": [m.to_dict() for m in marg],
                     "joint_tv": joint.to_dict()})
    verdict = _peccati_tudor_verdict(rows, gamma_target, PT_JOINT_GATE)
    return ExperimentReport("peccati-tudor", seed, rows, verdict,
                            notes=[f"det Gamma target = {gamma_target:.6f}"])


def _peccati_tudor_verdict(rows: Sequence[dict], gamma_target: float,
                           joint_gate: float) -> str:
    tol = 1e-12
    def nonincreasing(xs):
        return all(b <= a + tol for a, b in zip(xs, xs[1:]))
    if not nonincreasing([r["cov_gap"] for r in rows]):
        return "fail"
    if not nonincreasing([r["gram_gap"] for r in rows]):
        return "fail"
    if not nonincreasing([abs(r["det_mean"] - gamma_target) for r in rows]):
        return "fail"
    if not nonincreasing([r["det_var"] for r in rows]):
        return "fail"
    return "pass" if rows[-1]["joint_tv"]["value"] <= joint_gate else "fail"


def moo_invariance(specs: Sequence[MultilinearSpec], n_samples: int, seed: int,
                   fm_gate: float = 0.05, workers: int = 1) -> ExperimentReport:
    """Invariance principle for multilinear polynomials with low influences.

    For each spec the polynomial is sampled under its declared law and
    under iid Gaussians (the same multilinear form: powers are all one,
    so Hermite and monomial evaluation coincide), and the Fortet-Mourier
    distance between the two laws is estimated.  The distance must be
    nonincreasing as the maximal influence shrinks, and beat the gate at
    the lowest-influence member.
    """
    _nonempty(specs, "specs")
    rows = []
    for pos, spec in enumerate(specs):
        xs = sample_multilinear(spec, n_samples, rng.derive(seed, 2 * pos), workers=workers)
        gs = sample(multilinear_to_chaos(spec), n_samples, rng.derive(seed, 2 * pos + 1),
                    workers=workers)
        fm = fm_two_samples(xs, gs, seed=rng.derive(seed, 1000 + pos))
        rows.append({"dim": spec.dim, "degree": spec.degree,
                     "max_influence": spec.max_influence(),
                     "influences_sum": float(spec.influences().sum()),
                     "fm": fm.to_dict()})
    verdict = _moo_verdict(rows, fm_gate)
    return ExperimentReport("moo-invariance", seed, rows, verdict)


def _moo_verdict(rows: Sequence[dict], fm_gate: float) -> str:
    order = sorted(range(len(rows)), key=lambda i: -rows[i]["max_influence"])
    fms = [rows[i]["fm"]["value"] for i in order]
    if any(b > a + 1e-12 for a, b in zip(fms, fms[1:])):
        return "fail"
    return "pass" if fms[-1] <= fm_gate else "fail"


def d12_rate_probe(members: Sequence[tuple[float, ChaosElement]],
                   f_inf: ChaosElement, alpha: float, n_samples: int,
                   seed: int, workers: int = 1) -> ExperimentReport:
    """TV rate against the D^{1,2} norm of the gap.

    The squared norm E[(F_n - F_inf)^2] + E||D(F_n - F_inf)||^2 is exact;
    the negative moment E||DF_inf||^(-alpha) is estimated by sampling the
    carre du champ, with values below the truncation floor dropped and
    the dropped mass reported (the estimate is flagged unreliable above
    1e-4).  The TVs use common random numbers (_crn_tvs), so identical
    members give exactly zero.  Every exact quantity, and so every cap
    check, comes before the first sample is drawn.  A limit with
    E||DF_inf||^2 = 0 (a constant) is outside the rate's hypothesis, whose
    negative moment is then infinite, and raises ValueError.
    """
    _nonempty(members, "members")
    if not (0.0 < alpha <= 2.0):
        raise ValueError("alpha must lie in (0, 2]")
    expo = alpha / (alpha + 2.0)
    grad_sq = carre_du_champ(f_inf, f_inf)
    if not expectation(grad_sq) > 0.0:
        raise ValueError("limit has E||DF_inf||^2 = 0: the D^{1,2} rate needs a "
                         "nonconstant limit")
    diffs = [linear_combine([(1.0, fel), (-1.0, f_inf)]) for _, fel in members]
    dnorms = [math.sqrt(max(moment(d, 2) + expectation(carre_du_champ(d, d)), 0.0))
              for d in diffs]
    gvals = sample(grad_sq, n_samples, rng.derive(seed, 1), workers=workers)
    kept = gvals[gvals >= D12_TRUNC]
    trunc_mass = 1.0 - kept.size / gvals.size
    neg_moment = float(np.mean(kept ** (-alpha / 2.0))) if kept.size else float("inf")
    tvs = _crn_tvs(members, f_inf, n_samples, seed, workers)
    rows = [{"index": label, "d12_norm": dnorm, "tv": tv.to_dict(),
             "fitted_c": tv.value / dnorm ** expo if dnorm > 0.0 else 0.0}
            for (label, _), dnorm, tv in zip(members, dnorms, tvs)]
    verdict = _d12_verdict(rows, D12_STABILITY_FACTOR)
    notes = [f"exponent alpha/(alpha+2) = {expo:.6f} at alpha={alpha}",
             f"E||DF_inf||^-alpha estimate {neg_moment:.6f}, truncated mass {trunc_mass:.2e}"]
    if trunc_mass > 1e-4:
        notes.append("negative-moment estimate unreliable: truncated mass exceeds 1e-4")
    return ExperimentReport("d12-rate", seed, rows, verdict, notes)


def _d12_verdict(rows: Sequence[dict], stability_factor: float) -> str:
    live = [(r["d12_norm"], r["fitted_c"]) for r in rows if r["d12_norm"] > 0.0]
    if not live:
        zero_ok = all(r["tv"]["value"] == 0.0 for r in rows)
        return "pass" if zero_ok else "fail"
    if len(live) < 2:
        return "vacuous"
    return "pass" if _constants_agree(live, stability_factor) else "fail"


# ---------------------------------------------------------------------------
# identity suite

def random_element(gen: np.random.Generator, dim: int, max_order: int,
                   with_constant: bool = True) -> ChaosElement:
    """A random sparse element for identity checks (orders 1..max_order)."""
    kernels = {}
    for k in range(1, max_order + 1):
        raw = []
        for _ in range(int(gen.integers(1, RANDOM_ELEMENT_TERMS + 1))):
            idx = tuple(sorted(gen.integers(1, dim + 1, size=k).tolist()))
            raw.append((idx, float(gen.uniform(-1.0, 1.0))))
        if gen.random() < 0.8:
            kernels[k] = make_kernel(k, dim, raw)
    const = float(gen.uniform(-1.0, 1.0)) if with_constant else 0.0
    return ChaosElement(dim, const, kernels)


def _coeff_gap(a: ChaosElement, b: ChaosElement) -> float:
    diff = linear_combine([(1.0, a), (-1.0, b)])
    worst = abs(diff.constant)
    for ker in diff.kernels.values():
        for c in ker.entries.values():
            worst = max(worst, abs(c))
    return worst


def identity_suite(trials: int, seed: int) -> ExperimentReport:
    """Exact algebraic identities on random sparse elements.

    Bundles the pointwise product law, the two routes to the carre du
    champ, integration by parts (including the H = 1 duality form),
    the Poincare inequality, fourth-moment hypercontractivity for single
    chaoses, and cross-order orthogonality.  All hold exactly; deviations
    are roundoff.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    gen = np.random.default_rng(rng.derive(seed, 0xA11))
    dev = {"product_law": 0.0, "carre_two_routes": 0.0, "ibp": 0.0,
           "delta_d_duality": 0.0, "poincare": 0.0, "hypercontractivity": 0.0,
           "orthogonality": 0.0}
    for _ in range(trials):
        dim = int(gen.integers(2, 7))
        f = random_element(gen, dim, 3)
        g = random_element(gen, dim, 3)

        prod = multiply(f, g)
        pts = gen.normal(size=(5, dim))
        lhs = evaluate_batch(prod, pts)
        rhs = evaluate_batch(f, pts) * evaluate_batch(g, pts)
        dev["product_law"] = max(dev["product_law"],
                                 float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs)))))

        direct = carre_du_champ(f, g)
        coord = linear_combine([(1.0, multiply(mderiv(f, i), mderiv(g, i)))
                                for i in range(1, dim + 1)])
        dev["carre_two_routes"] = max(dev["carre_two_routes"], _coeff_gap(direct, coord))

        f2 = random_element(gen, dim, 2)
        g2 = random_element(gen, dim, 2)
        h2 = random_element(gen, dim, 2)
        lhs_i, rhs_i = check_ibp(f2, g2, h2)
        dev["ibp"] = max(dev["ibp"], abs(lhs_i - rhs_i) / (1.0 + abs(lhs_i)))
        lhs_d, rhs_d = check_ibp(f2, g2, constant_element(dim, 1.0))
        dev["delta_d_duality"] = max(dev["delta_d_duality"],
                                     abs(lhs_d - rhs_d) / (1.0 + abs(lhs_d)))

        dev["poincare"] = max(dev["poincare"],
                              max(0.0, variance(f) - expectation(carre_du_champ(f, f))))

        k = int(gen.integers(1, 3))
        ker = random_element(gen, dim, k, with_constant=False).kernels.get(k)
        if ker is not None:
            single = single_integral(ker)
            viol = moment(single, 4) - 3.0 ** (2 * k) * moment(single, 2) ** 2
            dev["hypercontractivity"] = max(dev["hypercontractivity"], max(0.0, viol))

        for k1 in range(0, 4):
            for k2 in range(0, 4):
                if k1 != k2:
                    c = covariance(project(f, k1), project(g, k2))
                    dev["orthogonality"] = max(dev["orthogonality"], abs(c))

    rows = [{"identity": name, "max_deviation": d, "passed": bool(d <= IDENTITY_GATE)}
            for name, d in dev.items()]
    verdict = _all_rows_verdict(rows)
    return ExperimentReport("identities", seed, rows, verdict,
                            notes=[f"{trials} random trials, gate {IDENTITY_GATE}"])
