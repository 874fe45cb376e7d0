"""The four benchmark workloads: inputs generated from the seed, and the
operations that run on them.

Each workload is a list of operations that run one after another in one
process (a closed loop with one client).  An operation has an untimed
``pre`` step, a timed ``run`` step that calls chaoslab's public entry
points (``chaoslab.cli.main`` as the command line would, or a library
call as in the README quick tour) and an untimed ``post`` step that turns
the raw output into a result (see results.py) with its closed-form
checks.  Calls go through module attributes looked up at call time, so
the trace wrappers see them.

Every seed gives inputs of the same shape and size: the seed draws
coefficients, signs, label permutations and experiment seeds, never
sizes.  So the work per round does not depend on the seed.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from chaoslab import ChaosElement, chaos, cli, distances, make_kernel

from results import flatten_into, new_result

# sizes (fixed for every seed)
HIGHDIM_FM_SAMPLES = 50_000       # verify fourth-moment, pair sums 10/50/100
HIGHDIM_PT_SAMPLES = 50_000       # verify pt, pair-sum vectors 10/50/100
HIGHDIM_MOO_SAMPLES = 20_000      # verify moo, Rademacher-400 and 3-point-25
LOWDIM_SAMPLES = 50_000           # every mc-lowdim experiment
LOWDIM_W1_SAMPLES = 50_000        # library wasserstein1 sample sets
PAIR_SUM_SIZES = (250, 400)       # moments --max 4 on pair sums
DENSE_DIM = 24                    # moments --max 4 on a dense order-2 kernel
ORDER4_DIM, ORDER4_ENTRIES = 12, 150
IDENTITY_CALLS, IDENTITY_TRIALS = 2, 200  # check identities
TINY_CALLS, TINY_PAIRS = 2, 400            # library calls on tiny elements


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    post: Callable[[Any], dict]
    pre: Callable[[], None] | None = None


@dataclass
class Workload:
    name: str
    why: str
    build: Callable[[int, str], list[Op]]
    exercises: tuple[str, ...]   # traced functions that must record calls


# ---------------------------------------------------------------------------
# helpers

def _write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)
    return path


def _kernel_dict(order: int, dim: int, entries) -> dict:
    return {"order": order, "dim": dim,
            "entries": [{"idx": list(idx), "coef": float(c)}
                        for idx, c in sorted(entries.items())]}


def _chaos_dict(dim: int, kernels: dict[int, dict]) -> dict:
    return {"dim": dim, "constant": 0.0,
            "kernels": [_kernel_dict(k, dim, kernels[k]) for k in sorted(kernels)]}


def _element(dim: int, kernels: dict[int, dict], constant: float = 0.0):
    return ChaosElement(dim, constant, {k: make_kernel(k, dim, list(ents.items()))
                                        for k, ents in kernels.items()})


def _tuple_count(idx) -> int:
    """Number of ordered tuples with the multiset idx."""
    out = math.factorial(len(idx))
    for _, grp in itertools.groupby(idx):
        out //= math.factorial(len(list(grp)))
    return out


def _norm_sq(entries) -> float:
    return sum(_tuple_count(idx) * c * c for idx, c in entries.items())


def _matrix(dim: int, entries) -> np.ndarray:
    """The symmetric matrix A of an order-2 kernel: I_2(f) = X'AX - tr A."""
    a = np.zeros((dim, dim))
    for (i, j), c in entries.items():
        a[i - 1, j - 1] = a[j - 1, i - 1] = c
    return a


def _quadratic_moments(a: np.ndarray) -> list[float]:
    """E[F^m], m = 1..4, for F = X'AX - tr A, from its cumulants
    k_m = 2^(m-1) (m-1)! tr(A^m)."""
    a2 = a @ a
    k2 = 2.0 * np.trace(a2)
    k3 = 8.0 * np.trace(a2 @ a)
    k4 = 48.0 * np.trace(a2 @ a2)
    return [0.0, float(k2), float(k3), float(k4 + 3.0 * k2 * k2)]


def _add(f: dict, g: dict, t: float) -> dict:
    out = dict(f)
    for idx, c in g.items():
        out[idx] = out.get(idx, 0.0) + t * c
    return {idx: c for idx, c in out.items() if c != 0.0}


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = _stdio.StringIO(), _stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _seeds(gen: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in gen.integers(1, 2 ** 31, size=count)]


def _verify_op(name: str, experiment: str, cfg: dict, workdir: str,
               checks: Callable[[dict], list]) -> Op:
    """`chaoslab verify <experiment>`; the result is the written report."""
    cfg_path = _write_json(os.path.join(workdir, f"{name}.config.json"), cfg)
    out_path = os.path.join(workdir, f"{name}.report.json")
    argv = ["--threads", "1", "verify", experiment, "--config", cfg_path,
            "--out", out_path]

    def pre():
        if os.path.exists(out_path):
            os.unlink(out_path)

    def post(raw):
        code, _, _ = raw
        res = new_result(code)
        if os.path.exists(out_path):
            with open(out_path) as fh:
                rep = json.load(fh)
            res["verdict"] = rep["verdict"]
            flatten_into(res, {k: rep[k] for k in ("experiment", "seed", "rows", "notes")})
            res["checks"] = checks(rep)
        return res

    return Op(name, lambda: _cli(argv), post, pre)


# ---------------------------------------------------------------------------
# mc-highdim

def _moo_spec(gen: np.random.Generator, size: int, law: dict) -> dict:
    signs = gen.choice([-1.0, 1.0], size=size)
    c = 1.0 / math.sqrt(size)
    return dict(law, coeffs=[{"subset": [i + 1], "c": float(s * c)}
                             for i, s in enumerate(signs)])


def build_mc_highdim(seed: int, workdir: str) -> list[Op]:
    gen = np.random.default_rng([seed % 2 ** 64, 1])
    s_fm, s_pt, s_moo = _seeds(gen, 3)
    sizes = [10, 50, 100]

    def fm_checks(rep):
        out = []
        for row, n in zip(rep["rows"], sizes):
            out.append((f"fourth_moment[{n}]", row["fourth_moment"], 3.0 + 6.0 / n))
            out.append((f"variance[{n}]", row["variance"], 1.0))
            out.append((f"bound[{n}]", row["bound"],
                        math.sqrt(2.0 / 3.0) * math.sqrt(6.0 / n)))
        return out

    def pt_checks(rep):
        out = []
        for row, n in zip(rep["rows"], sizes):
            out.append((f"gram_gap[{n}]", row["gram_gap"], 4.0 / n))
            out.append((f"det_mean[{n}]", row["det_mean"], 2.0))
            out.append((f"cross_cov_gap[{n}]", row["cross_cov_gap"], 0.0))
            out.append((f"cov_gap[{n}]", row["cov_gap"], 0.0))
        return out

    # a symmetric 3-point law {-a, 0, a} with P(+-a) = q has variance 2 q a^2 = 1
    q = float(gen.uniform(0.2, 0.4))
    a = 1.0 / math.sqrt(2.0 * q)
    three_point = {"law": "discrete", "values": [-a, 0.0, a], "probs": [q, 1.0 - 2.0 * q, q]}
    moo_sizes = [25, 400]
    specs = [_moo_spec(gen, 25, three_point), _moo_spec(gen, 400, {"law": "rademacher"})]

    def moo_checks(rep):
        out = []
        for row, n in zip(rep["rows"], moo_sizes):
            out.append((f"max_influence[{n}]", row["max_influence"], 1.0 / n))
            out.append((f"influences_sum[{n}]", row["influences_sum"], 1.0))
        return out

    return [
        _verify_op("verify-fourth-moment", "fourth-moment",
                   {"seed": s_fm, "n_samples": HIGHDIM_FM_SAMPLES, "k": 2,
                    "indices": sizes}, workdir, fm_checks),
        _verify_op("verify-pt", "pt",
                   {"seed": s_pt, "n_samples": HIGHDIM_PT_SAMPLES, "indices": sizes},
                   workdir, pt_checks),
        _verify_op("verify-moo", "moo",
                   {"seed": s_moo, "n_samples": HIGHDIM_MOO_SAMPLES, "specs": specs},
                   workdir, moo_checks),
    ]


# ---------------------------------------------------------------------------
# mc-lowdim

def _estimate_op(name: str, call: Callable[[], Any]) -> Op:
    def post(est):
        res = new_result()
        flatten_into(res, est.to_dict())
        return res
    return Op(name, call, post)


def build_mc_lowdim(seed: int, workdir: str) -> list[Op]:
    gen = np.random.default_rng([seed % 2 ** 64, 2])
    s_shi, s_dm, s_d12, s_cw, s_db, s_w1a, s_w1b = _seeds(gen, 7)
    # criterion-9 shape: base (1,1) ~ 1/sqrt 2, direction (1,2) ~ 1/2
    f = {(1, 1): float(gen.uniform(0.9, 1.1)) / math.sqrt(2.0),
         (2, 2): float(gen.uniform(0.05, 0.15))}
    g = {(1, 2): float(gen.uniform(0.4, 0.6)) * float(gen.choice([-1.0, 1.0]))}
    h1 = {(1,): float(gen.uniform(0.5, 1.0)), (2,): float(gen.uniform(-0.5, 0.5))}
    g_norm = math.sqrt(_norm_sq(g))

    shi_scales = [0.5, 0.25, 0.125, 0.0625]
    members = [_write_json(os.path.join(workdir, f"shigekawa-member-{i}.json"),
                           _chaos_dict(2, {2: _add(f, g, t)}))
               for i, t in enumerate(shi_scales)]
    limit = _write_json(os.path.join(workdir, "shigekawa-limit.json"), _chaos_dict(2, {2: f}))

    def shi_checks(rep):
        return [(f"fourth_moment[t={t}]", row["fourth_moment"],
                 _quadratic_moments(_matrix(2, _add(f, g, t)))[3])
                for row, t in zip(rep["rows"], shi_scales)]

    dm_scales = [2.0 ** -j for j in range(1, 9)]

    def dm_checks(rep):
        return [(f"kernel_dist[t={t}]", row["kernel_dist"], t * g_norm)
                for row, t in zip(rep["rows"], dm_scales)]

    d12_scales = [0.5, 0.25, 0.125, 0.0625]

    def d12_checks(rep):
        # ||I_2(h)||_{D^{1,2}}^2 = (1 + 2) * 2! * ||h||^2 with h = t g
        return [(f"d12_norm[t={t}]", row["d12_norm"], math.sqrt(6.0) * t * g_norm)
                for row, t in zip(rep["rows"], d12_scales)]

    cw_file = _write_json(os.path.join(workdir, "cw-chaos.json"),
                          _chaos_dict(2, {1: h1, 2: f}))
    dball_file = _write_json(os.path.join(workdir, "dball-chaos.json"),
                             _chaos_dict(2, {2: _add(f, g, 0.5)}))
    kf = _kernel_dict(2, 2, f)
    kg = _kernel_dict(2, 2, g)

    w1_limit = _element(2, {2: f})
    w1_others = {"near": _element(2, {2: _add(f, g, 0.25)}), "far": _element(2, {1: h1, 2: f})}

    def w1_call(key, s):
        def run():
            a = chaos.sample(w1_others[key], LOWDIM_W1_SAMPLES, s)
            b = chaos.sample(w1_limit, LOWDIM_W1_SAMPLES, s ^ 1)
            return distances.wasserstein1(a, b, seed=s ^ 2)
        return run

    ops = [
        _verify_op("verify-shigekawa", "shigekawa",
                   {"seed": s_shi, "n_samples": LOWDIM_SAMPLES, "p": 2,
                    "members": members, "limit": limit}, workdir, shi_checks),
        _verify_op("verify-dm", "dm",
                   {"seed": s_dm, "n_samples": LOWDIM_SAMPLES, "k": 2, "base": kf,
                    "direction": kg, "scales": dm_scales}, workdir, dm_checks),
        _verify_op("verify-d12", "d12",
                   {"seed": s_d12, "n_samples": LOWDIM_SAMPLES, "alpha": 1.0,
                    "base": kf, "direction": kg, "scales": d12_scales},
                   workdir, d12_checks),
        _verify_op("verify-cw", "cw",
                   {"seed": s_cw, "n_samples": LOWDIM_SAMPLES, "chaos": cw_file,
                    "alphas": [0.5, 0.1, 0.02]}, workdir, lambda rep: []),
        _verify_op("verify-dball", "dball",
                   {"seed": s_db, "n_samples": LOWDIM_SAMPLES, "chaos": dball_file,
                    "lambdas": [0.5, 0.25, 0.125]}, workdir, lambda rep: []),
        _estimate_op("wasserstein1-near", w1_call("near", s_w1a)),
        _estimate_op("wasserstein1-far", w1_call("far", s_w1b)),
    ]
    return ops


# ---------------------------------------------------------------------------
# exact-large

def _moments_op(name: str, path: str, want: list[float]) -> Op:
    argv = ["moments", "--chaos", path, "--max", "4"]

    def post(raw):
        code, out, _ = raw
        res = new_result(code)
        got = {}
        for line in out.split():
            key, _, val = line.partition("=")
            got[key] = float(val)
        flatten_into(res, got)
        res["checks"] = [(f"m{m}", got.get(f"m{m}", math.nan), w)
                         for m, w in enumerate(want, start=1)]
        return res

    return Op(name, lambda: _cli(argv), post)


def _permuted_pair_sum(gen: np.random.Generator, n: int) -> dict:
    """n^(-1/2) sum_i s_i X_a X_b over disjoint random label pairs (a, b):
    a pair sum up to relabeling and signs, so E[F^4] = 3 + 6/n still."""
    labels = gen.permutation(2 * n) + 1
    signs = gen.choice([-1.0, 1.0], size=n)
    c = 0.5 / math.sqrt(n)
    return {tuple(sorted((int(labels[2 * i]), int(labels[2 * i + 1])))): float(s * c)
            for i, s in enumerate(signs)}


# The support of the sparse order-4 element is fixed, so every seed does
# the same contraction work; the seed permutes labels and draws values.
_ORDER4_SUPPORT = [
    idx for i, idx in enumerate(itertools.combinations_with_replacement(
        range(1, ORDER4_DIM + 1), 4)) if i % 9 == 4][:ORDER4_ENTRIES]


def build_exact_large(seed: int, workdir: str) -> list[Op]:
    gen = np.random.default_rng([seed % 2 ** 64, 3])
    ops = []
    for n in PAIR_SUM_SIZES:
        path = _write_json(os.path.join(workdir, f"pair-sum-{n}.json"),
                           _chaos_dict(2 * n, {2: _permuted_pair_sum(gen, n)}))
        ops.append(_moments_op(f"moments-pair-sum-{n}", path,
                               [0.0, 1.0, 0.0, 3.0 + 6.0 / n]))

    dense = {(i, j): float(gen.uniform(-1.0, 1.0))
             for i in range(1, DENSE_DIM + 1) for j in range(i, DENSE_DIM + 1)}
    scale = 1.0 / math.sqrt(2.0 * _norm_sq(dense))        # unit variance
    dense = {idx: c * scale for idx, c in dense.items()}
    path = _write_json(os.path.join(workdir, f"dense-{DENSE_DIM}.json"),
                       _chaos_dict(DENSE_DIM, {2: dense}))
    ops.append(_moments_op(f"moments-dense-{DENSE_DIM}", path,
                           _quadratic_moments(_matrix(DENSE_DIM, dense))))

    perm = gen.permutation(ORDER4_DIM) + 1
    order4 = {tuple(sorted(int(perm[v - 1]) for v in idx)): float(gen.uniform(-1.0, 1.0))
              for idx in _ORDER4_SUPPORT}
    element = _element(ORDER4_DIM, {4: order4})

    def square_post(prod):
        res = new_result()
        summary = {"constant": prod.constant}
        for k, ker in sorted(prod.kernels.items()):
            summary[f"order{k}"] = {"entries": len(ker.entries),
                                    "sum_sq": sum(c * c for c in ker.entries.values())}
        flatten_into(res, summary)
        # E[F^2] = 4! ||f||^2 is the constant of F^2
        res["checks"] = [("E[F^2]", prod.constant, 24.0 * _norm_sq(order4))]
        return res

    ops.append(Op("multiply-order4-square", lambda: chaos.multiply(element, element),
                  square_post))
    return ops


# ---------------------------------------------------------------------------
# exact-small

def _tiny_element(gen: random.Random, dim: int, max_order: int) -> dict[int, dict]:
    """Orders 1..max_order, at most 3 entries each, as {order: {idx: coef}}."""
    kernels = {}
    for k in range(1, max_order + 1):
        ents = {}
        for _ in range(gen.randint(1, 3)):
            idx = tuple(sorted(gen.randint(1, dim) for _ in range(k)))
            ents[idx] = gen.uniform(-1.0, 1.0)
        kernels[k] = ents
    return kernels



def _pairing(f: dict, g: dict, weight) -> float:
    """sum_k weight(k) <f_k, g_k> over the orders both carry."""
    total = 0.0
    for k in set(f) & set(g):
        total += weight(k) * sum(_tuple_count(idx) * c * g[k].get(idx, 0.0)
                                 for idx, c in f[k].items())
    return total


def _tiny_algebra_op(name: str, gen: random.Random, pairs: int) -> Op:
    """README-tour library calls on many tiny elements: multiply, carre du
    champ, the Malliavin matrix and its determinant, and exact moments."""
    items = []
    for _ in range(pairs):
        dim = gen.randint(2, 6)
        f, g = _tiny_element(gen, dim, 3), _tiny_element(gen, dim, 3)
        cf, cg = gen.uniform(-1.0, 1.0), gen.uniform(-1.0, 1.0)
        u, v = _tiny_element(gen, dim, 2), _tiny_element(gen, dim, 2)
        q = _tiny_element(gen, dim, 2)[2]
        els = [_element(dim, kers, c)
               for kers, c in ((f, cf), (g, cg), (u, 0.0), (v, 0.0), ({2: q}, 0.0))]
        items.append((dim, f, g, cf, cg, q, els))

    def run():
        out = []
        for _, _, _, _, _, _, (fe, ge, ue, ve, qe) in items:
            prod = chaos.multiply(fe, ge)
            gam = chaos.carre_du_champ(fe, ge)
            det = chaos.det_chaos(chaos.malliavin_matrix(chaos.ChaosVector((ue, ve))))
            out.append((prod.constant, gam.constant, det.constant,
                        chaos.moment(qe, 3), chaos.moment(qe, 4)))
        return out

    def post(values):
        res = new_result()
        # every value is checked below or summarized here; the summary keeps
        # the stored reference small
        cols = np.array(values).T
        flatten_into(res, {name: {"sum": float(c.sum()), "sum_sq": float(c @ c),
                                  "max_abs": float(np.abs(c).max())}
                           for name, c in zip(("E[FG]", "E<DF,DG>", "E[det]",
                                               "E[Q^3]", "E[Q^4]"), cols)})
        checks = []
        for i, ((dim, f, g, cf, cg, q, _), got) in enumerate(zip(items, values)):
            moments = _quadratic_moments(_matrix(dim, q))
            checks += [
                (f"E[FG][{i}]", got[0], cf * cg + _pairing(f, g, math.factorial)),
                (f"E<DF,DG>[{i}]", got[1], _pairing(f, g, lambda k: k * math.factorial(k))),
                (f"E[Q^3][{i}]", got[3], moments[2]),
                (f"E[Q^4][{i}]", got[4], moments[3])]
        res["checks"] = checks
        return res

    return Op(name, run, post)


def build_exact_small(seed: int, workdir: str) -> list[Op]:
    gen = np.random.default_rng([seed % 2 ** 64, 4])
    ops = []
    for i, s in enumerate(_seeds(gen, IDENTITY_CALLS)):
        argv = ["check", "identities", "--trials", str(IDENTITY_TRIALS), "--seed", str(s)]

        def post(raw):
            code, _, err = raw
            verdict = None
            devs = {}
            for line in err.splitlines():
                if ": verdict " in line:
                    verdict = line.split(": verdict ")[1].split()[0]
                elif "max deviation" in line:
                    key, _, val = line.strip().partition(": max deviation ")
                    devs[key] = float(val)
            res = new_result(code, verdict)
            flatten_into(res, devs)
            return res

        ops.append(Op(f"check-identities-{i}", (lambda a=argv: _cli(a)), post))
    tiny = random.Random(_seeds(gen, 1)[0])   # scalar draws, cheaper than numpy's
    for i in range(TINY_CALLS):
        ops.append(_tiny_algebra_op(f"tiny-algebra-{i}", tiny, TINY_PAIRS))
    return ops


# ---------------------------------------------------------------------------

_SAMPLING = ("rng.gaussians", "chaos.gaussian_matrix", "chaos.evaluate_batch",
             "chaos.sample")

WORKLOADS = {w.name: w for w in (
    Workload("mc-highdim",
             "inputs of up to 400 coordinates per sample: random-input generation "
             "and chaos evaluation dominate, on a working set far beyond L3",
             build_mc_highdim,
             _SAMPLING + ("rng.rademacher", "rng.discrete", "chaos.malliavin_matrix",
                          "chaos.det_chaos", "distances.fm_two_samples",
                          "distances.tv_vs_density", "distances.tv_multivariate",
                          "experiments.fourth_moment_certificate",
                          "experiments.peccati_tudor_run", "experiments.moo_invariance",
                          "io.save_report", "cli.main")),
    Workload("mc-lowdim",
             "dimension-2 elements: sampling is cheap and the estimator "
             "bootstraps (FM chain DP, W1 sorting, multinomial draws) dominate",
             build_mc_lowdim,
             ("distances.fm_two_samples", "distances.tv_two_samples",
              "distances.wasserstein1", "distances.small_ball", "io.load_chaos",
              "experiments.shigekawa_rate", "experiments.dm_rate",
              "experiments.d12_rate_probe", "experiments.carbery_wright_probe",
              "experiments.df_small_ball_probe", "chaos.carre_du_champ", "cli.main")),
    Workload("exact-large",
             "a few large exact products: the r=0 contraction term builds n^2 "
             "order-4 entries in Python dicts",
             build_exact_large,
             ("chaos.moment", "chaos.multiply", "kernels.sym_contract",
              "kernels.contract", "io.load_chaos", "cli.main")),
    Workload("exact-small",
             "the same exact engine in the opposite shape: thousands of tiny "
             "products and identity checks, where per-call overhead dominates",
             build_exact_small,
             ("chaos.multiply", "chaos.carre_du_champ", "chaos.moment",
              "chaos.evaluate_batch", "chaos.malliavin_matrix", "chaos.det_chaos",
              "kernels.sym_contract", "kernels.contract",
              "experiments.identity_suite", "cli.main")),
)}
