"""Command-line front door.

Exit codes are the machine contract: 0 when the run passes (or the bound
is vacuous), 1 when an experiment verdict is fail, 2 on usage or parse
errors and on an input too large to allocate.  Human-readable text goes
to stderr; structured results go to the report file named in the config
(or --out).

Seeds are mandatory everywhere: reproducibility is the product, so
nothing ever falls back to wall-clock entropy.  The --threads flag only
partitions sampling work and can never change a reported value.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import partial

import numpy as np

from . import io
from .chaos import (ChaosElement, basis_element, evaluate, moments, sample,
                    single_integral)
from .distances import MIN_SAMPLES, MIN_SAMPLES_FINE
from .experiments import (ExperimentReport, MultilinearSpec,
                          carbery_wright_probe, d12_rate_probe,
                          df_small_ball_probe, dm_rate,
                          fourth_moment_certificate, identity_suite,
                          moo_invariance, pair_sum_element, pair_sum_vector,
                          peccati_tudor_run, rademacher_average,
                          shigekawa_rate)
from .kernels import kernel_add

VERIFY_EXPERIMENTS = ("fourth-moment", "shigekawa", "dm", "cw", "dball",
                      "pt", "moo", "d12")


def _cfg_samples(cfg: dict, minimum: int = MIN_SAMPLES) -> int:
    n = io.field(cfg, "n_samples", int, "config")
    if n < minimum:
        raise io.SchemaError(f"config/n_samples: need at least {minimum} for distance estimation")
    return n


def _counts(cfg: dict, key: str) -> list[int]:
    """A non-empty list of positive integers: pair or coordinate counts."""
    counts = io.field(cfg, key, [int], "config", nonempty=True)
    for i, n in enumerate(counts):
        if n < 1:
            raise io.SchemaError(f"config/{key}/{i}: expected a positive integer, got {n}")
    return counts


def _from_config(cfg: dict, key: str, load, parse):
    """A kernel or chaos field: a file path, {"file": path}, or an inline object."""
    obj = io.field(cfg, key, None, "config")
    if isinstance(obj, dict) and "file" in obj:
        obj = io.field(obj, "file", str, f"config/{key}")
    if isinstance(obj, str):
        return load(obj)
    return parse(obj, where=f"config/{key}")


def _chaos_from_config(cfg: dict, key: str) -> ChaosElement:
    return _from_config(cfg, key, io.load_chaos, io.chaos_from_dict)


def _perturbation(cfg: dict) -> tuple[list[tuple[float, ChaosElement]], ChaosElement]:
    """A perturbation family from base and direction kernels and scales:
    the members (t, I(base + t direction)) and the limit I(base)."""
    base, direction = (_from_config(cfg, key, io.load_kernel, io.kernel_from_dict)
                       for key in ("base", "direction"))
    if (direction.order, direction.dim) != (base.order, base.dim):
        raise io.SchemaError(f"config/direction: order {direction.order} and dim "
                             f"{direction.dim} must match base ({base.order}, {base.dim})")
    members = [(t, single_integral(kernel_add(base, direction.scale(t))))
               for t in io.field(cfg, "scales", [float], "config", nonempty=True)]
    return members, single_integral(base)


def _pair_sums(cfg: dict) -> list[tuple[float, ChaosElement]]:
    """The pair sums with the pair counts in indices, labelled by them."""
    return [(float(n), pair_sum_element(n)) for n in _counts(cfg, "indices")]


def _member_files(cfg: dict) -> list[tuple[float, ChaosElement]]:
    """The chaos files named by members, labelled 0, 1, ..."""
    paths = io.field(cfg, "members", [str], "config", nonempty=True)
    return [(float(i), io.load_chaos(p)) for i, p in enumerate(paths)]


def _limit_from_config(cfg: dict) -> ChaosElement:
    if io.field(cfg, "limit", None, "config") == "standard-gaussian":
        return basis_element(1, 1)
    return _chaos_from_config(cfg, "limit")


def _verify_call(name: str, cfg: dict, workers: int):
    """The experiment call a config describes, with every field read and
    checked; nothing is sampled until the call is made."""
    seed = io.field(cfg, "seed", int, "config")
    if name == "fourth-moment":
        return partial(fourth_moment_certificate, io.field(cfg, "k", int, "config", default=2),
                       _pair_sums(cfg), _cfg_samples(cfg), seed, workers=workers)
    if name == "shigekawa":
        p = io.field(cfg, "p", int, "config")
        members = _pair_sums(cfg) if "indices" in cfg else _member_files(cfg)
        return partial(shigekawa_rate, p, members, _limit_from_config(cfg),
                       _cfg_samples(cfg), seed, workers=workers)
    if name == "dm":
        members, limit = _perturbation(cfg)
        return partial(dm_rate, io.field(cfg, "k", int, "config"), members, limit,
                       _cfg_samples(cfg), seed, workers=workers)
    if name == "cw":
        return partial(carbery_wright_probe, _chaos_from_config(cfg, "chaos"),
                       io.field(cfg, "alphas", [float], "config", nonempty=True),
                       _cfg_samples(cfg, MIN_SAMPLES_FINE), seed, workers=workers)
    if name == "dball":
        return partial(df_small_ball_probe, _chaos_from_config(cfg, "chaos"),
                       io.field(cfg, "lambdas", [float], "config", nonempty=True),
                       _cfg_samples(cfg, MIN_SAMPLES_FINE), seed, workers=workers)
    if name == "pt":
        cov = np.asarray(io.field(cfg, "covariance", [[float]], "config",
                                  default=[[1.0, 0.0], [0.0, 1.0]]), dtype=float)
        vectors = [(float(n), pair_sum_vector(n)) for n in _counts(cfg, "indices")]
        return partial(peccati_tudor_run, [1, 2], vectors, cov,
                       _cfg_samples(cfg, MIN_SAMPLES_FINE), seed, workers=workers)
    if name == "moo":
        specs = _moo_specs(cfg)
        return partial(moo_invariance, specs, _cfg_samples(cfg), seed, workers=workers)
    if name == "d12":
        alpha = io.field(cfg, "alpha", float, "config")
        if "base" in cfg:
            members, limit = _perturbation(cfg)
        else:
            members, limit = _member_files(cfg), _limit_from_config(cfg)
        return partial(d12_rate_probe, members, limit, alpha,
                       _cfg_samples(cfg), seed, workers=workers)
    raise io.SchemaError(f"config/experiment: unknown experiment {name!r}")


def _moo_specs(cfg: dict) -> list[MultilinearSpec]:
    if "sizes" in cfg:
        return [rademacher_average(n) for n in _counts(cfg, "sizes")]
    specs = []
    for i, raw in enumerate(io.field(cfg, "specs", [dict], "config", nonempty=True)):
        where = f"config/specs/{i}"
        coeffs = {}
        for j, ent in enumerate(io.field(raw, "coeffs", [dict], where)):
            subset = tuple(io.field(ent, "subset", [int], f"{where}/coeffs/{j}"))
            coeffs[subset] = io.field(ent, "c", float, f"{where}/coeffs/{j}")
        specs.append(MultilinearSpec(
            coeffs, law=io.field(raw, "law", str, where, default="rademacher"),
            law_values=tuple(io.field(raw, "values", [float], where, default=[])),
            law_probs=tuple(io.field(raw, "probs", [float], where, default=[]))))
    return specs


def _parse_point(text: str, dim: int) -> list[float]:
    vals = [io.value(float(p), float, f"--point/{i}")
            for i, p in enumerate(text.replace(",", " ").split())]
    if len(vals) != dim:
        raise io.SchemaError(f"point has {len(vals)} coordinates, element has dim {dim}")
    return vals


def _report_summary(rep: ExperimentReport, seconds: float) -> str:
    lines = [f"{rep.experiment}: verdict {rep.verdict} "
             f"({len(rep.rows)} rows, {seconds:.2f}s)"]
    lines += [f"  note: {n}" for n in rep.notes]
    return "\n".join(lines)


def _positive_int(text: str) -> int:
    try:
        val = int(text)
    except ValueError:
        val = 0
    if val < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return val


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaoslab",
        description="Wiener chaos laboratory: exact moments, Malliavin "
                    "operators, and Monte Carlo distance experiments.")
    parser.add_argument("--threads", type=_positive_int, default=1,
                        help="worker threads for sampling; never changes values")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a chaos file at a point")
    p_eval.add_argument("--chaos", required=True)
    p_eval.add_argument("--point", required=True,
                        help="comma-separated coordinates, e.g. '0.3,-1.2'")

    p_mom = sub.add_parser("moments", help="exact moments of a chaos file")
    p_mom.add_argument("--chaos", required=True)
    p_mom.add_argument("--max", type=int, default=4, dest="max_order")

    p_sam = sub.add_parser("sample", help="draw Monte Carlo samples to CSV")
    p_sam.add_argument("--chaos", required=True)
    p_sam.add_argument("-n", type=int, required=True, dest="count")
    p_sam.add_argument("--seed", type=int, required=True)
    p_sam.add_argument("--out", required=True)

    p_ver = sub.add_parser("verify", help="run a theorem experiment from a config")
    p_ver.add_argument("experiment", choices=VERIFY_EXPERIMENTS)
    p_ver.add_argument("--config", required=True)
    p_ver.add_argument("--out", default=None,
                       help="report path (overrides config 'output')")

    p_chk = sub.add_parser("check", help="run the exact-identity suite")
    p_chk.add_argument("what", choices=["identities"])
    p_chk.add_argument("--trials", type=int, default=100)
    p_chk.add_argument("--seed", type=int, required=True)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.command == "eval":
            fel = io.load_chaos(args.chaos)
            val = io.value(evaluate(fel, _parse_point(args.point, fel.dim)), float, "eval")
            print(f"{val:.12g}")
            return 0

        if args.command == "moments":
            fel = io.load_chaos(args.chaos)
            if args.max_order < 1:
                raise io.SchemaError("--max must be >= 1")
            # every moment is computed and checked before any is printed
            values = [io.value(val, float, f"m{m}")
                      for m, val in enumerate(moments(fel, args.max_order), 1)]
            for m, val in enumerate(values, 1):
                print(f"m{m}={val:.12g}")
            return 0

        if args.command == "sample":
            fel = io.load_chaos(args.chaos)
            values = sample(fel, args.count, args.seed, workers=args.threads)
            io.save_samples_csv(values, args.out)
            print(f"wrote {len(values)} samples to {args.out}", file=sys.stderr)
            return 0

        if args.command == "check":
            t0 = time.perf_counter()
            rep = identity_suite(args.trials, args.seed)
            print(_report_summary(rep, time.perf_counter() - t0), file=sys.stderr)
            for row in rep.rows:
                print(f"  {row['identity']}: max deviation {row['max_deviation']:.3e}",
                      file=sys.stderr)
            return 0 if rep.verdict in ("pass", "vacuous") else 1

        # verify; the whole config is read and checked before the run
        cfg = io.load_config(args.config)
        out = io.field(cfg, "output", str, "config", default=None)
        fmt = io.field(cfg, "format", str, "config", default="json")
        if fmt not in ("json", "csv"):
            raise io.SchemaError(f'config/format: expected "json" or "csv", got {fmt!r}')
        run = _verify_call(args.experiment, cfg, workers=args.threads)
        io.reject_unread(cfg, "config")
        t0 = time.perf_counter()
        rep = run()
        seconds = time.perf_counter() - t0
        out = args.out or out
        if out:
            (io.save_rows_csv if fmt == "csv" else io.save_report)(rep, out)
        else:  # a non-finite result is refused whether or not it is saved
            io.dumps(io.report_to_dict(rep), "report")
        print(_report_summary(rep, seconds), file=sys.stderr)
        return 0 if rep.verdict in ("pass", "vacuous") else 1

    except (ValueError, OSError, MemoryError) as exc:  # io.SchemaError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
