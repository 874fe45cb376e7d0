"""Command-line front door.

Exit codes are the machine contract: 0 when the run passes (or the bound
is vacuous), 1 when an experiment verdict is fail, 2 on usage or parse
errors.  Human-readable text goes to stderr; structured results go to
the report file named in the config (or --out).

Seeds are mandatory everywhere: reproducibility is the product, so
nothing ever falls back to wall-clock entropy.  The --threads flag only
partitions sampling work and can never change a reported value.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import io
from .chaos import (ChaosElement, basis_element, evaluate, moment, sample,
                    single_integral)
from .experiments import (ExperimentReport, MultilinearSpec, SequenceSpec,
                          carbery_wright_probe, d12_rate_probe,
                          df_small_ball_probe, dm_rate,
                          fourth_moment_certificate, identity_suite,
                          moo_invariance, pair_sum_vector, peccati_tudor_run,
                          rademacher_average, shigekawa_rate)

VERIFY_EXPERIMENTS = ("fourth-moment", "shigekawa", "dm", "cw", "dball",
                      "pt", "moo", "d12")


class ConfigError(ValueError):
    pass


_NUMBER = (int, float)
_REQUIRED = object()


def _check(val, kind, where: str):
    """val, after checking that it is a kind; a bool is never a number, and
    a number is finite (json reads NaN, Infinity and 1e400 as non-finite)."""
    if kind is not None and (isinstance(val, bool) or not isinstance(val, kind)):
        raise ConfigError(f"{where}: expected {getattr(kind, '__name__', 'a number')}")
    if kind is _NUMBER and not abs(val) <= sys.float_info.max:  # also an int past it
        raise ConfigError(f"{where}: expected a finite number, got {val!r}")
    return val


def _cfg(cfg: dict, key: str, kind=None, where: str = "config", default=_REQUIRED):
    """The field key of cfg, checked to be a kind; default if it is absent
    and a default is given."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where}: expected an object")
    if key not in cfg:
        if default is not _REQUIRED:
            return default
        raise ConfigError(f"{where}/{key}: missing required field")
    return _check(cfg[key], kind, f"{where}/{key}")


def _entries(vals, kind, where: str) -> list:
    """vals, after checking that it is a list whose every entry is a kind."""
    return [_check(v, kind, f"{where}/{i}") for i, v in enumerate(_check(vals, list, where))]


def _cfg_list(cfg: dict, key: str, kind, where: str = "config",
              default=_REQUIRED) -> list:
    """A list field whose every entry is a kind."""
    return _entries(_cfg(cfg, key, None, where, default), kind, f"{where}/{key}")


def _cfg_samples(cfg: dict, minimum: int = 1000) -> int:
    n = _cfg(cfg, "n_samples", int)
    if n < minimum:
        raise ConfigError(f"config/n_samples: need at least {minimum} for distance estimation")
    return n


def _from_config(cfg: dict, key: str, load, parse):
    """A kernel or chaos field: a file path, {"file": path}, or an inline object."""
    obj = _cfg(cfg, key)
    if isinstance(obj, dict) and "file" in obj:
        obj = _cfg(obj, "file", str, f"config/{key}")
    if isinstance(obj, str):
        return load(obj)
    return parse(obj, where=f"config/{key}")


def _chaos_from_config(cfg: dict, key: str) -> ChaosElement:
    return _from_config(cfg, key, io.load_chaos, io.chaos_from_dict)


def _spec_from_config(cfg: dict, family: str) -> SequenceSpec:
    """The member family of a config: pair-sum indices, a base + scale *
    direction perturbation, or chaos files named by members."""
    if family == "pair-sum":
        return SequenceSpec(family, indices=tuple(_cfg_list(cfg, "indices", int)))
    if family == "custom-files":
        return SequenceSpec(family, paths=tuple(_cfg_list(cfg, "members", str)))
    base, direction = (_from_config(cfg, key, io.load_kernel, io.kernel_from_dict)
                       for key in ("base", "direction"))
    if (direction.order, direction.dim) != (base.order, base.dim):
        raise ConfigError(f"config/direction: order {direction.order} and dim "
                          f"{direction.dim} must match base ({base.order}, {base.dim})")
    return SequenceSpec(family, base=base, direction=direction,
                        scales=tuple(float(t) for t in _cfg_list(cfg, "scales", _NUMBER)))


def _limit_from_config(cfg: dict) -> ChaosElement:
    if _cfg(cfg, "limit") == "standard-gaussian":
        return basis_element(1, 1)
    return _chaos_from_config(cfg, "limit")


def _run_verify(name: str, cfg: dict, workers: int) -> ExperimentReport:
    seed = _cfg(cfg, "seed", int)
    if name == "fourth-moment":
        return fourth_moment_certificate(_cfg(cfg, "k", int, default=2),
                                         _spec_from_config(cfg, "pair-sum"),
                                         _cfg_samples(cfg), seed, workers=workers)
    if name == "shigekawa":
        spec = _spec_from_config(cfg, "pair-sum" if "indices" in cfg else "custom-files")
        return shigekawa_rate(_cfg(cfg, "p", int), spec.build(),
                              _limit_from_config(cfg), _cfg_samples(cfg), seed,
                              workers=workers)
    if name == "dm":
        spec = _spec_from_config(cfg, "perturbation")
        return dm_rate(_cfg(cfg, "k", int), spec.base,
                       [(t, spec.direction) for t in spec.scales],
                       _cfg_samples(cfg), seed, workers=workers)
    if name == "cw":
        return carbery_wright_probe(_chaos_from_config(cfg, "chaos"),
                                    [float(a) for a in _cfg_list(cfg, "alphas", _NUMBER)],
                                    _cfg_samples(cfg, 10_000), seed, workers=workers)
    if name == "dball":
        return df_small_ball_probe(_chaos_from_config(cfg, "chaos"),
                                   [float(v) for v in _cfg_list(cfg, "lambdas", _NUMBER)],
                                   _cfg_samples(cfg, 10_000), seed, workers=workers)
    if name == "pt":
        rows = _cfg_list(cfg, "covariance", list, default=[[1.0, 0.0], [0.0, 1.0]])
        cov = np.asarray([_entries(row, _NUMBER, f"config/covariance/{i}")
                          for i, row in enumerate(rows)], dtype=float)
        vectors = [(float(n), pair_sum_vector(n)) for n in _cfg_list(cfg, "indices", int)]
        return peccati_tudor_run([1, 2], vectors, cov, _cfg_samples(cfg, 10_000),
                                 seed, workers=workers)
    if name == "moo":
        specs = _moo_specs(cfg)
        return moo_invariance(specs, _cfg_samples(cfg), seed, workers=workers)
    if name == "d12":
        alpha = float(_cfg(cfg, "alpha", _NUMBER))
        if "base" in cfg:
            # perturbation family: members I(base + t direction), limit I(base)
            spec = _spec_from_config(cfg, "perturbation")
            limit = single_integral(spec.base)
        else:
            spec = _spec_from_config(cfg, "custom-files")
            limit = _limit_from_config(cfg)
        return d12_rate_probe(spec.build(), limit, alpha,
                              _cfg_samples(cfg), seed, workers=workers)
    raise ConfigError(f"config/experiment: unknown experiment {name!r}")


def _moo_specs(cfg: dict) -> list[MultilinearSpec]:
    if "sizes" in cfg:
        return [rademacher_average(n) for n in _cfg_list(cfg, "sizes", int)]
    specs = []
    for i, raw in enumerate(_cfg(cfg, "specs", list)):
        where = f"config/specs/{i}"
        coeffs = {}
        for j, ent in enumerate(_cfg(raw, "coeffs", list, where)):
            subset = tuple(_cfg_list(ent, "subset", int, f"{where}/coeffs/{j}"))
            coeffs[subset] = float(_cfg(ent, "c", _NUMBER, f"{where}/coeffs/{j}"))
        specs.append(MultilinearSpec(
            coeffs, law=raw.get("law", "rademacher"),
            law_values=tuple(_cfg_list(raw, "values", _NUMBER, where, default=[])),
            law_probs=tuple(_cfg_list(raw, "probs", _NUMBER, where, default=[]))))
    return specs


def _parse_point(text: str, dim: int) -> list[float]:
    parts = [p for p in text.replace(",", " ").split() if p]
    vals = [float(p) for p in parts]
    if len(vals) != dim:
        raise ConfigError(f"point has {len(vals)} coordinates, element has dim {dim}")
    return vals


def _report_summary(rep: ExperimentReport) -> str:
    lines = [f"{rep.experiment}: verdict {rep.verdict} "
             f"({len(rep.rows)} rows, {rep.wall_clock:.2f}s)"]
    lines += [f"  note: {n}" for n in rep.notes]
    return "\n".join(lines)


def _write_rows_csv(rep: ExperimentReport, path: str) -> None:
    cols: list[str] = []
    for row in rep.rows:
        for key in row:
            if key not in cols:
                cols.append(key)

    def write(fh) -> None:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for row in rep.rows:
            writer.writerow([json.dumps(row.get(c), sort_keys=True) for c in cols])

    io.write_atomic(path, write, newline="")


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
            print(f"{evaluate(fel, _parse_point(args.point, fel.dim)):.12g}")
            return 0

        if args.command == "moments":
            fel = io.load_chaos(args.chaos)
            if args.max_order < 1:
                raise ConfigError("--max must be >= 1")
            for m in range(1, args.max_order + 1):
                print(f"m{m}={moment(fel, m):.12g}")
            return 0

        if args.command == "sample":
            fel = io.load_chaos(args.chaos)
            batch = sample(fel, args.count, args.seed, workers=args.threads)
            io.save_samples_csv(batch, args.out)
            print(f"wrote {batch.n} samples to {args.out}", file=sys.stderr)
            return 0

        if args.command == "check":
            rep = identity_suite(args.trials, args.seed)
            print(_report_summary(rep), file=sys.stderr)
            for row in rep.rows:
                print(f"  {row['identity']}: max deviation {row['max_deviation']:.3e}",
                      file=sys.stderr)
            return 0 if rep.verdict in ("pass", "vacuous") else 1

        # verify
        cfg = io.load_json(args.config)
        rep = _run_verify(args.experiment, cfg, workers=args.threads)
        out = args.out or cfg.get("output")
        if out:
            if cfg.get("format", "json") == "csv":
                _write_rows_csv(rep, out)
            else:
                io.save_report(rep, out)
        print(_report_summary(rep), file=sys.stderr)
        return 0 if rep.verdict in ("pass", "vacuous") else 1

    except (ValueError, OSError) as exc:  # ConfigError and SchemaError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
