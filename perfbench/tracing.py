"""Outside-in layer trace: spans around chaoslab's public functions.

The wrappers live here, in the benchmark, and chaoslab's source is not
touched.  A wrapper is bound at every module attribute that holds the
original function: the defining module, the package namespace and every
module that imported the function by name (``experiments`` binds
``multiply`` and ``sample``; ``chaos`` binds ``sym_contract``).  Patching
only the defining module would miss those calls.

Each span records calls, total time and self time (its duration minus
the part its child spans cover), plus work counts read from arguments
or return values.  The bootstrap share of a distance estimator is
measured from outside: after each traced call the estimator runs again
on the same inputs with ``n_boot=0``, and that time is subtracted.  The
repeat is excluded from every span and from the traced round time.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import defaultdict

_MODULES = ("rng", "kernels", "chaos", "distances", "experiments", "io", "cli")

# Per-entry helpers are left unwrapped: their time stays in the caller's
# self time, which is in the same layer, and wrapping them would cost more
# than they do.  io is traced at its two entry points only, so their self
# time includes parsing and serialization.
_SKIP = {"kernels": {"perm_count", "hermite_eval", "hermite_table"}}
_ONLY = {"io": {"save_report", "load_chaos"}}
# The two halves of sym_contract, its only caller: counted but not timed,
# so the contraction work stays in kernels.sym_contract.self_s.
_COUNT_ONLY = {"kernels.contract", "kernels.symmetrize"}

BOOTSTRAPPED = ("tv_vs_density", "tv_two_samples", "tv_multivariate",
                "fm_two_samples", "wasserstein1")
EXPERIMENTS = ("fourth_moment_certificate", "shigekawa_rate", "dm_rate",
               "carbery_wright_probe", "df_small_ball_probe", "peccati_tudor_run",
               "moo_invariance", "d12_rate_probe", "identity_suite")
_SAMPLING = {"chaos.gaussian_matrix", "chaos.sample", "chaos.evaluate_batch",
             "chaos.evaluate"}

# (metric, unit): printed by every traced run, in this order
PER_LAYER = (
    [("rng.gaussians.calls", "count"), ("rng.gaussians.self_s", "s"),
     ("rng.gaussians.draws", "count"), ("rng.gaussians.ns_per_draw", "ns"),
     ("rng.rademacher.self_s", "s"), ("rng.rademacher.draws", "count"),
     ("rng.discrete.self_s", "s"), ("rng.discrete.draws", "count"),
     ("chaos.gaussian_matrix.self_s", "s"), ("chaos.gaussian_matrix.bytes", "B"),
     ("chaos.evaluate_batch.calls", "count"), ("chaos.evaluate_batch.self_s", "s"),
     ("chaos.evaluate_batch.terms", "count"), ("chaos.sample.self_s", "s"),
     ("chaos.multiply.calls", "count"), ("chaos.multiply.self_s", "s"),
     ("chaos.multiply.out_entries", "count"),
     ("chaos.moment.calls", "count"), ("chaos.moment.self_s", "s"),
     ("chaos.carre_du_champ.calls", "count"), ("chaos.carre_du_champ.self_s", "s"),
     ("chaos.malliavin_matrix.self_s", "s"), ("chaos.det_chaos.self_s", "s"),
     ("kernels.sym_contract.calls", "count"), ("kernels.sym_contract.self_s", "s"),
     ("kernels.sym_contract.out_entries", "count"), ("kernels.contract.pairs", "count")]
    + [(f"distances.{est}.{field}", unit) for est in BOOTSTRAPPED
       for field, unit in (("calls", "count"), ("self_s", "s"), ("boot_s", "s"))]
    + [("distances.small_ball.self_s", "s")]
    + [(f"experiments.{name}.s", "s") for name in EXPERIMENTS]
    + [("io.save_report.self_s", "s"), ("io.report_bytes", "B"),
       ("io.load_chaos.self_s", "s"), ("cli.main.self_s", "s"),
       ("layer.rng.self_s", "s"), ("layer.chaos_sampling.self_s", "s"),
       ("layer.chaos_exact.self_s", "s"), ("layer.kernels.self_s", "s"),
       ("layer.distances.self_s", "s"), ("layer.distances.boot_s", "s"),
       ("layer.experiments.self_s", "s"), ("layer.io.self_s", "s"),
       ("layer.cli.self_s", "s"),
       ("share.sampling", "%"), ("share.bootstrap", "%"), ("share.exact", "%"),
       ("trace.wall_s", "s"), ("trace.overhead_s", "s"), ("process.cpu_s", "s")])


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _entries(element) -> int:
    return sum(len(k.entries) for k in element.kernels.values())


def _count_draws(args, kwargs, res):
    return {"draws": int(_arg(args, kwargs, 2, "count"))}


# work counts, read from arguments or the return value
_COUNTERS = {
    "rng.gaussians": _count_draws,
    "rng.rademacher": _count_draws,
    "rng.discrete": _count_draws,
    "chaos.gaussian_matrix": lambda a, k, r: {"bytes": 8 * int(r.size)},
    "chaos.evaluate_batch": lambda a, k, r: {
        "terms": int(r.shape[0]) * _entries(_arg(a, k, 0, "fel"))},
    "chaos.multiply": lambda a, k, r: {"out_entries": _entries(r)},
    "kernels.sym_contract": lambda a, k, r: {
        "out_entries": len(r.entries) if hasattr(r, "entries") else 1},
    "kernels.contract": lambda a, k, r: {"pairs": len(r.entries)},
    "io.save_report": lambda a, k, r: {
        "report_bytes": os.path.getsize(_arg(a, k, 1, "path"))},
}


class _Stat:
    __slots__ = ("calls", "total", "self_s", "boot", "counts")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.boot = 0.0
        self.counts: dict[str, int] = defaultdict(int)


class Tracer:
    """Install with ``bind()``, remove with ``unbind()``; spans stay in memory."""

    def __init__(self):
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.excluded = 0.0      # time spent in n_boot=0 repeats
        self._stack: list[list[float]] = []
        self._suspended = False
        self._patches: list[tuple[object, str, object]] = []
        self.bound_at: dict[str, int] = {}   # traced function -> attributes bound
        self._wrappers: dict[int, object] = {}   # id(original) -> wrapper
        for short in _MODULES:
            mod = sys.modules[f"chaoslab.{short}"]
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")
                        and name not in _SKIP.get(short, ())
                        and name in _ONLY.get(short, {name})):
                    self._wrappers[id(fn)] = self._wrap(f"{short}.{name}", fn)

    def _wrap(self, key: str, fn):
        stats, stack = self.stats, self._stack
        counter = _COUNTERS.get(key)
        boot = key.startswith("distances.") and key.split(".")[1] in BOOTSTRAPPED
        timed = key not in _COUNT_ONLY
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if self._suspended:
                return fn(*args, **kwargs)
            st = stats[key]
            if not timed:
                res = fn(*args, **kwargs)
            else:
                frame = [0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    res = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    st.total += dt
                    st.self_s += dt - frame[0]
                    if stack:
                        stack[-1][0] += dt
            st.calls += 1
            if counter is not None:
                for name, value in counter(args, kwargs, res).items():
                    st.counts[name] += value
            if boot:
                self._suspended = True
                t1 = clock()
                try:
                    fn(*args, **dict(kwargs, n_boot=0))
                finally:
                    self._suspended = False
                dt0 = clock() - t1
                st.boot += dt - dt0
                self.excluded += dt0
                if stack:
                    stack[-1][0] += dt0
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    def bind(self) -> None:
        """Bind each wrapper at every chaoslab module attribute holding its original."""
        for modname, mod in list(sys.modules.items()):
            if modname != "chaoslab" and not modname.startswith("chaoslab."):
                continue
            for name, value in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((mod, name, value))
                    setattr(mod, name, wrapper)
        self.bound_at = defaultdict(int)
        for _, _, value in self._patches:
            self.bound_at[f"{value.__module__.split('.')[-1]}.{value.__name__}"] += 1

    def unbind(self) -> None:
        for mod, name, value in reversed(self._patches):
            setattr(mod, name, value)
        self._patches.clear()

    def missing(self, names) -> list[str]:
        return [n for n in names if self.stats[n].calls == 0] if names else []


def _layer(key: str) -> str:
    short = key.split(".")[0]
    if short == "chaos":
        return "chaos_sampling" if key in _SAMPLING else "chaos_exact"
    return short


def per_layer_metrics(tracer: Tracer, traced: list[float], untraced: list[float],
                      cpu_s: float) -> dict[str, float]:
    """Every PER_LAYER metric as a mean per traced round; shares are in % of
    the traced rounds' time.  ``traced`` and ``untraced`` are round times and
    ``cpu_s`` is the CPU time of all traced rounds."""
    rounds = len(traced)
    wall = sum(traced)
    st = tracer.stats
    layers: dict[str, float] = defaultdict(float)
    for key, s in st.items():
        layers[_layer(key)] += s.self_s
    boot = sum(s.boot for s in st.values())
    vals = {f"layer.{name}.self_s": layers[name] / rounds
            for name in ("rng", "chaos_sampling", "chaos_exact", "kernels", "distances",
                         "experiments", "io", "cli")}
    vals.update({
        "layer.distances.boot_s": boot / rounds,
        "share.sampling": 100.0 * (layers["rng"] + layers["chaos_sampling"]) / wall,
        "share.bootstrap": 100.0 * boot / wall,
        "share.exact": 100.0 * (layers["kernels"] + layers["chaos_exact"]) / wall,
        "trace.wall_s": wall / rounds,
        "trace.overhead_s": wall / rounds - sum(untraced) / len(untraced),
        "process.cpu_s": cpu_s / rounds,
        "io.report_bytes": st["io.save_report"].counts["report_bytes"] / rounds,
    })
    gauss = st["rng.gaussians"]
    draws = gauss.counts["draws"]
    vals["rng.gaussians.ns_per_draw"] = 1e9 * gauss.self_s / draws if draws else 0.0
    for metric, _ in PER_LAYER:
        if metric in vals:
            continue
        key, field = metric.rsplit(".", 1)
        s = st[key]
        total = {"calls": s.calls, "self_s": s.self_s, "boot_s": s.boot,
                 "s": s.total}.get(field)
        vals[metric] = (s.counts[field] if total is None else total) / rounds
    return {metric: float(vals[metric]) for metric, _ in PER_LAYER}
