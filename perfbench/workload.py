"""One workload in one process: set up, run rounds, check, report.

Run by run.py, which passes the monotonic clock reading taken just before
this process was started, so ``setup_s`` covers interpreter start,
``import chaoslab`` and input generation.  Prints one JSON object on the
last line of stdout.

    python3 perfbench/workload.py --workload exact-small --seed 1 \
        --seconds 20 --trace 0 --t0 <time.monotonic()>

``--setup-only`` stops after set-up; ``--record`` runs one round and
stores its results as the reference for this workload and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCES = os.path.join(HERE, "references")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_ROUNDS = 2


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--record", action="store_true")
    return p.parse_args(argv)


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCES, f"{workload}.json")


def load_references(workload: str, seed: int):
    try:
        with open(reference_path(workload)) as fh:
            return json.load(fh).get(str(seed))
    except FileNotFoundError:
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy
    env = {"nproc": os.cpu_count(), "cpu": _cpu_model(),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__}
    env.update({v: os.environ.get(v) for v in THREAD_VARS})
    return env


def run_round(ops, tally, on_result=None) -> float:
    """Run every operation once; returns the summed time of the timed steps."""
    wall = 0.0
    for op in ops:
        if op.pre is not None:
            op.pre()
        t0 = time.perf_counter()
        try:
            raw = op.run()
        except Exception as exc:  # an operation that raises is a failed operation
            wall += time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            tally.record_exception(op.name, exc)
            continue
        wall += time.perf_counter() - t0
        try:
            res = op.post(raw)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            tally.record_exception(op.name, exc)
            continue
        tally.record(op.name, res)
        if on_result is not None:
            on_result(op.name, res)
    return wall


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, SRC)
    import chaoslab   # timed as part of set-up
    if not os.path.abspath(chaoslab.__file__).startswith(SRC + os.sep):
        print(f"error: chaoslab imported from {chaoslab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracing
    from results import Tally, storable
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        ops = workload.build(args.seed, workdir)
        setup_s = time.monotonic() - args.t0
        out = {"setup_s": setup_s}
        if args.setup_only:
            print(json.dumps(out))
            return 0

        if args.record:
            recorded = {}
            tally = Tally(None)
            run_round(ops, tally, lambda name, res: recorded.setdefault(name, storable(res)))
            if tally.failed or len(recorded) != len(ops):
                print("error: not recording a round with failed operations:\n  "
                      + "\n  ".join(tally.messages), file=sys.stderr)
                return 1
            path = reference_path(args.workload)
            refs = {}
            if os.path.exists(path):
                with open(path) as fh:
                    refs = json.load(fh)
            refs[str(args.seed)] = recorded
            os.makedirs(REFERENCES, exist_ok=True)
            with open(path, "w") as fh:
                json.dump(refs, fh, sort_keys=True, indent=1)
                fh.write("\n")
            print(json.dumps({"recorded": len(recorded)}))
            return 0

        references = load_references(args.workload, args.seed)
        tally = Tally(references)
        tracer = tracing.Tracer() if args.trace else None
        untraced, traced = [], []
        cpu_traced = 0.0
        start = time.perf_counter()
        while True:
            if tracer is None:
                untraced.append(run_round(ops, tally))
                last = untraced[-1]
            else:
                # alternate untraced and traced rounds; the difference is the
                # tracing overhead
                untraced.append(run_round(ops, tally))
                excluded = tracer.excluded
                cpu0 = resource.getrusage(resource.RUSAGE_SELF)
                tracer.bind()
                try:
                    wall = run_round(ops, tally)
                finally:
                    tracer.unbind()
                cpu1 = resource.getrusage(resource.RUSAGE_SELF)
                cpu_traced += (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime)
                traced.append(wall - (tracer.excluded - excluded))
                last = untraced[-1] + traced[-1]
            elapsed = time.perf_counter() - start
            enough = len(untraced) >= (1 if tracer else MIN_ROUNDS)
            if enough and elapsed + last > args.seconds:
                break

        out.update({
            "rounds": untraced,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "attempted": tally.attempted, "failed": tally.failed,
            "mismatched": tally.mismatched if references is not None else None,
            "messages": tally.messages, "env": environment(),
            "operations": len(ops)})
        if tracer is not None:
            out["traced_rounds"] = traced
            out["per_layer"] = tracing.per_layer_metrics(tracer, traced, untraced, cpu_traced)
            out["trace_missing"] = tracer.missing(workload.exercises)
            out["bindings"] = dict(tracer.bound_at)
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))   # only when no other run uses it
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
