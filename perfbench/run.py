"""chaoslab benchmark: one workload per invocation, from the repository root.

    python3 perfbench/run.py --workload mc-highdim --seed 1 --seconds 20 --trace 0

Workloads: mc-highdim, mc-lowdim, exact-large, exact-small (see README.md
beside this file).  Each runs in fresh processes with the BLAS thread
variables set to 1; operations run one after another (a closed loop with
one client).  With ``--trace 0`` it reports the end-to-end metrics
(setup_s, wall_s, peak_rss_mib); with ``--trace 1`` the per-layer metrics
of an outside-in trace.  Human-readable lines go first; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  The exit code is 0 for a completed run, 1 when the trace
misses a layer the workload must exercise, 2 on bad arguments or a
missing ``src/chaoslab``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from tracing import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mc-highdim", "mc-lowdim", "exact-large", "exact-small")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROCESSES = 3      # setup_s is the median over this many fresh processes
TIMEOUT_S = 170


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)   # workload.py puts the checkout's src first
    return env


def _worker(args, deadline: float, *extra: str) -> dict:
    """Start workload.py in a fresh process and return its JSON line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for another process")
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(t0), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                          timeout=timeout, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tail(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, with the count."""
    n = len(values)
    if n < 11:
        return f"max {max(values):.4f} s over {n} rounds (no percentile has ten rounds beyond it)"
    pct = 100.0 * (n - 10) / n
    q = sorted(values)[math.ceil(pct / 100.0 * n) - 1]
    return f"p{pct:.0f} {q:.4f} s over {n} rounds"


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "chaoslab", "__init__.py")):
        print(f"error: {os.path.join(ROOT, 'src', 'chaoslab')} is missing; "
              "run from a chaoslab checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROCESSES - 1):
                setups.append(_worker(args, deadline, "--setup-only")["setup_s"])
        res = _worker(args, deadline)
    except (subprocess.TimeoutExpired, TimeoutError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    setups.append(res["setup_s"])
    env = res["env"]
    rounds = res["rounds"]
    print(f"chaoslab benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(rounds)} rounds of {res['operations']} operations, trace {args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    fail_ratio = res["failed"] / res["attempted"]
    mism = res["mismatched"]
    mism_text = (f"{mism} count (reference for seed {args.seed})" if mism is not None
                 else f"n/a (no reference recorded for seed {args.seed})")
    for msg in res["messages"]:
        print(f"  problem: {msg}")
    correct = res["failed"] == 0 and not mism
    if args.trace:
        metrics = {m: {"value": res["per_layer"][m], "unit": u} for m, u in PER_LAYER}
        for name, m in metrics.items():
            print(f"{name}: {m['value']:.6g} {m['unit']}")
        print(f"traced rounds: {len(res['traced_rounds'])}, untraced rounds: {len(rounds)}")
        print("bindings: " + " ".join(f"{k}x{v}" for k, v in sorted(res["bindings"].items())))
        if res["trace_missing"]:
            print("error: traced functions the workload must exercise recorded no calls: "
                  + ", ".join(res["trace_missing"]))
            correct = False
    else:
        wall = statistics.median(rounds)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mib": {"value": res["peak_rss_mib"], "unit": "MiB"},
        }
        print(f"setup_s: {metrics['setup_s']['value']:.4f} s (median of "
              f"{len(setups)} processes: {', '.join(f'{s:.3f}' for s in setups)})")
        print(f"wall_s: {wall:.4f} s median over {len(rounds)} rounds; {_tail(rounds)}; "
              f"rounds: {', '.join(f'{r:.3f}' for r in rounds)}")
        print(f"peak_rss_mib: {res['peak_rss_mib']:.1f} MiB")
    print(f"fail_ratio: {fail_ratio:.6g} ratio ({res['failed']} of {res['attempted']} "
          "operations failed)")
    print(f"result_mismatch: {mism_text}")
    print(json.dumps({"correct": bool(correct), "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 1 if args.trace and res["trace_missing"] else 0


if __name__ == "__main__":
    sys.exit(main())
