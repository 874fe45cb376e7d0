"""Record the reference results of every workload for the shipped seeds.

    python3 perfbench/record.py            # all workloads, seeds 1 and 97
    python3 perfbench/record.py exact-small

Each workload runs one round in a fresh process, with the same
environment as a benchmark run, and its results replace the stored ones
for that seed in ``references/<workload>.json``.  A round with a failed
operation is not recorded.  Re-record only in a change that alters a
random stream or an exact result on purpose, and say so in that change.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

from run import HERE, ROOT, WORKLOADS, _env

SHIPPED_SEEDS = (1, 97)   # the default seed and one held out while tuning


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or list(WORKLOADS)
    for name in names:
        for seed in SHIPPED_SEEDS:
            cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", name,
                   "--seed", str(seed), "--t0", repr(time.monotonic()), "--record"]
            proc = subprocess.run(cmd, cwd=ROOT, env=_env())
            if proc.returncode != 0:
                print(f"error: recording {name} seed {seed} failed", file=sys.stderr)
                return 1
            print(f"recorded {name} seed {seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
