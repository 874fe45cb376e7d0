"""The golden outputs that pin every report byte, and the script that records them.

    PYTHONPATH=src python tests/record_golden.py     # rewrite tests/golden/

The outputs are: the report of every FUZZ_CONFIGS entry at seeds 1 and
97, run through cli.main; `check identities --trials 20` at both seeds
(its stderr, with the run time masked); and `moments`, `eval` and
`sample` on FUZZ_CHAOS (what each prints, with the work directory
masked, and the CSV that `sample` writes).  Files are read and written with newline="", so the bytes are
the program's own.
versions.json records the Python, numpy and scipy versions they were
recorded with.  test_golden.py compares fresh outputs with these bytes.

Re-record only in a change that alters a random stream, an estimator or
an exact result on purpose, and say so in that change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import re
import sys
import tempfile

import numpy as np
import scipy

from chaoslab import cli
from test_io_cli import FUZZ_CHAOS, FUZZ_CONFIGS

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SEEDS = (1, 97)
VERSIONS = "versions.json"


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def outputs(workdir: str) -> dict[str, str]:
    """Every golden output by file name, produced in workdir."""
    got = {}
    for i, (name, cfg) in enumerate(FUZZ_CONFIGS):
        for seed in SEEDS:
            cfg_path = os.path.join(workdir, "cfg.json")
            rep_path = os.path.join(workdir, "rep.json")
            with open(cfg_path, "w") as fh:
                json.dump({**cfg, "seed": seed}, fh)
            code, _, err = _run(["verify", name, "--config", cfg_path, "--out", rep_path])
            if code not in (0, 1):
                raise RuntimeError(f"verify {name} (config {i}) exited {code}: {err}")
            with open(rep_path, newline="") as fh:
                got[f"verify-{i}-{name}-seed{seed}.json"] = fh.read()
    for seed in SEEDS:
        _, _, err = _run(["check", "identities", "--trials", "20", "--seed", str(seed)])
        got[f"check-identities-seed{seed}.txt"] = re.sub(r", [0-9.]+s\)", ", <time>s)", err)
    chaos_path = os.path.join(workdir, "chaos.json")
    with open(chaos_path, "w") as fh:
        json.dump(FUZZ_CHAOS, fh)
    got["moments.txt"] = _run(["moments", "--chaos", chaos_path, "--max", "4"])[1]
    got["eval.txt"] = _run(["eval", "--chaos", chaos_path, "--point", "0.5,-1"])[1]
    csv_path = os.path.join(workdir, "sample.csv")
    _, out, err = _run(["sample", "--chaos", chaos_path, "-n", "200", "--seed", "1",
                        "--out", csv_path])
    got["sample.txt"] = (out + err).replace(workdir, "<dir>")
    with open(csv_path, newline="") as fh:
        got["sample.csv"] = fh.read()
    return got


def main() -> int:
    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        got = outputs(tmp)
    got[VERSIONS] = json.dumps(versions(), indent=1, sort_keys=True) + "\n"
    for stale in set(os.listdir(GOLDEN)) - set(got):
        os.remove(os.path.join(GOLDEN, stale))
    for name, text in sorted(got.items()):
        with open(os.path.join(GOLDEN, name), "w", newline="") as fh:
            fh.write(text)
    print(f"recorded {len(got)} files in {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
