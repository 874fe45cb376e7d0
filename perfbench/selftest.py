"""Self-test of the benchmark's own checking and tracing.

    python3 perfbench/selftest.py

Shows that a flipped bit in one Monte Carlo estimate is counted as a
result mismatch, that an operation which raises is counted as failed,
that exact quantities are compared within 1e-10 and closed forms are
enforced, that the trace wrappers see calls made through names a module
imported, and that BENCHMARK.json names exactly the metrics printed.
Exits 0 when every check holds.
"""

from __future__ import annotations

import copy
import json
import os
import struct
import sys

from run import ROOT

sys.path.insert(0, os.path.join(ROOT, "src"))

from results import Tally, new_result  # noqa: E402
from workload import run_round  # noqa: E402
from workloads import Op  # noqa: E402

FAILURES: list[str] = []


def check(cond: bool, what: str) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        FAILURES.append(what)


def flip_low_bit(x: float) -> float:
    (bits,) = struct.unpack("<q", struct.pack("<d", x))
    return struct.unpack("<d", struct.pack("<q", bits ^ 1))[0]


def sample_result() -> dict:
    res = new_result(0, "pass")
    res["est"] = {"/rows/0/tv/value": 0.0123456789, "/rows/0/tv/ci/0": 0.01}
    res["exact"] = {"/rows/0/fourth_moment": 3.06}
    res["text"] = {"/verdict_note": "ok"}
    res["checks"] = [("fourth_moment", 3.06, 3.0 + 6.0 / 100)]
    return res


def test_reference_comparison():
    ref = sample_result()
    refs = {"op": {k: ref[k] for k in ("exit", "verdict", "est", "exact", "text")}}

    tally = Tally(refs)
    tally.record("op", sample_result())
    check(tally.mismatched == 0 and tally.failed == 0, "an identical result matches")

    flipped = sample_result()
    flipped["est"]["/rows/0/tv/value"] = flip_low_bit(flipped["est"]["/rows/0/tv/value"])
    tally = Tally(refs)
    tally.record("op", flipped)
    check(tally.mismatched == 1, "a flipped bit in one estimate is a result mismatch")

    near = sample_result()
    near["exact"]["/rows/0/fourth_moment"] *= 1.0 + 1e-12
    far = sample_result()
    far["exact"]["/rows/0/fourth_moment"] *= 1.0 + 1e-9
    t_near, t_far = Tally(refs), Tally(refs)
    t_near.record("op", near)
    t_far.record("op", far)
    check(t_near.mismatched == 0 and t_far.mismatched == 1,
          "exact quantities match within 1e-10 relative and not beyond")

    verdict = sample_result()
    verdict["verdict"], verdict["exit"] = "fail", 1
    tally = Tally(refs)
    tally.record("op", verdict)
    check(tally.mismatched == 1 and tally.failed == 1,
          "a verdict other than the recorded one fails the operation")

    tally = Tally(None)
    tally.record("op", copy.deepcopy(ref))
    tally.record("op", flipped)
    check(tally.failed == 1, "without references, a round that differs from round 1 fails")


def test_failures():
    def boom():
        raise ValueError("boom")

    tally = Tally(None)
    run_round([Op("raises", boom, lambda raw: new_result())], tally)
    check(tally.attempted == 1 and tally.failed == 1, "an operation that raises is counted as failed")

    miss = sample_result()
    miss["checks"] = [("fourth_moment", 3.06 + 1e-9, 3.06)]
    tally = Tally(None)
    tally.record("op", miss)
    check(tally.failed == 1, "missing a closed form by more than 1e-10 fails the operation")

    wrong_exit = sample_result()
    wrong_exit["exit"] = 1
    tally = Tally(None)
    tally.record("op", wrong_exit)
    check(tally.failed == 1, "an exit code that contradicts the verdict fails the operation")

    usage = new_result(2)
    tally = Tally(None)
    tally.record("op", usage)
    check(tally.failed == 1, "exit code 2 fails the operation")


def test_trace_bindings():
    import chaoslab
    from chaoslab import chaos, distances, experiments, rng
    import tracing

    tracer = tracing.Tracer()
    original = chaos.multiply
    tracer.bind()
    try:
        bound = all(getattr(m, "multiply") is not original
                    for m in (chaos, experiments, chaoslab))
        chaoslab.moment(experiments.pair_sum_element(3), 4)
        experiments.identity_suite(1, 5)
        a, b = rng.gaussians(1, 0, 2000), rng.gaussians(2, 0, 2000)
        distances.tv_two_samples(a, b, seed=3)
    finally:
        tracer.unbind()
    check(bound, "multiply is wrapped in chaos, experiments and the package namespace")
    check(chaos.multiply is original, "unbind restores the original functions")
    st = tracer.stats
    check(st["chaos.multiply"].calls > 0 and st["kernels.sym_contract"].calls > 0
          and st["kernels.contract"].counts["pairs"] > 0,
          "calls made inside chaoslab are traced, with work counts")
    check(st["experiments.identity_suite"].calls == 1
          and st["chaos.evaluate_batch"].calls >= 3,
          "calls made through names experiments imported are traced")
    tv = st["distances.tv_two_samples"]
    check(tv.calls == 1 and 0.0 < tv.boot <= tv.total,
          "the bootstrap time of an estimator is measured by an n_boot=0 repeat")
    check(tracer.missing(["chaos.multiply", "distances.fm_two_samples"])
          == ["distances.fm_two_samples"], "a function with zero calls is reported missing")


def test_benchmark_json():
    import tracing
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    check([(m["name"], m["unit"]) for m in bench["per_layer"]] == list(tracing.PER_LAYER),
          "BENCHMARK.json per_layer lists exactly the traced metrics")
    check([m["name"] for m in bench["end_to_end"]] == ["setup_s", "wall_s", "peak_rss_mib"],
          "BENCHMARK.json end_to_end lists exactly the untraced metrics")


def main() -> int:
    test_reference_comparison()
    test_failures()
    test_trace_bindings()
    test_benchmark_json()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
