"""Operation results, reference comparison and failure accounting.

An operation result is a plain dict, so it can be stored as JSON:

    {"exit": int | None, "verdict": str | None,
     "est":   {path: number},   # Monte Carlo estimates and CIs: bit for bit
     "exact": {path: number},   # exact quantities: within EXACT_TOL
     "text":  {path: str | bool | None}}

plus a "checks" list of (label, got, want) closed-form comparisons that
is evaluated on every run and never stored.  This module is stdlib only.
"""

from __future__ import annotations

import math

EXACT_TOL = 1e-10
EXIT_FOR_VERDICT = {"pass": 0, "vacuous": 0, "fail": 1}


def new_result(exit_code=None, verdict=None) -> dict:
    return {"exit": exit_code, "verdict": verdict, "est": {}, "exact": {},
            "text": {}, "checks": []}


def _is_estimate(obj) -> bool:
    return isinstance(obj, dict) and "method" in obj and "ci" in obj


def flatten_into(res: dict, obj, path: str = "", in_estimate: bool = False) -> None:
    """Add every leaf of a report-like object to the result, by JSON path."""
    if isinstance(obj, dict):
        est = in_estimate or _is_estimate(obj)
        for key in sorted(obj):
            flatten_into(res, obj[key], f"{path}/{key}", est)
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            flatten_into(res, item, f"{path}/{i}", in_estimate)
    elif isinstance(obj, bool) or obj is None or isinstance(obj, str):
        res["text"][path] = obj
    elif isinstance(obj, (int, float)):
        res["est" if in_estimate else "exact"][path] = obj
    else:
        raise TypeError(f"{path}: unsupported leaf {type(obj).__name__}")


def close(got: float, want: float, tol: float = EXACT_TOL) -> bool:
    """|got - want| <= tol * max(1, |want|); NaN matches only NaN."""
    if isinstance(got, float) and isinstance(want, float) \
            and math.isnan(got) and math.isnan(want):
        return True
    return abs(got - want) <= tol * max(1.0, abs(want))


def same_bits(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        fa, fb = float(a), float(b)
        return fa.hex() == fb.hex() or (math.isnan(fa) and math.isnan(fb))
    return a == b


def failure_reasons(res: dict) -> list[str]:
    """Why an operation failed on its own terms (no reference needed)."""
    reasons = []
    verdict = res.get("verdict")
    if verdict is not None:
        want = EXIT_FOR_VERDICT.get(verdict)
        if want is None:
            reasons.append(f"unknown verdict {verdict!r}")
        elif res["exit"] != want:
            reasons.append(f"exit {res['exit']} does not match verdict {verdict}")
    elif res.get("exit") not in (None, 0):
        reasons.append(f"exit {res['exit']}")
    for label, got, want in res.get("checks", ()):
        if not close(got, want):
            reasons.append(f"{label}: {got!r} misses closed form {want!r}")
    return reasons


def differences(res: dict, ref: dict) -> list[str]:
    """How a result differs from its reference; empty when it matches."""
    diffs = []
    for key in ("exit", "verdict"):
        if res.get(key) != ref.get(key):
            diffs.append(f"{key}: {res.get(key)!r} != recorded {ref.get(key)!r}")
    for kind in ("est", "exact", "text"):
        got, want = res.get(kind, {}), ref.get(kind, {})
        for path in sorted(set(got) | set(want)):
            if path not in got or path not in want:
                diffs.append(f"{kind}{path}: present in only one of result and reference")
                continue
            a, b = got[path], want[path]
            if kind == "exact" and not isinstance(a, bool) and not isinstance(b, bool):
                ok = close(float(a), float(b))
            else:
                ok = same_bits(a, b)
            if not ok:
                diffs.append(f"{kind}{path}: {a!r} != recorded {b!r}")
    return diffs


def storable(res: dict) -> dict:
    """The part of a result that goes into a reference file."""
    return {k: res[k] for k in ("exit", "verdict", "est", "exact", "text")}


class Tally:
    """Counts operations attempted, failed and mismatched against references."""

    def __init__(self, references: dict | None):
        self.references = references
        self.first_round: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.messages: list[str] = []

    def _note(self, msg: str) -> None:
        if len(self.messages) < 20:
            self.messages.append(msg)

    def record_exception(self, op: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self._note(f"{op}: raised {type(exc).__name__}: {exc}")

    def record(self, op: str, res: dict) -> None:
        """Count one completed operation.

        It fails on its own terms (exit code, verdict, closed forms) or
        when it differs from the same operation in the first round.  It
        mismatches when it differs from the recorded reference.
        """
        self.attempted += 1
        reasons = failure_reasons(res)
        first = self.first_round.setdefault(op, res)
        if first is not res:
            reasons += [f"differs from round 1: {d}" for d in differences(res, first)[:3]]
        if self.references is not None:
            ref = self.references.get(op)
            diffs = differences(res, ref) if ref is not None else [
                "no recorded reference for this operation"]
            if diffs:
                self.mismatched += 1
                self._note(f"{op}: result mismatch: {'; '.join(diffs[:3])}")
            if ref is not None and (res["exit"], res.get("verdict")) != (
                    ref.get("exit"), ref.get("verdict")):
                reasons.append("exit code or verdict differs from the recorded one")
        if reasons:
            self.failed += 1
            self._note(f"{op}: failed: {'; '.join(reasons[:3])}")
