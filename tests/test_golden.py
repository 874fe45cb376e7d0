"""Reports are byte-identical to the recorded golden outputs.

A change that alters a random stream, an estimator or an exact result on
purpose re-records them with tests/record_golden.py and says so.  On a
mismatch the failure names the first differing JSON path (or line) with
both values, and any library version that differs from the recorded one.
"""

import json
import os

import pytest

from record_golden import GOLDEN, VERSIONS, outputs, versions

RECORDED = sorted(set(os.listdir(GOLDEN)) - {VERSIONS})


def first_difference(want, got, path=""):
    """The first JSON path at which want and got differ, with both values,
    or None when they are equal."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in list(want) + [k for k in got if k not in want]:
            if key not in want or key not in got:
                return f"{path}/{key}", want.get(key, "<missing>"), got.get(key, "<missing>")
            found = first_difference(want[key], got[key], f"{path}/{key}")
            if found:
                return found
        return None
    if isinstance(want, list) and isinstance(got, list):
        for i, (a, b) in enumerate(zip(want, got)):
            found = first_difference(a, b, f"{path}/{i}")
            if found:
                return found
        if len(want) != len(got):
            return f"{path}/length", len(want), len(got)
        return None
    if type(want) is not type(got) or want != got:
        return path or "/", want, got
    return None


def _explain(name: str, want: str, got: str) -> str:
    if name.endswith(".json"):
        found = first_difference(json.loads(want), json.loads(got))
    else:
        found = next(((f"line {i + 1}", a, b) for i, (a, b) in
                      enumerate(zip(want.splitlines(), got.splitlines())) if a != b), None)
    where, a, b = found or ("bytes", "formatting differs", "formatting differs")
    msg = f"{name} differs at {where}: recorded {a!r}, got {b!r}"
    with open(os.path.join(GOLDEN, VERSIONS)) as fh:
        recorded = json.load(fh)
    moved = [f"{lib} {recorded.get(lib)} -> {ver}" for lib, ver in versions().items()
             if recorded.get(lib) != ver]
    return msg + (f" (versions differ: {', '.join(moved)})" if moved else "")


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    return outputs(str(tmp_path_factory.mktemp("golden")))


def test_every_output_is_recorded(fresh):
    assert sorted(fresh) == RECORDED


@pytest.mark.parametrize("name", RECORDED)
def test_output_is_byte_identical(fresh, name):
    with open(os.path.join(GOLDEN, name), newline="") as fh:
        want = fh.read()
    got = fresh.get(name, "")
    assert got == want, _explain(name, want, got)


def test_first_difference_names_the_path():
    want = {"rows": [{"tv": {"value": 0.25, "ci": [0.1, 0.3]}}], "verdict": "pass"}
    got = {"rows": [{"tv": {"value": 0.25, "ci": [0.1, 0.4]}}], "verdict": "fail"}
    assert first_difference(want, got) == ("/rows/0/tv/ci/1", 0.3, 0.4)
    assert first_difference(want, want) is None
    assert first_difference([1, 2], [1, 2, 3]) == ("/length", 2, 3)
    assert first_difference({"a": 1}, {"a": 1, "b": 2}) == ("/b", "<missing>", 2)
    assert first_difference({"n": 1}, {"n": 1.0}) == ("/n", 1, 1.0)
