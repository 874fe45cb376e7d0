"""chaos.moments against one moment call per order.

moments(F, M) computes E[F], ..., E[F^M] in turn and shares work between
the orders: the powers F^j of the product route, and the contraction
f sym-contract_{q/2} f that the single-chaos third and fourth moments
both use.  Each value must have the bits of moment(F, m), and a failure
must be the exception, with the message, that moment raises at the
first failing m.  The CLI `moments` command goes through it, so the
spies below count the work it saves there.
"""

import json

import numpy as np
import pytest

from chaoslab import (chaos, cli, constant_element, linear_combine, make_kernel,
                      moment, moments, single_integral)
from helpers import nonzero_kernel, random_element

GEN = np.random.default_rng(2302)


def _single(q, dim=4):
    return single_integral(nonzero_kernel(GEN, q, dim, terms=5))


def _outcome(compute):
    """('value', bits of every value) or (exception type, message)."""
    try:
        values = compute()
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return type(exc), str(exc)
    return "value", np.array(values, dtype=float).view(np.uint64).tolist()


@pytest.mark.parametrize("fel, m_max, fails", [
    pytest.param(_single(1), 8, False, id="q1"),
    pytest.param(_single(2), 4, False, id="q2"),
    pytest.param(_single(3), 4, False, id="q3"),
    pytest.param(_single(4), 4, False, id="q4"),
    pytest.param(random_element(GEN, 3, 2), 4, False, id="mixed"),
    pytest.param(linear_combine([(1.0, _single(2)), (1.0, constant_element(4, 0.5))]), 4,
                 False, id="shifted-single"),
    pytest.param(constant_element(2, -1.5), 40, False, id="constant"),
    pytest.param(_single(2), 5, True, id="cap-at-5"),
    pytest.param(_single(6, dim=2), 4, True, id="single-builds-10"),
    pytest.param(random_element(GEN, 3, 3), 4, True, id="mixed-cap-at-3"),
    pytest.param(constant_element(2, 1e10), 40, True, id="constant-overflow-at-31"),
    pytest.param(single_integral(make_kernel(1, 2, [((1,), 1e200), ((2,), 1.0)])), 4, True,
                 id="overflow-at-2"),
    pytest.param(single_integral(make_kernel(2, 2, [((1, 1), 1e110)])), 4, True,
                 id="overflow-at-3"),
    pytest.param(single_integral(make_kernel(2, 2, [((1, 2), 1e80)])), 4, True,
                 id="overflow-at-4"),
])
def test_moments_match_one_moment_call_per_order(fel, m_max, fails):
    want = _outcome(lambda: [moment(fel, m) for m in range(1, m_max + 1)])
    assert (want[0] != "value") == fails
    assert _outcome(lambda: moments(fel, m_max)) == want
    for m in range(1, m_max):
        assert _outcome(lambda: moments(fel, m)) == _outcome(
            lambda: [moment(fel, j) for j in range(1, m + 1)])


def test_order_below_one_is_refused_like_moment():
    fel = _single(2)
    assert _outcome(lambda: moments(fel, 0)) == _outcome(lambda: [moment(fel, 0)])


def _contractions(monkeypatch):
    seen = []
    real = chaos.sym_contract

    def spy(f, g, r):
        seen.append(r)
        return real(f, g, r)

    monkeypatch.setattr(chaos, "sym_contract", spy)
    return seen


@pytest.mark.parametrize("q, shared, separate", [
    (2, [1], [1, 1]),
    (3, [1, 2], [1, 2]),       # odd q: no third-moment contraction to share
    (4, [2, 1, 3], [2, 1, 2, 3]),
])
def test_single_chaos_half_contraction_is_built_once(monkeypatch, q, shared, separate):
    fel = _single(q)
    seen = _contractions(monkeypatch)
    got = moments(fel, 4)
    assert seen == shared
    seen.clear()
    assert got == [moment(fel, m) for m in range(1, 5)]
    assert seen == separate


def _chaos_file(tmp_path, fel_dict):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(fel_dict))
    return str(path)


def test_cli_moments_of_a_single_chaos_contract_once(tmp_path, capsys, monkeypatch):
    path = _chaos_file(tmp_path, {"dim": 2, "constant": 0.0, "kernels": [
        {"order": 2, "dim": 2, "entries": [{"idx": [1, 1], "coef": 1.0},
                                           {"idx": [1, 2], "coef": 0.5}]}]})
    seen = _contractions(monkeypatch)
    assert cli.main(["moments", "--chaos", path, "--max", "4"]) == 0
    assert seen == [1]
    assert len(capsys.readouterr().out.splitlines()) == 4


def test_cli_moments_of_a_constant_build_each_power_once(tmp_path, capsys, monkeypatch):
    path = _chaos_file(tmp_path, {"dim": 1, "constant": 1.0, "kernels": []})
    products = []
    real = chaos.multiply

    def spy(f, g):
        products.append(1)
        return real(f, g)

    monkeypatch.setattr(chaos, "multiply", spy)
    assert cli.main(["moments", "--chaos", path, "--max", "400"]) == 0
    assert len(products) == 199   # F^2 .. F^200; one moment call per order made 39,800
    assert capsys.readouterr().out.splitlines() == [f"m{m}=1" for m in range(1, 401)]

