import copy
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoslab import cli, experiments, io
from chaoslab import (ChaosElement, basis_element, constant_element, make_kernel,
                      pair_sum_element, sample, single_integral)
from chaoslab.experiments import ExperimentReport
from helpers import nonzero_kernel, random_element

H2_DICT = {"dim": 1, "constant": 0.0,
           "kernels": [{"order": 2, "dim": 1, "entries": [{"idx": [1, 1], "coef": 1.0}]}]}


class TestKernelFiles:
    def test_round_trip(self, gen, tmp_path):
        for _ in range(20):
            ker = nonzero_kernel(gen, int(gen.integers(1, 5)), 5)
            path = tmp_path / "k.json"
            io.save_kernel(ker, str(path))
            assert io.load_kernel(str(path)) == ker

    def test_unsorted_idx_rejected_with_location(self, tmp_path):
        obj = {"order": 2, "dim": 3,
               "entries": [{"idx": [1, 2], "coef": 0.5},
                           {"idx": [3, 1], "coef": 1.0}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(io.SchemaError, match=r"entries/1/idx"):
            io.load_kernel(str(path))

    def test_missing_field_named(self):
        with pytest.raises(io.SchemaError, match="coef"):
            io.kernel_from_dict({"order": 1, "dim": 2, "entries": [{"idx": [1]}]})

    def test_label_out_of_range_wrapped(self):
        with pytest.raises(io.SchemaError, match="label"):
            io.kernel_from_dict({"order": 1, "dim": 2,
                                 "entries": [{"idx": [5], "coef": 1.0}]})

    @pytest.mark.parametrize("field, value, where", [
        ("coef", float("nan"), "/kernel/entries/0/coef"),
        ("coef", float("inf"), "/kernel/entries/0/coef"),
        pytest.param("coef", 10 ** 400, "/kernel/entries/0/coef", id="coef-huge-int"),
        ("coef", True, "/kernel/entries/0/coef"),
        ("coef", "0.5", "/kernel/entries/0/coef"),
        ("idx", [True, True], "/kernel/entries/0/idx"),
        ("order", 2.0, "/kernel/order"),
        ("dim", 2.7, "/kernel/dim"),
        ("dim", "2", "/kernel/dim"),
    ])
    def test_mistyped_numbers_rejected_with_location(self, field, value, where):
        obj = {"order": 2, "dim": 2, "entries": [{"idx": [1, 1], "coef": 0.5}]}
        if field in obj:
            obj[field] = value
        else:
            obj["entries"][0][field] = value
        with pytest.raises(io.SchemaError, match=f"^{where}: expected"):
            io.kernel_from_dict(obj)

    def test_entries_sorted_on_write(self, tmp_path):
        ker = make_kernel(2, 3, [((2, 3), 1.0), ((1, 1), 2.0)])
        d = io.kernel_to_dict(ker)
        assert d["entries"][0]["idx"] == [1, 1]


class TestChaosFiles:
    def test_round_trip(self, gen, tmp_path):
        for _ in range(20):
            fel = random_element(gen, 4, 3)
            path = tmp_path / "c.json"
            io.save_chaos(fel, str(path))
            assert io.load_chaos(str(path)) == fel

    def test_constant_only(self, tmp_path):
        path = tmp_path / "c.json"
        io.save_chaos(constant_element(2, 3.5), str(path))
        out = io.load_chaos(str(path))
        assert out.constant == 3.5 and out.kernels == {}

    def test_duplicate_order_rejected(self):
        k = {"order": 2, "dim": 1, "entries": [{"idx": [1, 1], "coef": 1.0}]}
        with pytest.raises(io.SchemaError, match="duplicate"):
            io.chaos_from_dict({"dim": 1, "constant": 0.0, "kernels": [k, k]})

    @pytest.mark.parametrize("change, where", [
        ({"constant": float("nan")}, "/chaos/constant"),
        ({"constant": False}, "/chaos/constant"),
        ({"dim": 1.5}, "/chaos/dim"),
        ({"kernels": 5}, "/chaos/kernels"),
        ({"kernels": [{**H2_DICT["kernels"][0], "entries": [
            {"idx": [1, 1], "coef": 1.0}, {"idx": [1, 1], "coef": float("-inf")}]}]},
         "/chaos/kernels/0/entries/1/coef"),
    ])
    def test_mistyped_numbers_rejected_with_location(self, change, where):
        with pytest.raises(io.SchemaError, match=f"^{where}: expected"):
            io.chaos_from_dict({**H2_DICT, **change})

    @pytest.mark.parametrize("first, second", [
        pytest.param([], [[1, 1]], id="empty-first"),
        pytest.param([[1, 1]], [], id="empty-second"),
        pytest.param([], [], id="both-empty"),
        pytest.param([[1, 1]], [[1, 1]], id="both-nonempty"),
    ])
    def test_duplicate_order_refused_empty_or_not(self, tmp_path, capsys, first, second):
        obj = {"dim": 1, "constant": 0.0, "kernels": [
            {"order": 2, "dim": 1, "entries": [{"idx": idx, "coef": 1.0} for idx in idxs]}
            for idxs in (first, second)]}
        message = "/kernels/1/order: duplicate order 2"
        with pytest.raises(io.SchemaError, match=f"^{message}$"):
            io.chaos_from_dict(obj, where="")
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(obj))
        assert cli.main(["eval", "--chaos", str(path), "--point", "1.5"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_kernel_dim_must_match(self):
        k = {"order": 2, "dim": 2, "entries": [{"idx": [1, 1], "coef": 1.0}]}
        with pytest.raises(io.SchemaError, match="dim"):
            io.chaos_from_dict({"dim": 3, "constant": 0.0, "kernels": [k]})

    @pytest.mark.parametrize("obj", [{"dim": 0, "constant": 1.0}, {"dim": -3}],
                             ids=["zero", "negative"])
    def test_dim_below_one_refused_with_location(self, tmp_path, capsys, obj):
        message = f"/dim: must be >= 1, got {obj['dim']}"
        with pytest.raises(io.SchemaError, match=f"^/chaos{message}$"):
            io.chaos_from_dict(obj)
        path = tmp_path / "dim.json"
        path.write_text(json.dumps(obj))
        for argv in (["eval", "--chaos", str(path), "--point", "1"],
                     ["moments", "--chaos", str(path)]):
            assert cli.main(argv) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")


class TestReportsAndCsv:
    def test_report_round_trip(self, tmp_path):
        rep = ExperimentReport("demo", 7, [{"a": 1.0, "b": [1, 2]}], "pass",
                               notes=["note"])
        path = tmp_path / "r.json"
        io.save_report(rep, str(path))
        back = io.load_report(str(path))
        assert back.experiment == "demo" and back.seed == 7
        assert back.rows == rep.rows and back.verdict == "pass"

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        path = tmp_path / "r.json"
        io.write_json_atomic({"x": 1}, str(path))
        assert sorted(os.listdir(tmp_path)) == ["r.json"]

    def test_atomic_write_failure_keeps_old_target(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("old")

        def fail(fh):
            fh.write("partial")
            raise RuntimeError("writer failed")

        with pytest.raises(RuntimeError, match="writer failed"):
            io.write_atomic(str(path), fail)
        assert sorted(os.listdir(tmp_path)) == ["r.json"]
        assert path.read_text() == "old"

    def test_scalar_csv_header(self, tmp_path):
        batch = sample(basis_element(1, 1), 10, seed=3)
        path = tmp_path / "s.csv"
        io.save_samples_csv(batch, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "value" and len(lines) == 11

    def test_vector_csv_header(self, tmp_path):
        from chaoslab import ChaosVector
        vec = ChaosVector((basis_element(2, 1), basis_element(2, 2)))
        batch = sample(vec, 5, seed=3)
        path = tmp_path / "s.csv"
        io.save_samples_csv(batch, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "x1,x2" and len(lines) == 6


@pytest.fixture
def chaos_file(tmp_path):
    path = tmp_path / "h2.json"
    path.write_text(json.dumps(H2_DICT))
    return str(path)


class TestCli:
    def test_moments_output(self, chaos_file, capsys):
        assert cli.main(["moments", "--chaos", chaos_file, "--max", "4"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["m1=0", "m2=2", "m3=8", "m4=60"]

    def test_eval(self, chaos_file, capsys):
        assert cli.main(["eval", "--chaos", chaos_file, "--point", "1.5"]) == 0
        assert capsys.readouterr().out.strip() == "1.25"

    def test_eval_wrong_point_length_exits_2(self, chaos_file, capsys):
        code = cli.main(["eval", "--chaos", chaos_file, "--point", "1.5,2.0"])
        assert code == 2
        assert "coordinates" in capsys.readouterr().err

    def test_nan_coefficient_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({**H2_DICT, "kernels": [
            {"order": 2, "dim": 1, "entries": [{"idx": [1, 1], "coef": float("nan")}]}]}))
        assert cli.main(["moments", "--chaos", str(path)]) == 2
        assert "error: /kernels/0/entries/0/coef: expected a finite number" in \
            capsys.readouterr().err

    def test_overflowing_duplicate_coefficients_exit_2(self, tmp_path, capsys):
        ker = {"order": 1, "dim": 1, "entries": [{"idx": [1], "coef": 1e308},
                                                 {"idx": [1], "coef": 1e308}]}
        with pytest.raises(io.SchemaError, match="/kernel: coefficient at index"):
            io.kernel_from_dict(ker)
        path = tmp_path / "inf.json"
        path.write_text(json.dumps({"dim": 1, "constant": 0.0, "kernels": [ker]}))
        assert cli.main(["moments", "--chaos", str(path)]) == 2
        assert "error: /kernels/0: coefficient at index (1,) is not finite" in \
            capsys.readouterr().err

    # 8e17 bytes lies beyond the address space, so numpy refuses the
    # allocation up front and no memory is touched
    @pytest.mark.parametrize("command", ["sample", "verify"])
    def test_input_too_large_to_allocate_exits_2(self, tmp_path, chaos_file, capsys,
                                                 command):
        out = tmp_path / "out"
        n = 100_000_000_000_000_000
        if command == "sample":
            argv = ["sample", "--chaos", chaos_file, "-n", str(n), "--seed", "1"]
        else:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({"seed": 1, "n_samples": n, "indices": [6]}))
            argv = ["verify", "fourth-moment", "--config", str(cfg_path)]
        assert cli.main(argv + ["--out", str(out)]) == 2
        assert "error: Unable to allocate" in capsys.readouterr().err
        assert {p.name for p in tmp_path.iterdir()} <= {"h2.json", "cfg.json"}  # inputs only

    def test_moments_max_zero_exits_2(self, chaos_file, capsys):
        assert cli.main(["moments", "--chaos", chaos_file, "--max", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: --max must be >= 1" in captured.err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 1,')
        out = tmp_path / "rep.json"
        for argv in (["moments", "--chaos", str(path)],
                     ["verify", "cw", "--config", str(path), "--out", str(out)]):
            assert cli.main(argv) == 2
            assert f"error: {path}: invalid JSON" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["bad.json"]

    def test_json_nested_too_deeply_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)   # beyond the recursion limit of json's scanner
        out = tmp_path / "rep.json"
        for argv in (["eval", "--chaos", str(path), "--point", "1"],
                     ["moments", "--chaos", str(path)],
                     ["verify", "dm", "--config", str(path), "--out", str(out)]):
            assert cli.main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {path}: invalid JSON (nested too deeply)\n"
        assert sorted(os.listdir(tmp_path)) == ["deep.json"]

    @pytest.mark.parametrize("threads", ["0", "-1", "two"])
    def test_threads_must_be_positive(self, chaos_file, threads, capsys):
        assert cli.main(["--threads", threads, "eval", "--chaos", chaos_file,
                         "--point", "1.5"]) == 2
        assert "--threads: expected a positive integer" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert cli.main(["eval", "--chaos", "/nonexistent.json", "--point", "1"]) == 2

    def test_sample_csv(self, chaos_file, tmp_path):
        out = str(tmp_path / "out.csv")
        assert cli.main(["sample", "--chaos", chaos_file, "-n", "50",
                         "--seed", "3", "--out", out]) == 0
        assert open(out).readline().strip() == "value"

    @pytest.mark.parametrize("n", [50, 12_000])  # one block, then three at dim 200
    def test_sample_csv_threads_byte_identical(self, tmp_path, n):
        chaos_path = str(tmp_path / "pairs.json")
        io.save_chaos(pair_sum_element(100), chaos_path)
        outs = [str(tmp_path / f"{t}.csv") for t in (1, 2)]
        for threads, out in zip((1, 2), outs):
            assert cli.main(["--threads", str(threads), "sample", "--chaos", chaos_path,
                             "-n", str(n), "--seed", "3", "--out", out]) == 0
        assert open(outs[0], "rb").read() == open(outs[1], "rb").read()

    def test_check_identities(self, capsys):
        assert cli.main(["check", "identities", "--trials", "20", "--seed", "1"]) == 0
        assert "verdict pass" in capsys.readouterr().err

    def test_exact_commands_load_no_scipy(self, chaos_file):
        code = ("import sys\n"
                "import chaoslab, chaoslab.cli\n"
                "argvs = [['check', 'identities', '--trials', '2', '--seed', '1'],\n"
                f"         ['moments', '--chaos', {chaos_file!r}],\n"
                f"         ['eval', '--chaos', {chaos_file!r}, '--point', '1.5']]\n"
                "codes = [chaoslab.cli.main(argv) for argv in argvs]\n"
                "print(codes, [m for m in sys.modules if m.split('.')[0] == 'scipy'])\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0] []"

    def test_usage_error_exits_2(self, capsys):
        assert cli.main(["verify", "not-an-experiment", "--config", "x"]) == 2

    def test_verify_fourth_moment(self, tmp_path, capsys):
        cfg = {"seed": 4, "n_samples": 5000, "indices": [6, 12],
               "output": str(tmp_path / "rep.json")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["verify", "fourth-moment", "--config", str(cfg_path)]) == 0
        rep = io.load_report(str(tmp_path / "rep.json"))
        assert rep.experiment == "fourth-moment"
        assert rep.rows[0]["fourth_moment"] == pytest.approx(4.0)  # 3 + 6/6

    def test_verify_shigekawa_member_files_labelled_by_position(self, tmp_path):
        paths = [str(tmp_path / f"m{n}.json") for n in (3, 5)]
        for n, path in zip((3, 5), paths):
            io.save_chaos(pair_sum_element(n), path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 4, "n_samples": 5000, "p": 2,
                                        "members": paths, "limit": "standard-gaussian"}))
        out = str(tmp_path / "rep.json")
        assert cli.main(["verify", "shigekawa", "--config", str(cfg_path),
                         "--out", out]) in (0, 1)
        rows = io.load_report(out).rows
        assert [r["index"] for r in rows] == [0.0, 1.0]
        assert rows[1]["fourth_moment"] == pytest.approx(3.0 + 6.0 / 5)

    def test_verify_shigekawa_limit_above_p_exits_2(self, tmp_path, capsys):
        limit = str(tmp_path / "limit.json")
        io.save_chaos(single_integral(make_kernel(3, 3, [((1, 2, 3), 0.5)])), limit)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 1, "n_samples": 5000, "p": 2,
                                        "indices": [5, 10], "limit": limit}))
        out = tmp_path / "rep.json"
        assert cli.main(["verify", "shigekawa", "--config", str(cfg_path),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: limit of order 3 exceeds declared max order 2\n"
        assert not out.exists()

    def test_verify_reports_are_byte_identical(self, tmp_path):
        cfg = {"seed": 4, "n_samples": 5000, "indices": [6]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert cli.main(["verify", "fourth-moment", "--config", str(cfg_path),
                         "--out", out1]) == 0
        assert cli.main(["--threads", "4", "verify", "fourth-moment",
                         "--config", str(cfg_path), "--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_verify_missing_seed_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_samples": 5000, "indices": [4]}))
        assert cli.main(["verify", "fourth-moment", "--config", str(cfg_path)]) == 2
        assert "config/seed" in capsys.readouterr().err

    def test_verify_csv_format(self, tmp_path):
        out = str(tmp_path / "rows.csv")
        cfg = {"seed": 4, "n_samples": 5000, "indices": [6], "format": "csv",
               "output": out}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["verify", "fourth-moment", "--config", str(cfg_path)]) == 0
        header = open(out).readline()
        assert "fourth_moment" in header

    def test_verify_dball_with_chaos_file(self, tmp_path, chaos_file):
        cfg = {"seed": 4, "n_samples": 20000, "chaos": chaos_file,
               "lambdas": [1.0, 0.5]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["verify", "dball", "--config", str(cfg_path)]) == 0

    def test_verify_dball_order_6_exits_2(self, tmp_path, capsys):
        # the carre du champ of an order-6 element would reach order 10
        chaos_path = str(tmp_path / "q6.json")
        io.save_chaos(ChaosElement(2, 0.0, {6: make_kernel(6, 2, [((1, 1, 1, 2, 2, 2), 1.0)])}),
                      chaos_path)
        out = tmp_path / "rep.json"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 4, "n_samples": 20000, "chaos": chaos_path,
                                        "lambdas": [1.0]}))
        assert cli.main(["verify", "dball", "--config", str(cfg_path),
                         "--out", str(out)]) == 2
        assert "order 10 exceeds cap 8" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_moo_inline_spec(self, tmp_path):
        cfg = {"seed": 4, "n_samples": 5000,
               "specs": [{"coeffs": [{"subset": [1], "c": 0.7071067811865476},
                                     {"subset": [2], "c": 0.7071067811865476}],
                          "law": "rademacher"}]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        # a single spec family cannot fail the monotone check; gate is generous
        assert cli.main(["verify", "moo", "--config", str(cfg_path)]) in (0, 1)

    def test_verify_moo_threads_reach_sampling(self, tmp_path, monkeypatch):
        import chaoslab.chaos as chaos
        real, seen = chaos.gaussian_matrix, []

        def spy(dim, n_samples, *args, **kwargs):
            seen.append(n_samples)
            return real(dim, n_samples, *args, **kwargs)

        monkeypatch.setattr(chaos, "gaussian_matrix", spy)
        # one block at one thread; two threads split the rows into two blocks
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 4, "n_samples": 70_000, "sizes": [3]}))
        outs = [str(tmp_path / f"{t}.json") for t in (1, 2)]
        for threads, out, rows in zip((1, 2), outs, ([70_000], [35_000, 35_000])):
            seen.clear()
            assert cli.main(["--threads", str(threads), "verify", "moo",
                             "--config", str(cfg_path), "--out", out]) in (0, 1)
            assert seen == rows
        assert open(outs[0], "rb").read() == open(outs[1], "rb").read()

    def test_console_script_smoke(self, chaos_file):
        proc = subprocess.run([sys.executable, "-m", "chaoslab.cli", "moments",
                               "--chaos", chaos_file, "--max", "2"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == ["m1=0", "m2=2"]


class TestConfigExitCodes:
    """Malformed configs are bad input: exit 2 naming the field, never 1."""

    K2 = {"order": 2, "dim": 2, "entries": [{"idx": [1, 1], "coef": 0.5}]}
    K1 = {"order": 1, "dim": 2, "entries": [{"idx": [1], "coef": 0.5}]}

    @pytest.mark.parametrize("experiment, cfg, where", [
        ("d12", {"alpha": 1.0, "members": [{"dim": 1}], "limit": "standard-gaussian"},
         "config/members/0"),
        ("d12", {"alpha": 1.0, "members": [5], "limit": "standard-gaussian"},
         "config/members/0"),
        ("cw", 5, "config"),
        ("fourth-moment", {"indices": [{}]}, "config/indices/0"),
        ("fourth-moment", {"indices": [True]}, "config/indices/0"),
        ("dm", {"k": 2, "base": K2, "direction": K2, "scales": ["0.5"]},
         "config/scales/0"),
        ("d12", {"alpha": 1.0, "base": K2, "direction": K1, "scales": [0.5]},
         "config/direction"),
    ])
    def test_exits_2_with_location(self, tmp_path, capsys, experiment, cfg, where):
        if isinstance(cfg, dict):
            cfg = {"seed": 1, "n_samples": 5000, **cfg}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["verify", experiment, "--config", str(cfg_path)]) == 2
        assert f"error: {where}:" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, cfg, where", [
        ("fourth-moment", {"indices": [6], "k": {}}, "config/k"),
        ("pt", {"indices": [4], "covariance": [[{}]]}, "config/covariance/0/0"),
        ("pt", {"indices": [4], "covariance": [5]}, "config/covariance/0"),
        ("moo", {"specs": [{"coeffs": [{"subset": [1], "c": 1.0}],
                            "law": "discrete", "values": 5}]},
         "config/specs/0/values"),
        ("moo", {"specs": [{"coeffs": [{"subset": [1], "c": 1.0}], "law": "discrete",
                            "values": [-1.0, 1.0], "probs": [0.5, None]}]},
         "config/specs/0/probs/1"),
    ])
    def test_optional_fields_exit_2_with_location(self, tmp_path, capsys,
                                                 experiment, cfg, where):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 1, "n_samples": 10_000, **cfg}))
        assert cli.main(["verify", experiment, "--config", str(cfg_path)]) == 2
        assert f"error: {where}:" in capsys.readouterr().err

    # json reads NaN, Infinity and -Infinity, and 1e400 as inf; "BAD" marks the slot
    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1e400"])
    @pytest.mark.parametrize("experiment, cfg, where", [
        ("cw", {"chaos": H2_DICT, "alphas": [1.0, "BAD"]}, "config/alphas/1"),
        ("d12", {"alpha": "BAD", "base": K2, "direction": K2, "scales": [0.5]},
         "config/alpha"),
        ("dm", {"k": 2, "base": K2, "direction": K2, "scales": ["BAD"]},
         "config/scales/0"),
        ("pt", {"indices": [4], "covariance": [[1.0, 0.0], [0.0, "BAD"]]},
         "config/covariance/1/1"),
    ])
    def test_non_finite_numbers_exit_2(self, tmp_path, capsys, bad, experiment,
                                       cfg, where):
        cfg_path = tmp_path / "cfg.json"
        text = json.dumps({"seed": 1, "n_samples": 10_000, **cfg})
        cfg_path.write_text(text.replace('"BAD"', bad))
        out = tmp_path / "rep.json"
        assert cli.main(["verify", experiment, "--config", str(cfg_path),
                         "--out", str(out)]) == 2
        assert f"error: {where}: expected a finite number" in capsys.readouterr().err
        assert not out.exists()

    # each integer is refused where the config is read, before any experiment runs
    @pytest.mark.parametrize("experiment, cfg, where, least", [
        ("fourth-moment", {"indices": [6], "k": 0}, "config/k", 2),
        ("fourth-moment", {"indices": [6], "k": 1}, "config/k", 2),
        ("shigekawa", {"p": 0, "indices": [6], "limit": "standard-gaussian"}, "config/p", 1),
        ("dm", {"k": 0, "base": K2, "direction": K2, "scales": [0.5]}, "config/k", 1),
    ])
    def test_integers_below_their_least_exit_2(self, tmp_path, capsys, experiment, cfg,
                                               where, least):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 1, "n_samples": 5000, **cfg}))
        out = tmp_path / "rep.json"
        assert cli.main(["verify", experiment, "--config", str(cfg_path),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: {where}: expected an integer >= {least}, got {cfg[where[7:]]}\n"
        assert not out.exists()

    def test_integer_beyond_float_range_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 1, "n_samples": 10_000, "chaos": H2_DICT,
                                        "alphas": [10 ** 400]}))
        assert cli.main(["verify", "cw", "--config", str(cfg_path)]) == 2
        assert "error: config/alphas/0: expected a finite number" in capsys.readouterr().err

    def test_fourth_moment_outside_chaos_k_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        out = tmp_path / "rep.json"
        cfg_path.write_text(json.dumps({"seed": 1, "n_samples": 5000, "k": 3,
                                        "indices": [6, 12]}))
        assert cli.main(["verify", "fourth-moment", "--config", str(cfg_path),
                         "--out", str(out)]) == 2
        assert "is not in chaos 3" in capsys.readouterr().err
        assert not out.exists()

    def test_d12_members_accept_standard_gaussian_limit(self, tmp_path):
        member = tmp_path / "m.json"
        io.save_chaos(basis_element(1, 1), str(member))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 1, "n_samples": 5000, "alpha": 1.0,
                                        "members": [str(member)],
                                        "limit": "standard-gaussian"}))
        assert cli.main(["verify", "d12", "--config", str(cfg_path)]) in (0, 1)


class TestUncheckedFieldsExit2:
    """Fields and grids that once reached neither validator: each exits 2
    naming the field and writes no report."""

    K2 = TestConfigExitCodes.K2
    SPEC = {"coeffs": [{"subset": [1], "c": 1.0}]}

    @pytest.mark.parametrize("experiment, cfg, where", [
        ("fourth-moment", {"indices": [6], "output": 5}, "config/output"),
        ("fourth-moment", {"indices": [6], "format": "xml"}, "config/format"),
        ("moo", {"sizes": [0]}, "config/sizes/0"),
        ("pt", {"indices": []}, "config/indices"),
        ("moo", {"sizes": []}, "config/sizes"),
        ("d12", {"alpha": 1.0, "members": [], "limit": "standard-gaussian"},
         "config/members"),
        ("fourth-moment", {"indices": [0]}, "config/indices/0"),
        ("dm", {"k": 2, "base": K2, "direction": K2, "scales": []}, "config/scales"),
        ("cw", {"chaos": H2_DICT, "alphas": []}, "config/alphas"),
        ("dball", {"chaos": H2_DICT, "lambdas": []}, "config/lambdas"),
        ("moo", {"specs": []}, "config/specs"),
        ("moo", {"specs": [{**SPEC, "law": 5}]}, "config/specs/0/law"),
    ])
    def test_exits_2_with_location(self, tmp_path, capsys, experiment, cfg, where):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 1, "n_samples": 10_000, **cfg}))
        out = tmp_path / "rep.json"
        assert cli.main(["verify", experiment, "--config", str(cfg_path),
                         "--out", str(out)]) == 2
        assert f"error: {where}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("point", ["nan", "inf", "-inf", "1e400"])
    def test_eval_rejects_non_finite_point(self, chaos_file, capsys, point):
        assert cli.main(["eval", "--chaos", chaos_file, f"--point={point}"]) == 2
        assert "error: --point/0: expected a finite number" in capsys.readouterr().err


# Small valid inputs: every verify run below takes well under a second.
K2B = {"order": 2, "dim": 2, "entries": [{"idx": [1, 2], "coef": 0.5}]}
FUZZ_CONFIGS = [
    ("fourth-moment", {"seed": 1, "n_samples": 1000, "k": 2, "indices": [2],
                       "output": "unused.json", "format": "json"}),
    ("shigekawa", {"seed": 1, "n_samples": 1000, "p": 2, "indices": [2],
                   "limit": "standard-gaussian"}),
    ("dm", {"seed": 1, "n_samples": 1000, "k": 2, "base": TestConfigExitCodes.K2,
            "direction": K2B, "scales": [0.5, 0.25]}),
    ("d12", {"seed": 1, "n_samples": 1000, "alpha": 1.0, "base": TestConfigExitCodes.K2,
             "direction": K2B, "scales": [0.5]}),
    ("cw", {"seed": 1, "n_samples": 10_000, "chaos": H2_DICT, "alphas": [1.0]}),
    ("dball", {"seed": 1, "n_samples": 10_000, "chaos": H2_DICT, "lambdas": [1.0]}),
    ("pt", {"seed": 1, "n_samples": 10_000, "indices": [1],
            "covariance": [[1.0, 0.0], [0.0, 1.0]]}),
    ("moo", {"seed": 1, "n_samples": 1000, "sizes": [2]}),
    ("moo", {"seed": 1, "n_samples": 1000, "specs": [
        {"coeffs": [{"subset": [1], "c": 0.6}, {"subset": [1, 2], "c": 0.8}],
         "law": "discrete", "values": [-1.0, 1.0], "probs": [0.5, 0.5]}]}),
]
FUZZ_CHAOS = {"dim": 2, "constant": 0.5, "kernels": [
    {"order": 1, "dim": 2, "entries": [{"idx": [2], "coef": -1.0}]},
    {"order": 2, "dim": 2, "entries": [{"idx": [1, 1], "coef": 1.0},
                                       {"idx": [1, 2], "coef": 0.25}]}]}


@pytest.mark.parametrize("names, loads_scipy", [
    (["fourth-moment", "pt", "shigekawa", "moo", "dm", "d12"], False),
    (["cw"], True), (["dball"], True)])
def test_verify_scipy_footprint(tmp_path, names, loads_scipy):
    """Only small_ball (cw, dball) loads scipy; KDE-TV (fourth-moment, pt,
    and tv_vs_density as a library call) and the rest of verify do not."""
    argvs = []
    for i, (name, cfg) in enumerate(c for c in FUZZ_CONFIGS if c[0] in names):
        (tmp_path / f"cfg{i}.json").write_text(json.dumps(cfg))
        argvs.append(["verify", name, "--config", str(tmp_path / f"cfg{i}.json"),
                      "--out", str(tmp_path / f"rep{i}.json")])
    code = ("import json, sys\n"
            "import chaoslab.cli\n"
            "from chaoslab import rng, tv_vs_density\n"
            f"codes = [chaoslab.cli.main(argv) for argv in {argvs!r}]\n"
            "tv_vs_density(rng.gaussians(1, 0, 2000), 0.5, 2.0, n_boot=5)\n"
            "print(json.dumps([codes, sorted(m for m in sys.modules\n"
            "                                if m.split('.')[0] == 'scipy')]))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    codes, modules = json.loads(proc.stdout.splitlines()[-1])
    assert len(codes) == len(argvs) >= len(names) and set(codes) <= {0, 1}
    if loads_scipy:
        assert "scipy.special" in modules
    else:
        assert modules == []


DELETE = object()
RENAME = object()
# small integers only, so no mutation asks for a huge run; the floats include
# finite values near the limit, whose squares and pairwise products overflow
SCALARS = (st.none() | st.booleans() | st.integers(-3, 5)
           | st.sampled_from([0.0, 0.5, -1.0, 1e200, -1e200, 1e308, 1.7e308, -1.7e308,
                              float("nan"), float("inf"), -float("inf")])
           | st.sampled_from(["", "x", "json", "csv", "standard-gaussian",
                              "rademacher", "discrete", "gaussian"]))
JSON_VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["file", "order", "dim", "entries", "idx",
                                       "coef", "subset", "c"]), inner, max_size=3),
    max_leaves=6)


def _paths(obj, prefix=()):
    """Every location inside obj, as a tuple of keys and list indices."""
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, val in items:
        yield prefix + (key,)
        yield from _paths(val, prefix + (key,))


# every key of the base inputs, plus one that no reader knows
KEY_NAMES = sorted({path[-1] for _, base in FUZZ_CONFIGS + [("chaos", FUZZ_CHAOS)]
                    for path in _paths(base) if isinstance(path[-1], str)} | {"x"})


@st.composite
def mutated(draw, bases):
    """One of bases with a single field replaced by a JSON value, deleted,
    or (for a key of an object) renamed to another known key."""
    name, base = draw(st.sampled_from(bases))
    path = draw(st.sampled_from(list(_paths(base))))
    change = st.just(DELETE) | SCALARS | st.lists(SCALARS, max_size=3) | JSON_VALUES
    if isinstance(path[-1], str):
        change |= st.just(RENAME)
    new = draw(change)
    out = copy.deepcopy(base)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if new is DELETE:
        del parent[path[-1]]
    elif new is RENAME:
        parent[draw(st.sampled_from(KEY_NAMES))] = parent.pop(path[-1])
    else:
        parent[path[-1]] = new
    return name, out


class TestCliFuzz:
    """Mutated inputs keep the exit-code contract: 0, 1 or 2 and never an
    exception; exit 1 only with a written report, exit 2 with none, and a
    written report holds no NaN or Infinity."""

    @given(mutated(FUZZ_CONFIGS))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_mutated_verify_configs(self, case):
        experiment, cfg = case
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "rep.json")
            with open(cfg_path, "w") as fh:
                json.dump(cfg, fh)
            code = cli.main(["verify", experiment, "--config", cfg_path, "--out", out])
            assert code in (0, 1, 2)
            if code == 1:
                assert os.path.exists(out)
            if code == 2:
                assert not os.path.exists(out)
            elif os.path.exists(out):
                with open(out) as fh:
                    text = fh.read()
                assert "NaN" not in text and "Infinity" not in text

    @given(mutated([("chaos", FUZZ_CHAOS)]))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_mutated_chaos_files(self, case):
        with tempfile.TemporaryDirectory() as tmp:
            path, out = os.path.join(tmp, "f.json"), os.path.join(tmp, "s.csv")
            with open(path, "w") as fh:
                json.dump(case[1], fh)
            for argv in (["moments", "--chaos", path],
                         ["eval", "--chaos", path, "--point", "0.5,-1"]):
                assert cli.main(argv) in (0, 2)
            code = cli.main(["sample", "--chaos", path, "-n", "20", "--seed", "1",
                             "--out", out])
            assert code in (0, 2)
            assert os.path.exists(out) == (code == 0)


class TestUnknownConfigKeys:
    """A config key that no reader asks for (a typo, or a field that another
    field makes unused) exits 2 naming it, before anything is sampled."""

    K2 = TestConfigExitCodes.K2
    SPEC = {"coeffs": [{"subset": [1], "c": 1.0}]}

    @pytest.mark.parametrize("experiment, cfg, where", [
        ("fourth-moment", {"indices": [6], "fromat": "csv"}, "config/fromat"),
        ("d12", {"alpha": 1.0, "base": K2, "direction": K2B, "scales": [0.5],
                 "members": ["m.json"]}, "config/members"),
        ("moo", {"specs": [{**SPEC, "valeus": [1.0]}]}, "config/specs/0/valeus"),
        ("moo", {"sizes": [2], "specs": [SPEC]}, "config/specs"),
        ("shigekawa", {"p": 2, "indices": [2], "members": ["m.json"],
                       "limit": "standard-gaussian"}, "config/members"),
        ("dm", {"k": 2, "base": {**K2, "note": "x"}, "direction": K2B, "scales": [0.5]},
         "config/base/note"),
        ("dm", {"k": 2, "base": K2, "direction": K2B, "scales": [0.5],
                "output": "r.json", "extra": 1}, "config/extra"),
        ("cw", {"chaos": {**H2_DICT, "kernels": [{**H2_DICT["kernels"][0], "x": 1}]},
                "alphas": [1.0]}, "config/chaos/kernels/0/x"),
    ])
    def test_exits_2_naming_the_key(self, tmp_path, capsys, experiment, cfg, where):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 4, "n_samples": 10_000, **cfg}))
        out = tmp_path / "rep.json"
        assert cli.main(["verify", experiment, "--config", str(cfg_path),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {where}: unknown field\n"
        assert not out.exists()

    def test_chaos_file_reference_is_read(self, tmp_path, chaos_file):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 1, "n_samples": 10_000,
                                        "chaos": {"file": chaos_file}, "alphas": [1.0]}))
        assert cli.main(["verify", "cw", "--config", str(cfg_path)]) == 0


BIG_DICT = {"dim": 2, "constant": 0.0, "kernels": [
    {"order": 2, "dim": 2, "entries": [{"idx": [1, 1], "coef": 1e308}]}]}


class TestNonFiniteResults:
    """Finite inputs whose results overflow exit 2: nothing non-finite is
    printed and no file is written."""

    @pytest.fixture
    def big_file(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(BIG_DICT))
        return str(path)

    def test_moments_print_nothing(self, big_file, capsys):
        assert cli.main(["moments", "--chaos", big_file, "--max", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: covariance is not finite: inf" in captured.err

    def test_eval(self, big_file, capsys):
        assert cli.main(["eval", "--chaos", big_file, "--point", "2,0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: eval: expected a finite number" in captured.err

    def test_sample_writes_no_file(self, big_file, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert cli.main(["sample", "--chaos", big_file, "-n", "10", "--seed", "1",
                         "--out", str(out)]) == 2
        assert "error: samples/" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["big.json"]

    @pytest.mark.parametrize("argv, message", [
        (["eval", "--point", "2,0"], "error: eval: expected a finite number"),
        (["sample", "-n", "10", "--seed", "1", "--out", "s.csv"], "error: samples/")])
    def test_overflow_is_bad_input_under_warnings_as_errors(self, big_file, tmp_path,
                                                             argv, message):
        # numpy's overflow warning must not turn exit 2 into a traceback
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "chaoslab.cli",
                               argv[0], "--chaos", big_file] + argv[1:],
                              capture_output=True, text=True, cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stdout == "" and message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert sorted(os.listdir(tmp_path)) == ["big.json"]

    @pytest.mark.parametrize("fmt, save", [("json", True), ("csv", True), ("json", False)])
    def test_verify_pt_overflow(self, tmp_path, capsys, monkeypatch, fmt, save):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the target was checked")

        monkeypatch.setattr(experiments, "sample", no_sampling)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 1, "n_samples": 10_000, "indices": [2],
                                        "covariance": [[1e308, 0.0], [0.0, 1.0]],
                                        "format": fmt}))
        out = tmp_path / "rep.out"
        argv = ["verify", "pt", "--config", str(cfg_path)] + (["--out", str(out)] if save else [])
        assert cli.main(argv) == 2
        assert "error: det Gamma target det(C) prod k_i = inf is not finite" in \
            capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]

    def test_writers_name_the_first_non_finite_value(self, tmp_path):
        rep = ExperimentReport("demo", 1, [{"a": 1.0, "b": {"c": [0.0, float("nan")]}},
                                           {"a": float("inf")}], "pass")
        for save in (io.save_report, io.save_rows_csv):
            with pytest.raises(io.SchemaError, match="^report/rows/0/b/c/1: expected a finite"):
                save(rep, str(tmp_path / "r.out"))
        vec = np.array([[0.0, 1.0], [2.0, -np.inf]])
        with pytest.raises(io.SchemaError, match="^samples/1/1: expected a finite"):
            io.save_samples_csv(vec, str(tmp_path / "s.csv"))
        assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("cov", [[[1.0, 0.5], [0.1, 1.0]],      # not symmetric
                                 [[-1.0, 0.0], [0.0, -1.0]]])   # det > 0, not definite
def test_verify_pt_refuses_covariance_before_sampling(tmp_path, capsys, monkeypatch, cov):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the covariance was checked")

    monkeypatch.setattr(experiments, "sample", no_sampling)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 1, "n_samples": 10_000, "indices": [2],
                                    "covariance": cov}))
    argv = ["verify", "pt", "--config", str(cfg_path), "--out", str(tmp_path / "rep.json")]
    assert cli.main(argv) == 2
    assert "error: target covariance must be symmetric" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


ORDER6_DICT = {"dim": 2, "constant": 0.0, "kernels": [
    {"order": 6, "dim": 2, "entries": [{"idx": [1, 1, 1, 2, 2, 2], "coef": 0.1}]}]}
K2_CHAOS = {"dim": 2, "constant": 0.0, "kernels": [TestConfigExitCodes.K2]}


@pytest.mark.parametrize("experiment, cfg, message", [
    # Gamma(diff, diff) of an order-6 member has order 10, above ORDER_CAP
    pytest.param("d12", {"alpha": 1.0, "members": ["MEMBER"], "limit": K2_CHAOS},
                 "error: carre du champ order 10 exceeds cap 8", id="d12-order-6"),
    # a constant limit has no gradient, so E||DF_inf||^-alpha is infinite
    pytest.param("d12", {"alpha": 1.0, "members": ["MEMBER"],
                         "limit": {"dim": 2, "constant": 0.0, "kernels": []}},
                 "error: limit has E||DF_inf||^2 = 0: the D^{1,2} rate needs a "
                 "nonconstant limit", id="d12-constant-limit"),
    pytest.param("dm", {"k": 3, "base": TestConfigExitCodes.K2, "direction": K2B,
                        "scales": [0.5]},
                 "error: limit is not in chaos 3: constant 0.0, kernel orders [2]",
                 id="dm-limit-order"),
    # base 0.5 H(1,1) plus -0.5 times H(1,1) cancels
    pytest.param("dm", {"k": 2, "base": TestConfigExitCodes.K2,
                        "direction": {"order": 2, "dim": 2,
                                      "entries": [{"idx": [1, 1], "coef": 1.0}]},
                        "scales": [0.25, -0.5]},
                 "error: member -0.5 is not in chaos 2: constant 0.0, kernel orders []",
                 id="dm-cancelled-member"),
    pytest.param("dball", {"chaos": ORDER6_DICT, "lambdas": [1.0]},
                 "error: carre du champ order 10 exceeds cap 8", id="dball-order-6"),
])
def test_exact_checks_refuse_before_sampling(tmp_path, capsys, monkeypatch, experiment,
                                             cfg, message):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the exact checks")

    monkeypatch.setattr(experiments, "sample", no_sampling)
    member = tmp_path / "m6.json"
    member.write_text(json.dumps(ORDER6_DICT))
    if "members" in cfg:
        cfg = {**cfg, "members": [str(member)]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 1, "n_samples": 10_000, **cfg}))
    out = tmp_path / "rep.json"
    assert cli.main(["verify", experiment, "--config", str(cfg_path),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


# the criterion-9 family: base H(1,1)/sqrt(2), direction 0.5 H(1,2)
DM_BASE = {"order": 2, "dim": 2, "entries": [{"idx": [1, 1], "coef": 0.7071067811865476}]}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scales, verdict, slope, code", [
    # every member at one kernel distance: polyfit had no slope to fit, warned,
    # and the run passed with a slope of noise
    ([0.25, -0.25, 0.25], "vacuous", "nan", 0),
    ([0.25, -0.125, 0.25], "pass", "1.4354", 0),
])
def test_dm_slope_needs_two_distinct_distances(tmp_path, capsys, scales, verdict, slope,
                                               code):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 3, "n_samples": 5000, "k": 2, "base": DM_BASE,
                                    "direction": K2B, "scales": scales}))
    out = tmp_path / "rep.json"
    assert cli.main(["verify", "dm", "--config", str(cfg_path), "--out", str(out)]) == code
    rep = json.loads(out.read_text())
    assert rep["verdict"] == verdict
    assert rep["notes"][1] == f"log-log slope = {slope}"
    assert "Warning" not in capsys.readouterr().err


@pytest.mark.parametrize("experiment, field, dist", [
    ("dm", {"k": 2}, "kernel_dist"),
    ("d12", {"alpha": 1}, "d12_norm"),
])
def test_stability_check_takes_two_distinct_distances(tmp_path, experiment, field, dist):
    # scales 0.25 and -0.25 sit at one distance, and the constant at the next
    # distance (scale 0.5) is 3.5x (dm) or 3.7x (d12) the smallest, which
    # the two smallest points alone miss
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 3, "n_samples": 5000, "base": DM_BASE,
                                    "direction": K2B, "scales": [0.25, -0.25, 0.5],
                                    **field}))
    out = tmp_path / "rep.json"
    assert cli.main(["verify", experiment, "--config", str(cfg_path), "--out", str(out)]) == 1
    rep = json.loads(out.read_text())
    assert rep["verdict"] == "fail"
    dists = [r[dist] for r in rep["rows"]]
    assert dists[0] == dists[1] < dists[2]
    cs = [r["fitted_c"] for r in rep["rows"]]
    assert max(cs[:2]) < 3.0 * min(cs[:2]) < cs[2]
