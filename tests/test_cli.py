import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import symhess
from symhess import gen_family1, read_matrix, write_matrix
from symhess.cli import main


posix_only = pytest.mark.skipif(sys.platform == "win32", reason="POSIX file semantics")


def run_cli(*args):
    return main([str(a) for a in args])


def parse_kv(capsys):
    out = capsys.readouterr().out
    pairs = {}
    for line in out.splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            pairs[key] = value
    return pairs


class TestGen:
    def test_writes_family_matrix(self, tmp_path):
        out = tmp_path / "a.txt"
        assert run_cli("gen", "--family", 1, "--n", 2, "--out", out) == 0
        assert out.read_text().splitlines()[0] == "4 4"
        assert np.array_equal(read_matrix(out), gen_family1(2))

    def test_unknown_family_exits_2(self, tmp_path):
        assert run_cli("gen", "--family", 3, "--n", 2,
                       "--out", tmp_path / "a.txt") == 2

    def test_small_n_exits_2(self, tmp_path):
        assert run_cli("gen", "--family", 1, "--n", 1,
                       "--out", tmp_path / "a.txt") == 2

    @pytest.mark.parametrize("family, n, message", [(3, 4, "family must be 1 or 2"),
                                                    (1, 1, "n must be >= 2")])
    def test_bad_family_or_n_message(self, tmp_path, capsys, family, n, message):
        assert run_cli("gen", "--family", family, "--n", n, "--out", tmp_path / "a.txt") == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bad_family_creates_no_file(self, tmp_path):
        assert run_cli("gen", "--family", 3, "--n", 4, "--out", tmp_path / "a.txt") == 2
        assert not (tmp_path / "a.txt").exists()

    def test_unwritable_path_exits_3(self, tmp_path):
        assert run_cli("gen", "--family", 1, "--n", 2,
                       "--out", tmp_path / "no" / "dir" / "a.txt") == 3


class TestReduce:
    def test_family1_jhmsh_pipeline(self, tmp_path, capsys):
        a_path = tmp_path / "a.txt"
        run_cli("gen", "--family", 1, "--n", 5, "--out", a_path)
        code = run_cli("reduce", a_path, "--algo", "jhmsh", "--fallback", "on",
                       "--out-h", tmp_path / "h.txt", "--out-s", tmp_path / "s.txt")
        kv = parse_kv(capsys)
        assert code == 0
        assert float(kv["red_err"]) <= 1e-7
        assert float(kv["orth_loss"]) <= 1e-7
        assert int(kv["fallbacks"]) == 1
        assert (tmp_path / "h.txt").exists()
        assert (tmp_path / "s.txt").exists()

    def test_breakdown_exits_4(self, tmp_path, capsys):
        a_path = tmp_path / "a.txt"
        run_cli("gen", "--family", 1, "--n", 5, "--out", a_path)
        code = run_cli("reduce", a_path, "--algo", "jhsh", "--fallback", "off")
        kv = parse_kv(capsys)
        assert code == 4
        assert kv["step"] == "1"
        assert kv["substep"] == "odd"
        assert kv["kind"] == "ZeroNu"

    def test_rho_equal_to_a1_exits_4(self, tmp_path, capsys):
        # it used to exit 0 with red_err=5: rho = a(1) of the working column
        # gave an identity record, which the exact zeros then hid
        a_path, p_path = tmp_path / "a.txt", tmp_path / "p.txt"
        a_path.write_text("4 4\n1 0 0 0\n0 1 3 0\n2 0 1 0\n0 0 5 1\n")
        p_path.write_text("3\n0.5\n")
        code = run_cli("reduce", a_path, "--algo", "jhsh", "--strategy", f"fixed:{p_path}")
        assert code == 4
        assert capsys.readouterr().out == "step=1\nsubstep=even\nkind=InvalidParam\n"

    def test_overflow_exits_4(self, tmp_path, capsys):
        a_path = tmp_path / "a.txt"
        run_cli("gen", "--family", 2, "--n", 27, "--out", a_path)
        code = run_cli("reduce", a_path, "--algo", "jhsh", "--strategy", "seeded:7")
        kv = parse_kv(capsys)
        assert code == 4
        assert (kv["step"], kv["substep"], kv["kind"]) == ("23", "even", "NonFinite")
        assert "orth_loss" not in kv

    def test_odd_sized_input_exits_5(self, tmp_path):
        path = tmp_path / "m.txt"
        write_matrix(path, np.eye(3))
        assert run_cli("reduce", path, "--algo", "jhmsh") == 5

    def test_missing_input_exits_3(self, tmp_path):
        assert run_cli("reduce", tmp_path / "absent.txt", "--algo", "jhmsh") == 3

    def test_undecodable_input_exits_3(self, tmp_path, capsys):
        path = tmp_path / "m.bin"
        path.write_bytes(b"\x89PNG\r\n\x1a\n\x00\xff")
        assert run_cli("reduce", path, "--algo", "jhmsh") == 3
        assert "ASCII" in capsys.readouterr().err

    def test_unknown_algo_exits_2(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("the name must be checked before the file is read")

        path = tmp_path / "m.txt"
        write_matrix(path, np.eye(4))
        monkeypatch.setattr(symhess.cli, "read_matrix", refuse)
        assert run_cli("reduce", path, "--algo", "qr") == 2

    def test_algo_name_in_any_case(self, tmp_path, capsys):
        path = tmp_path / "a.txt"
        write_matrix(path, gen_family1(4))
        assert run_cli("reduce", path, "--algo", "jhmsh2") == 0
        lower = capsys.readouterr().out
        assert run_cli("reduce", path, "--algo", "JHMSH2") == 0
        assert capsys.readouterr().out == lower
        assert [line.split("=")[0] for line in lower.splitlines()] == [
            "orth_loss", "red_err", "fallbacks"]

    def test_seeded_strategy(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        write_matrix(path, np.random.default_rng(1).standard_normal((6, 6)))
        code = run_cli("reduce", path, "--algo", "jhsh", "--strategy", "seeded:1")
        assert code == 0
        assert float(parse_kv(capsys)["red_err"]) < 1e-6

    def test_fixed_strategy_file(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        write_matrix(path, np.random.default_rng(1).standard_normal((6, 6)))
        params = tmp_path / "params.txt"
        # alternating rho, mu per step
        params.write_text("1.0\n0.5\n-1.5\n2.0\n")
        code = run_cli("reduce", path, "--algo", "jhsh",
                       "--strategy", f"fixed:{params}")
        assert code == 0

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_fixed_strategy_exits_2(self, tmp_path, capsys, value):
        path = tmp_path / "m.txt"
        write_matrix(path, np.random.default_rng(1).standard_normal((6, 6)))
        params = tmp_path / "params.txt"
        params.write_text(f"{value}\n{value}\n{value}\n{value}\n")
        assert run_cli("reduce", path, "--algo", "jhsh",
                       "--strategy", f"fixed:{params}") == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_pivot_tol_exits_2(self, tmp_path, capsys, tol):
        path = tmp_path / "m.txt"
        write_matrix(path, np.eye(4))
        assert run_cli("reduce", path, "--algo", "jhmsh", f"--pivot-tol={tol}") == 2
        assert "pivot_tol" in capsys.readouterr().err

    def test_zero_rho_fixed_strategy_exits_2(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        write_matrix(path, np.random.default_rng(1).standard_normal((6, 6)))
        params = tmp_path / "params.txt"
        params.write_text("0.0\n0.5\n1.0\n2.0\n")
        assert run_cli("reduce", path, "--algo", "jhsh",
                       "--strategy", f"fixed:{params}") == 2
        assert "nonzero" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        "١.5\n0.5\n1.0\n2.0\n".encode("utf-8"),  # Arabic-Indic one: float() reads 1.5
        b"\xff\xfe" + "1.5\n0.5\n1.0\n2.0\n".encode("utf-16-le"),
    ], ids=["arabic_indic_digit", "utf16_bom"])
    def test_non_ascii_fixed_strategy_exits_2(self, tmp_path, capsys, content):
        # the strategy file is ASCII, like a matrix file, whatever the locale
        path = tmp_path / "m.txt"
        write_matrix(path, np.random.default_rng(1).standard_normal((6, 6)))
        params = tmp_path / "params.txt"
        params.write_bytes(content)
        assert run_cli("reduce", path, "--algo", "jhsh",
                       "--strategy", f"fixed:{params}") == 2
        assert "must hold one float per line" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64), hex(2 ** 64)])
    def test_seed_outside_u64_exits_2(self, tmp_path, capsys, seed):
        # the generator keeps 64 bits, so 2^64 would run as seed 0
        path = tmp_path / "m.txt"
        write_matrix(path, np.random.default_rng(1).standard_normal((6, 6)))
        assert run_cli("reduce", path, "--algo", "jhsh", "--strategy", f"seeded:{seed}") == 2
        assert "seed must be" in capsys.readouterr().err

    def test_largest_u64_seed_runs(self, tmp_path):
        path = tmp_path / "m.txt"
        write_matrix(path, np.random.default_rng(1).standard_normal((6, 6)))
        assert run_cli("reduce", path, "--algo", "jhsh",
                       "--strategy", f"seeded:{2 ** 64 - 1}") == 0

    def test_bad_strategy_exits_2(self, tmp_path):
        path = tmp_path / "m.txt"
        write_matrix(path, np.eye(4))
        assert run_cli("reduce", path, "--algo", "jhmsh", "--strategy", "magic") == 2

    def test_missing_strategy_file_exits_3(self, tmp_path):
        path = tmp_path / "m.txt"
        write_matrix(path, np.eye(4))
        assert run_cli("reduce", path, "--algo", "jhsh",
                       "--strategy", f"fixed:{tmp_path / 'absent'}") == 3

    @pytest.mark.parametrize("shape, words", [((3, 3), "have even size, got 3"),
                                              ((4, 6), "be square, got shape (4, 6)")])
    def test_bad_shape_exits_5_naming_the_shape(self, tmp_path, capsys, shape, words):
        path = tmp_path / "m.txt"
        write_matrix(path, np.ones(shape))
        assert run_cli("reduce", path, "--algo", "jhmsh") == 5
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: matrix must {words}\n"

    def test_non_numeric_seed_exits_2(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        write_matrix(path, np.eye(4))
        assert run_cli("reduce", path, "--algo", "jhsh", "--strategy", "seeded:abc") == 2
        assert "bad seed" in capsys.readouterr().err

    def test_odd_count_fixed_strategy_exits_2(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        write_matrix(path, np.eye(4))
        params = tmp_path / "params.txt"
        params.write_text("1.0\n0.5\n2.0\n")
        assert run_cli("reduce", path, "--algo", "jhsh",
                       "--strategy", f"fixed:{params}") == 2
        assert "even count" in capsys.readouterr().err

    def test_mu_meeting_the_working_column_exits_4(self, tmp_path, capsys):
        # after the step-1 rescue of family 1, a(1) is 1.0: no caller could
        # know that, so mu = 1.0 is a breakdown, not a bad argument
        path = tmp_path / "m.txt"
        write_matrix(path, gen_family1(4))
        params = tmp_path / "params.txt"
        params.write_text("1.0\n1.0\n" * 3)
        assert run_cli("reduce", path, "--algo", "jhsh",
                       "--strategy", f"fixed:{params}") == 4
        kv = parse_kv(capsys)
        assert (kv["step"], kv["substep"], kv["kind"]) == ("1", "odd", "InvalidParam")


class TestOutputPathsCheckedFirst:
    """An unwritable output path exits 3 before any reduction runs, and a
    command that fails creates and truncates no output file."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the output paths must be checked first")

        monkeypatch.setattr(symhess.cli, "reduce", refuse)
        monkeypatch.setattr(symhess.cli, "run_sweep", refuse)

    @pytest.mark.parametrize("flag", ["--out-h", "--out-s"])
    def test_reduce_missing_directory_exits_3(self, tmp_path, capsys, no_work, flag):
        a_path = tmp_path / "a.txt"
        write_matrix(a_path, gen_family1(3))
        missing = tmp_path / "missing" / "dir" / "m.txt"
        assert run_cli("reduce", a_path, "--algo", "jhmsh", flag, missing) == 3
        assert "No such file or directory" in capsys.readouterr().err
        assert not missing.parent.exists()

    def test_reduce_directory_as_output_exits_3(self, tmp_path, no_work):
        a_path = tmp_path / "a.txt"
        write_matrix(a_path, gen_family1(3))
        assert run_cli("reduce", a_path, "--algo", "jhmsh", "--out-h", tmp_path) == 3

    def test_experiment_missing_directory_exits_3(self, tmp_path, capsys, no_work):
        missing = tmp_path / "missing" / "dir" / "t.csv"
        assert run_cli("experiment", "--family", 1, "--n-min", 2, "--n-max", 150,
                       "--algos", "jhmsh", "--out", missing) == 3
        assert "No such file or directory" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--out-h", "--out-s"])
    def test_reduce_empty_path_exits_3(self, tmp_path, capsys, no_work, flag):
        a_path = tmp_path / "a.txt"
        write_matrix(a_path, gen_family1(3))
        assert run_cli("reduce", a_path, "--algo", "jhmsh", flag, "") == 3
        assert "No such file or directory: ''" in capsys.readouterr().err

    def test_experiment_empty_path_exits_3(self, capsys, no_work):
        assert run_cli("experiment", "--family", 1, "--n-min", 2, "--n-max", 150,
                       "--algos", "jhmsh", "--out", "") == 3
        assert "No such file or directory: ''" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--out-h", "--out-s"])
    @pytest.mark.parametrize("name", ["new", "a.txt"])
    def test_reduce_trailing_separator_exits_3(self, tmp_path, capsys, no_work, flag, name):
        # open() cannot create "new/" or write "a.txt/"; abspath drops the slash
        a_path = tmp_path / "a.txt"
        write_matrix(a_path, gen_family1(3))
        before = a_path.read_bytes()
        target = str(tmp_path / name) + os.sep
        assert run_cli("reduce", a_path, "--algo", "jhmsh", flag, target) == 3
        assert "Is a directory" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()
        assert a_path.read_bytes() == before

    def test_experiment_trailing_separator_exits_3(self, tmp_path, capsys, no_work):
        target = str(tmp_path / "new") + os.sep
        assert run_cli("experiment", "--family", 1, "--n-min", 2, "--n-max", 150,
                       "--algos", "jhmsh", "--out", target) == 3
        assert "Is a directory" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    def test_breakdown_leaves_outputs_alone(self, tmp_path, capsys):
        a_path, h_path, s_path = tmp_path / "a.txt", tmp_path / "h.txt", tmp_path / "s.txt"
        write_matrix(a_path, gen_family1(5))
        h_path.write_text("keep\n")
        assert run_cli("reduce", a_path, "--algo", "jhsh", "--fallback", "off",
                       "--out-h", h_path, "--out-s", s_path) == 4
        assert h_path.read_text() == "keep\n"
        assert not s_path.exists()

    def test_bad_arguments_leave_outputs_alone(self, tmp_path):
        a_path, out = tmp_path / "a.txt", tmp_path / "out.txt"
        write_matrix(a_path, gen_family1(3))
        out.write_text("keep\n")
        assert run_cli("reduce", a_path, "--algo", "jhmsh", "--strategy", "magic",
                       "--out-h", out, "--out-s", tmp_path / "new.txt") == 2
        assert run_cli("experiment", "--family", 3, "--n-min", 2, "--n-max", 3,
                       "--algos", "jhmsh", "--out", out) == 2
        assert run_cli("experiment", "--family", 1, "--n-min", 2, "--n-max", 3,
                       "--algos", "jhmsh", "--format", "xml", "--out", out) == 2
        assert out.read_text() == "keep\n"
        assert not (tmp_path / "new.txt").exists()


class TestRewrite:
    """gen and reduce rewrite their output files in place."""

    def test_gen_over_larger_file_matches_fresh(self, tmp_path):
        out, fresh = tmp_path / "a.txt", tmp_path / "fresh.txt"
        assert run_cli("gen", "--family", 2, "--n", 9, "--out", out) == 0
        assert run_cli("gen", "--family", 1, "--n", 3, "--out", out) == 0
        assert run_cli("gen", "--family", 1, "--n", 3, "--out", fresh) == 0
        assert out.read_bytes() == fresh.read_bytes()

    @posix_only
    def test_reduce_rewrites_through_symlink_keeping_inode(self, tmp_path, capsys):
        a_path, h_path, link = tmp_path / "a.txt", tmp_path / "h.txt", tmp_path / "h_link.txt"
        run_cli("gen", "--family", 1, "--n", 6, "--out", a_path)
        write_matrix(h_path, np.ones((20, 20)))
        link.symlink_to(h_path)
        inode = os.stat(h_path).st_ino
        assert run_cli("reduce", a_path, "--algo", "jhmsh2", "--out-h", link,
                       "--out-s", tmp_path / "s.txt") == 0
        assert link.is_symlink()
        assert os.stat(h_path).st_ino == inode
        capsys.readouterr()
        assert run_cli("check", a_path, tmp_path / "s.txt", link) == 0

    @posix_only
    def test_out_s_dev_null_exits_0(self, tmp_path, capsys):
        a_path = tmp_path / "a.txt"
        run_cli("gen", "--family", 1, "--n", 5, "--out", a_path)
        code = run_cli("reduce", a_path, "--algo", "jhmsh", "--out-s", os.devnull)
        assert code == 0
        assert "red_err" in parse_kv(capsys)


class TestCheck:
    def test_valid_factorization_exits_0(self, tmp_path, capsys):
        a_path = tmp_path / "a.txt"
        run_cli("gen", "--family", 1, "--n", 5, "--out", a_path)
        run_cli("reduce", a_path, "--algo", "jhmsh",
                "--out-h", tmp_path / "h.txt", "--out-s", tmp_path / "s.txt")
        capsys.readouterr()
        code = run_cli("check", a_path, tmp_path / "s.txt", tmp_path / "h.txt")
        kv = parse_kv(capsys)
        assert code == 0
        assert kv["is_upper_j_hessenberg"] == "true"
        assert float(kv["red_err"]) <= 1e-7

    def test_structure_violation_exits_6(self, tmp_path):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6))
        write_matrix(tmp_path / "a.txt", a)
        write_matrix(tmp_path / "s.txt", np.eye(6))
        write_matrix(tmp_path / "h.txt", a)  # H = A is not J-Hessenberg
        code = run_cli("check", tmp_path / "a.txt", tmp_path / "s.txt",
                       tmp_path / "h.txt")
        assert code == 6

    def test_missing_input_exits_3(self, tmp_path):
        write_matrix(tmp_path / "a.txt", np.eye(4))
        assert run_cli("check", tmp_path / "a.txt", tmp_path / "absent.txt",
                       tmp_path / "a.txt") == 3

    def test_undecodable_input_exits_3(self, tmp_path, capsys):
        write_matrix(tmp_path / "a.txt", np.eye(4))
        (tmp_path / "s.bin").write_bytes(b"\x89PNG\r\n\x1a\n\x00\xff")
        assert run_cli("check", tmp_path / "a.txt", tmp_path / "s.bin",
                       tmp_path / "a.txt") == 3
        assert "ASCII" in capsys.readouterr().err

    def test_dimension_mismatch_exits_5(self, tmp_path):
        write_matrix(tmp_path / "a.txt", np.eye(4))
        write_matrix(tmp_path / "s.txt", np.eye(6))
        write_matrix(tmp_path / "h.txt", np.eye(4))
        assert run_cli("check", tmp_path / "a.txt", tmp_path / "s.txt",
                       tmp_path / "h.txt") == 5

    @pytest.mark.parametrize("shapes", [((4, 4), (3, 3), (4, 4)), ((4, 6), (4, 4), (4, 4)),
                                        ((4, 4), (4, 4), (6, 6))])
    def test_bad_shape_exits_5_before_any_output(self, tmp_path, capsys, shapes):
        for name, shape in zip("ash", shapes):
            write_matrix(tmp_path / f"{name}.txt", np.eye(*shape))
        assert run_cli("check", tmp_path / "a.txt", tmp_path / "s.txt",
                       tmp_path / "h.txt") == 5
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")


class TestExperiment:
    def test_row_count_and_format(self, tmp_path, capsys):
        code = run_cli("experiment", "--family", 1, "--n-min", 2, "--n-max", 4,
                       "--algos", "jhmsh,jhmsh2")
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,variant,orth_loss,red_err,fallbacks,status"
        assert len(lines) == 1 + 3 * 2

    def test_output_file_and_markdown(self, tmp_path):
        out = tmp_path / "table.md"
        code = run_cli("experiment", "--family", 2, "--n-min", 2, "--n-max", 3,
                       "--algos", "jhmsh", "--format", "markdown", "--out", out)
        assert code == 0
        assert out.read_text().startswith("| n | variant |")

    def test_invalid_algo_exits_2(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the names must be checked before any reduction")

        monkeypatch.setattr(symhess.experiments, "reduce", refuse)
        for algos in ("nope", "jhmsh,nope"):
            assert run_cli("experiment", "--family", 1, "--n-min", 2, "--n-max", 3,
                           "--algos", algos) == 2

    def test_unknown_family_exits_2(self, capsys):
        assert run_cli("experiment", "--family", 3, "--n-min", 2, "--n-max", 3,
                       "--algos", "jhmsh") == 2
        assert "family must be 1 or 2" in capsys.readouterr().err

    def test_small_n_min_exits_2(self):
        assert run_cli("experiment", "--family", 1, "--n-min", 1, "--n-max", 3,
                       "--algos", "jhmsh") == 2

    def test_invalid_range_exits_2(self):
        assert run_cli("experiment", "--family", 1, "--n-min", 5, "--n-max", 3,
                       "--algos", "jhmsh") == 2

    def test_no_algo_exits_2(self, capsys):
        assert run_cli("experiment", "--family", 1, "--n-min", 2, "--n-max", 3,
                       "--algos", ",") == 2
        assert "at least one algo" in capsys.readouterr().err

    def test_algo_names_in_any_case(self, capsys):
        # run_sweep names the variants as reduce does, and labels each row
        # with the name as given
        code = run_cli("experiment", "--family", 1, "--n-min", 2, "--n-max", 3,
                       "--algos", "jhmsh,JHMSH")
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["2", "jhmsh"], ["2", "JHMSH"], ["3", "jhmsh"], ["3", "JHMSH"]]
        assert lines[1].split(",")[2:] == lines[2].split(",")[2:]

    def test_bad_format_exits_2_before_sweeping(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the format must be checked before the sweep")

        monkeypatch.setattr(symhess.cli, "run_sweep", refuse)
        assert run_cli("experiment", "--family", 1, "--n-min", 2, "--n-max", 3,
                       "--algos", "jhmsh", "--format", "xml") == 2


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "a.txt"
        # the child imports the package this test imported, installed or not
        root = str(Path(symhess.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (root, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run(
            [sys.executable, "-m", "symhess", "gen", "--family", "2",
             "--n", "3", "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert out.exists()

    def test_help_exits_zero(self):
        assert run_cli("--help") == 0

    def test_no_command_exits_2(self):
        assert main([]) == 2
