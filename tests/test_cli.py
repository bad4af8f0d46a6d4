import concurrent.futures
import contextlib
import importlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from reference import (
    argmax_in_window_fractions,
    max_json_by_dumps,
    pieces_as_fractions,
    rows_by_percent,
    sweep_csv_by_percent,
    sweep_json_by_dumps,
)
from torsig import cli, oracle
from torsig.cli import MAX_JOBS, MAX_MAX_P, SWEEP_MAX_PQ, TABLE_MAX_ROWS, main
from torsig.core import RationalAngle, TorusKnot
from torsig.lattice import StepFunction, classical_signature, lt_signature, signature_step_function
from torsig.maxsig import distance_profile


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def src_env() -> dict:
    """The environment for a `python -m torsig` subprocess that imports this checkout."""
    src = Path(__file__).resolve().parents[1] / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))


class TestSig:
    def test_figure_example(self, capsys):
        code, out, _ = run(capsys, "sig", "-p", "4", "-q", "7", "-t", "1/4")
        assert code == 0 and out == "sigma=10\n"

    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "sig", "-p", "5", "-q", "12", "-t", "1/2")
        assert code == 0 and out == "sigma=28\n"

    def test_not_coprime_exits_2(self, capsys):
        code, out, err = run(capsys, "sig", "-p", "4", "-q", "6", "-t", "1/2")
        assert code == 2 and out == ""
        assert "coprime" in err

    def test_decimal_angle_rejected(self, capsys):
        code, _, err = run(capsys, "sig", "-p", "4", "-q", "7", "-t", "0.25")
        assert code == 2 and "n/d" in err

    def test_underscore_angle_rejected(self, capsys):
        code, out, err = run(capsys, "sig", "-p", "3", "-q", "4", "-t", "1_0/30")
        assert code == 2 and out == "" and "n/d" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "sig", "-p", "4", "-q", "7", "-t", "2/8", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload == {
            "schema_version": "1",
            "p": 4,
            "q": 7,
            "t": "1/4",
            "sigma": 10,
        }


INTEGER_FLAGS = [("sig", "-p"), ("sig", "-q"), ("table", "--p-max"), ("table", "--q-max"),
                 ("verify", "--p-max"), ("verify", "--q-max"), ("verify", "--jobs")]


def with_flag(command, flag, value):
    """argv for `command` with every other flag valid and `flag` set to value."""
    base = {"sig": {"-p": "3", "-q": "4", "-t": "1/2"},
            "table": {"--p-max": "3", "--q-max": "5"},
            "verify": {"--which": "glm", "--p-max": "3", "--q-max": "5"}}
    options = dict(base[command], **{flag: value})
    return [command, *(x for item in options.items() for x in item)]


class TestIntegerFlags:
    @pytest.mark.parametrize("command,flag", INTEGER_FLAGS)
    @pytest.mark.parametrize("value", ["1_0", "٣", " 5", "+5", "5.0"])
    def test_only_ascii_digits_accepted(self, capsys, command, flag, value):
        with pytest.raises(SystemExit) as exit_:
            main(with_flag(command, flag, value))
        captured = capsys.readouterr()
        assert exit_.value.code == 2 and captured.out == ""
        assert f"argument {flag}: need an integer in ASCII digits, got {value!r}" in captured.err

    @pytest.mark.parametrize("command,flag", INTEGER_FLAGS)
    def test_negative_values_reach_the_domain_checks(self, capsys, command, flag):
        code, out, err = run(capsys, *with_flag(command, flag, "-5"))
        assert code == 2 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["sig", "-p", "2", "-q", "3", "-t", "1/" + "7" * 5000],
        ["sig", "-p", "11", "-q", "9" * 4299 + "7", "-t", "1/2"],
        ["max", "-p", "11", "-q", "9" * 4299 + "7"],
        ["max", "-p", "9" * 5000, "-q", "3"],
    ])
    def test_over_the_digit_cap_exits_2(self, capsys, argv):
        """Past 2000 digits σ could exceed Python's 4300-digit int/str limit;
        a traceback here would be an exception out of `main`."""
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "at most 2000 digits" in captured.err.splitlines()[-1]
        assert len(captured.err) < 200  # the digits are not echoed back

    @pytest.mark.parametrize("argv", [
        ["sig", "-p", "3", "-q", "4", "-t", "1/" + "7" * 5000 + "x"],
        ["sig", "-p", "x" * 5000, "-q", "4", "-t", "1/2"],
        ["verify", "--p-max", "9" * 2000, "--q-max", "9" * 2000],
        ["table", "--p-max", "9" * 2000, "--q-max", "9" * 2000],
        ["sig", "-p", "3", "-q", "4", "-t", "1/2", "--format", "x" * 5000],
        ["sig", "-p", "3", "-q", "4", "-t", "1/2", "y" * 5000],
        ["sig", "-p", "3", "-q", "4", "-t", "1" + "0" * 1999 + "/0"],
    ], ids=["angle", "integer", "verify-cap", "table-cap", "choice", "extra-argument",
            "zero-denominator"])
    def test_long_input_is_not_echoed(self, capsys, argv):
        """A refusal echoes a prefix of an input and its length, and a count
        over a cap by its number of digits: one short line."""
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and "Traceback" not in captured.err
        assert captured.err.count("\n") == 1 and len(captured.err.encode()) <= 300

    def test_sigma_prints_at_the_digit_cap(self, capsys):
        p, q = 10**2000 - 2, 10**2000 - 1
        code, out, _ = run(capsys, "sig", "-p", str(p), "-q", str(q), "-t", "1/2")
        sigma = lt_signature(TorusKnot(p, q), RationalAngle(1, 2))
        assert code == 0 and out == f"sigma={sigma}\n"
        assert 4000 <= len(out) - len("sigma=\n") <= 4001
        q = int("9" * 1999 + "7")
        code, out, _ = run(capsys, "max", "-p", "11", "-q", str(q))
        sigma = classical_signature(TorusKnot(11, q))
        assert code == 0 and out.startswith(f"knot=T(11,{q})\nsigma={sigma}\n")


class TestMax:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "max", "-p", "5", "-q", "12")
        assert code == 0
        assert "sigma=28" in out
        assert "M=1" in out
        assert "sigma_hat=30" in out
        assert "g4_lb=15" in out
        assert "sequence=(+1,-1,+1,-1)" in out

    def test_figure_example(self, capsys):
        code, out, _ = run(capsys, "max", "-p", "4", "-q", "7")
        assert code == 0
        assert "sequence=(-1,+1)" in out and "sigma_hat=14" in out

    def test_empty_sequence(self, capsys):
        code, out, _ = run(capsys, "max", "-p", "2", "-q", "9")
        assert code == 0
        assert "sequence=()" in out and "sigma_hat=8" in out

    def test_json_sorted_profile(self, capsys):
        code, out, _ = run(capsys, "max", "-p", "5", "-q", "12", "--format", "json")
        payload = json.loads(out)
        assert payload["D"] == {"-1": 2, "-3": 6}
        assert payload["d"] == {"1": 8, "3": 4}
        assert payload["sequence"] == [1, -1, 1, -1]


class TestSweep:
    def test_trefoil_csv(self, capsys):
        code, out, _ = run(capsys, "sweep", "-p", "2", "-q", "3", "--format", "csv")
        assert code == 0
        assert out == (
            "t_lo,t_hi,sigma\n"
            "0,1/6,0\n"
            "1/6,5/6,2\n"
            "5/6,1,0\n"
            "\n"
            "t,sigma\n"
            "1/6,0\n"
            "5/6,0\n"
        )

    def test_plot_maximum(self, capsys):
        code, out, _ = run(capsys, "sweep", "-p", "4", "-q", "7", "--format", "plot")
        assert code == 0
        values = [int(line.split()[1]) for line in out.splitlines()]
        assert max(values) == 14

    def test_json_symmetric(self, capsys):
        from fractions import Fraction

        code, out, _ = run(capsys, "sweep", "-p", "4", "-q", "7", "--format", "json")
        payload = json.loads(out)
        breakpoints = [Fraction(t) for t in payload["breakpoints"]]
        assert breakpoints == sorted(breakpoints)
        for t, v in zip(breakpoints, payload["breakpoint_values"]):
            mirrored = 1 - t
            assert v == payload["breakpoint_values"][breakpoints.index(mirrored)]
        assert payload["interval_values"] == payload["interval_values"][::-1]

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "sweep", "-p", "2", "-q", "3", "-o", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("t_lo,t_hi,sigma\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_output_file_holds_the_stdout_bytes(self, tmp_path, capsys, fmt):
        argv = ["sweep", "-p", "7", "-q", "10", "--format", fmt]
        _, out, _ = run(capsys, *argv)
        code, _, _ = run(capsys, *argv, "-o", str(tmp_path / "sweep.out"))
        assert code == 0 and (tmp_path / "sweep.out").read_bytes() == out.encode("ascii")

    def test_unwritable_path_exits_3(self, capsys):
        code, _, err = run(capsys, "sweep", "-p", "2", "-q", "3", "-o", "/nonexistent-dir/x.csv")
        assert code == 3 and "cannot write" in err

    def test_closed_stdout_exits_3_without_traceback(self):
        """`torsig sweep ... | head -1`: the reader leaves after one line."""
        proc = subprocess.Popen([sys.executable, "-m", "torsig", "sweep", "-p", "317", "-q", "947"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env())
        assert proc.stdout.readline() == b"t_lo,t_hi,sigma\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 3 and err == b"", err


class TestTable:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "table", "--p-max", "3", "--q-max", "5")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "p,q,sigma,M,sigma_hat,g4_lb"
        assert lines[1] == "2,3,2,0,2,1"
        assert "3,5,8,0,8,4" in lines

    def test_rows_sorted(self, capsys):
        code, out, _ = run(capsys, "table", "--p-max", "5", "--q-max", "9", "--format", "json")
        payload = json.loads(out)
        keys = [(r["p"], r["q"]) for r in payload["rows"]]
        assert keys == sorted(keys)


def rendered(row, *columns):
    """`cli._pieces` over the `_digits` of each column, cut to the shortest
    first, joined."""
    n = min(map(len, columns))
    return "".join(cli._pieces(row, *(cli._digits(column[:n]) for column in columns)))


class TestRenderer:
    """`cli._digits` and `cli._pieces` and the commands they render, against
    the %-formatting and `json.dumps` routes they replaced.  The columns are
    non-negative, and a minus sign is literal text of the row template."""

    # 0, 10^k - 1, 10^k and 10^k + 1, 2^32 and its neighbours, and the int64 top
    EDGES = [0, *(10**k + d for k in range(19) for d in (-1, 0, 1)), *(2**32 + d for d in (-1, 0, 1)),
             2**63 - 1]
    ENTRIES = st.one_of(st.integers(0, 2**63 - 1), st.sampled_from(EDGES))
    LITERALS = st.text(st.characters(min_codepoint=1, max_codepoint=127, blacklist_characters="%"),
                       max_size=4)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_percent_formatting(self, data):
        width = data.draw(st.integers(1, 4))
        literals = data.draw(st.lists(self.LITERALS, min_size=width + 1, max_size=width + 1))
        columns = [np.array(data.draw(st.lists(self.ENTRIES, max_size=12)), dtype=np.int64)
                   for _ in range(width)]
        row = "%d".join(literals)
        assert rendered(row, *columns) == rows_by_percent(row, *(c.tolist() for c in columns))

    def test_large_columns_match_percent_formatting(self):
        rng = np.random.default_rng(7)
        columns = [rng.integers(0, 10**6, 5000), rng.integers(0, 2**40, 5000),
                   rng.integers(0, 2**63 - 1, 5000, dtype=np.int64)]
        row = "x%d,%d;%d\n"
        assert rendered(row, *columns) == rows_by_percent(row, *(c.tolist() for c in columns))

    @pytest.mark.parametrize("digits", [1, 2, 9, 10, 18])
    def test_minus_on_every_row_of_a_field(self, digits):
        # 9, 99, ..., 10^digits - 1 start on every digit row of their block; a
        # '-' before the field is template text and must land on each first digit
        column = np.array([10**k - 1 for k in range(1, digits + 1)], dtype=np.int64)
        assert len(cli._digits(column)) == digits
        for row, columns in (("-%d\n", [column]), ("<-%d|%d>", [column, column[::-1].copy()])):
            printed = [-column, *columns[1:]]
            assert rendered(row, *columns) == rows_by_percent(
                row.replace("-", "", 1), *(c.tolist() for c in printed))

    @pytest.mark.parametrize("entries", [
        [-1, -10, -7, -999, -1000, -123456789, -(2**63) + 1],
        [], [0], [-5], [10**18],
        [10**9 - 1, 10**9 - 2, 0, 7, 10],  # 9 digits: uint32 digit loop
        [10**9, 10**9 + 1, 2**32 - 1, 2**32, 2**32 + 1, 10**10 - 1, 3],  # 10 digits: int64
    ], ids=["all-negative", "length-0", "zero", "one-negative", "one-wide", "9-digits", "10-digits"])
    def test_edge_columns_match_percent_formatting(self, entries):
        # a negative column goes out as its magnitudes behind a template '-', as `max` writes D
        column = np.array(entries, dtype=np.int64)
        sign = "-" if column.size and column.min() < 0 else ""
        for row, columns in (("%d", [column]), ("a%d,%d;\n", [column, column[::-1].copy()])):
            text = rendered(row.replace("%d", sign + "%d"), *map(np.abs, columns))
            assert text == rows_by_percent(row, *(c.tolist() for c in columns))

    @pytest.mark.parametrize("n", [0, 1, cli._PIECE, cli._PIECE + 1, 2 * cli._PIECE + 5])
    def test_json_nest_matches_dumps_across_pieces(self, n):
        column = np.arange(n, dtype=np.int64)
        nested = "".join(cli._json_nest("[]", cli._pieces("    %d,\n", cli._digits(column))))
        assert '{\n  "a": ' + nested + "\n}" == json.dumps({"a": column.tolist()}, indent=2)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(ENTRIES, max_size=30))
    def test_decimal_order_is_the_order_of_strings(self, keys):
        column = np.array(keys, dtype=np.int64)
        order = cli._decimal_order(column).tolist()
        assert order == sorted(range(len(keys)), key=lambda i: str(keys[i]))

    def test_decimal_order_takes_the_int64_ends(self):
        keys = [2**63 - 1, 9, 0, 2**63 - 10, 10**18, 10]
        order = cli._decimal_order(np.array(keys, dtype=np.int64)).tolist()
        assert order == sorted(range(len(keys)), key=lambda i: str(keys[i]))

    @pytest.mark.parametrize("column", [
        np.array([5, -(2**63)], dtype=np.int64),  # negative, so refused
        np.array([1.0, 2.0]),
        np.array([1, 2], dtype=np.int32),
        np.array([1, 2], dtype=np.uint64),
        [1, 2],
    ], ids=["min-int64", "float", "int32", "uint64", "list"])
    def test_refuses_what_it_cannot_print(self, column):
        with pytest.raises((TypeError, ValueError)):
            rendered("%d,%d\n", np.arange(2), column)

    @pytest.mark.parametrize("column", [[-1], [0, 7, -1, 12], [2**63 - 1, -(2**63) + 1]])
    def test_negative_entry_raises(self, column):
        column = np.array(column, dtype=np.int64)
        with pytest.raises(ValueError, match="non-negative"):
            cli._digits(column)
        with pytest.raises(ValueError, match="non-negative"):
            rendered("-%d\n", column)

    @pytest.mark.parametrize("row", ["%d", "%d%d%d", "%s %d,%d", "%d,%d%%", "%d\0%d"])
    def test_refuses_templates_it_cannot_fill(self, row):
        with pytest.raises(ValueError):
            rendered(row, np.arange(3), np.arange(3))

    @pytest.mark.parametrize("p,q", [(102, 295), (184, 543)])
    def test_sweep_matches_the_percent_and_json_routes(self, capsys, p, q):
        knot = TorusKnot(p, q)
        step = signature_step_function(knot)
        _, csv, _ = run(capsys, "sweep", "-p", str(p), "-q", str(q))
        _, doc, _ = run(capsys, "sweep", "-p", str(p), "-q", str(q), "--format", "json")
        assert csv == sweep_csv_by_percent(step)
        assert doc == sweep_json_by_dumps(knot, step)

    def test_sweep_csv_at_benchmark_size_matches_the_percent_route(self, capsys):
        # the interval and point rows share one digit block per column
        step = signature_step_function(TorusKnot(318, 943))
        _, csv, _ = run(capsys, "sweep", "-p", "318", "-q", "943")
        assert csv == sweep_csv_by_percent(step)

    @pytest.mark.parametrize("p,q", [(100166, 200333), (5, 12), (2, 9), (1, 4)])
    def test_max_json_matches_dumps(self, capsys, p, q):
        _, doc, _ = run(capsys, "max", "-p", str(p), "-q", str(q), "--format", "json")
        assert doc == max_json_by_dumps(TorusKnot(p, q))

    def test_max_profile_lines_match_percent_formatting(self, capsys):
        knot = TorusKnot(100166, 100167)
        profile = distance_profile(knot)
        js, ks = profile.j.tolist(), (-profile.j[::-1]).tolist()
        _, out, _ = run(capsys, "max", "-p", "100166", "-q", "100167")
        lines = out.split("\n")
        assert lines[2] == rows_by_percent("D[%d]=%d ", js, profile.D.tolist())[:-1]
        assert lines[3] == rows_by_percent("d[%d]=%d ", ks, profile.d.tolist())[:-1]


class TestVerify:
    def test_identity_suites_pass(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--p-max", "8", "--q-max", "16",
            "--which", "glm,even-periodicity,main,odd-shift,closed-forms",
        )
        assert code == 0
        assert "result=PASS" in out
        assert "failed=0" in out

    def test_oracle_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--p-max", "4", "--q-max", "8", "--which", "oracle")
        assert code == 0 and "result=PASS" in out

    def test_brute_max_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--p-max", "5", "--q-max", "10", "--which", "brute-max")
        assert code == 0 and "suite=brute-max" in out

    def test_unknown_suite_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--which", "bogus")
        assert code == 2 and "unknown suite" in err

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_nonpositive_jobs_exit_2(self, capsys, jobs):
        code, out, err = run(capsys, "verify", "--which", "glm", "--jobs", jobs)
        assert code == 2 and out == "" and "--jobs" in err

    @pytest.mark.parametrize("jobs", [MAX_JOBS + 1, 100_000])
    def test_jobs_above_cap_exit_2_before_any_task(self, capsys, monkeypatch, jobs):
        def refuse(*args, **kwargs):
            raise AssertionError("verify started work for an over-cap --jobs")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
        monkeypatch.setitem(cli.SUITES, "glm", (cli.SUITES["glm"][0], refuse))
        code, out, err = run(capsys, "verify", "--which", "glm", "--jobs", str(jobs))
        assert code == 2 and out == ""
        assert "--jobs" in err and str(MAX_JOBS) in err

    def test_jobs_at_cap_accepted(self, capsys, monkeypatch):
        """--jobs 32 runs its 32 tasks at once, each on its own thread: every
        task waits at a barrier until all 32 have reached it."""
        args = ["verify", "--p-max", "9", "--q-max", "13", "--which", "glm"]
        code1, out1, _ = run(capsys, *args, "--jobs", "1")
        grid, check = cli.SUITES["glm"]
        barrier, threads = threading.Barrier(MAX_JOBS, timeout=60), set()

        def meet(pairs, tol):
            threads.add(threading.get_ident())
            barrier.wait()
            return check(pairs, tol)

        monkeypatch.setitem(cli.SUITES, "glm", (grid, meet))
        code, out, _ = run(capsys, *args, "--jobs", str(MAX_JOBS))
        assert code == code1 == 0 and out == out1 and "checked=40 " in out
        assert len(threads) == MAX_JOBS and threading.get_ident() not in threads

    def test_absurd_tolerance_fails_with_exit_1(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--p-max", "3", "--q-max", "5",
            "--which", "oracle", "--tol", "10.0",
        )
        assert code == 1
        assert "result=FAIL" in out and "FAIL suite=oracle" in out

    def test_overflowing_tolerance_fails_with_a_clean_stderr(self):
        # tol times the largest slope overflows to inf: the row fails, and
        # numpy prints no overflow warning on stderr
        argv = [sys.executable, "-m", "torsig", "verify", "--which", "oracle",
                "--p-max", "2", "--q-max", "3", "--tol", "1e308"]
        done = subprocess.run(argv, capture_output=True, env=src_env(), timeout=120)
        assert (done.returncode, done.stderr) == (1, b"")
        assert done.stdout.decode() == (
            "suite=oracle checked=1 failed=1\n"
            "FAIL suite=oracle p=2 q=3 expected= computed=error: "
            "jump slope at t = 1/6 is not above 1e+308 times the largest\n"
            "result=FAIL\n")

    def test_env_tolerance_and_flag_priority(self, capsys, monkeypatch):
        """TORSIG_TOL is not read: --tol is the only tolerance input."""
        for value in ("10.0", "abc"):
            monkeypatch.setenv("TORSIG_TOL", value)
            code, out, _ = run(capsys, "verify", "--p-max", "3", "--q-max", "5", "--which", "oracle")
            assert code == 0 and "result=PASS" in out
        code, out, _ = run(
            capsys, "verify", "--p-max", "3", "--q-max", "5",
            "--which", "oracle", "--tol", "10.0",
        )
        assert code == 1

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1", "0.0"])
    def test_tolerance_must_be_finite_and_positive(self, capsys, tol):
        code, out, err = run(capsys, "verify", "--p-max", "3", "--q-max", "5",
                             "--which", "oracle", f"--tol={tol}")
        assert code == 2 and out == "" and "--tol must be finite and > 0" in err

    @pytest.mark.parametrize("tol", ["1_0.0", "١", " 1e-8", "1e-8 "])
    def test_tolerance_only_in_ascii(self, capsys, tol):
        with pytest.raises(SystemExit) as exit_:
            main(["verify", "--p-max", "3", "--q-max", "5", "--which", "oracle", f"--tol={tol}"])
        captured = capsys.readouterr()
        assert exit_.value.code == 2 and captured.out == ""
        assert f"argument --tol: need a number in ASCII digits, got {tol!r}" in captured.err

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--p-max", "5", "--q-max", "10",
            "--which", "main", "--format", "json",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["result"] == "PASS"
        assert payload["suites"]["main"]["failed"] == 0

    def test_jobs_do_not_change_output(self, capsys):
        args = ["verify", "--p-max", "6", "--q-max", "12", "--which", "glm,main,brute-max,oracle"]
        code1, out1, _ = run(capsys, *args, "--jobs", "1")
        code2, out2, _ = run(capsys, *args, "--jobs", "2")
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_jobs_do_not_change_failure_rows(self, capsys, fmt):
        args = ["verify", "--p-max", "3", "--q-max", "5", "--which", "closed-forms,oracle",
                "--tol", "10.0", "--format", fmt]
        code1, out1, _ = run(capsys, *args, "--jobs", "1")
        code2, out2, _ = run(capsys, *args, "--jobs", "2")
        assert code1 == code2 == 1
        assert out1 == out2 and "times the largest" in out1 and "jump slope at t = 1/6" in out1

    def test_registry_orders_rows_and_counts(self, capsys):
        code, out, _ = run(capsys, "verify", "--p-max", "5", "--q-max", "9",
                           "--which", "brute-max,glm", "--which", "closed-forms,odd-shift")
        assert code == 0
        assert out.splitlines() == [
            "suite=glm checked=15 failed=0",
            "suite=odd-shift checked=8 failed=0",
            "suite=closed-forms checked=4 failed=0",
            "suite=brute-max checked=15 failed=0",
            "result=PASS",
        ]


class TestSizeCaps:
    def test_sweep_above_cap_exits_2(self, capsys):
        # pq is about 2 * 10**12: refused before the step function runs
        code, out, err = run(capsys, "sweep", "-p", "1000003", "-q", "2000007")
        assert code == 2 and out == ""
        assert f"pq <= {SWEEP_MAX_PQ}" in err

    def test_sweep_at_cap_boundary_is_checked_on_pq(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "SWEEP_MAX_PQ", 6)
        code, out, _ = run(capsys, "sweep", "-p", "2", "-q", "3")
        assert code == 0 and out.startswith("t_lo,t_hi,sigma\n")
        code, out, _ = run(capsys, "sweep", "-p", "2", "-q", "5")
        assert code == 2 and out == ""

    def test_table_above_cap_exits_2(self, capsys):
        code, out, err = run(capsys, "table", "--p-max", "10000", "--q-max", "10000")
        assert code == 2 and out == ""
        assert f"at most {TABLE_MAX_ROWS}" in err

    def test_max_above_cap_exits_2_before_allocating(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("allocated above the cap")

        monkeypatch.setattr(cli, "distance_profile", refuse)
        code, out, err = run(capsys, "max", "-p", "100000007", "-q", "100000008")
        assert code == 2 and out == ""
        assert f"p <= {MAX_MAX_P}" in err

    def test_max_at_cap_boundary_is_checked_on_smaller_parameter(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_MAX_P", 5)
        code, out, _ = run(capsys, "max", "-p", "12", "-q", "5")
        assert code == 0 and "sigma_hat=30" in out
        code, out, _ = run(capsys, "max", "-p", "6", "-q", "7")
        assert code == 2 and out == ""

    @pytest.mark.parametrize("p_max,q_max", [("10000", "10000"), ("1000000000000", "2")])
    def test_verify_above_cap_exits_2_before_enumerating(self, capsys, monkeypatch, p_max, q_max):
        def refuse(*args):
            raise AssertionError("enumerated above the cap")

        monkeypatch.setattr(cli, "_coprime_pairs", refuse)
        code, out, err = run(capsys, "verify", "--which", "closed-forms",
                             "--p-max", p_max, "--q-max", q_max)
        assert code == 2 and out == ""
        assert f"at most {TABLE_MAX_ROWS}" in err
        # 2 <= p < q <= q_max: 9998 * 9999 / 2 pairs, and none for q_max = 2
        pairs = {"10000": 49_985_001, "2": 0}[q_max]
        assert f"spans {pairs} pairs and {p_max} p values" in err

    def test_verify_at_cap_boundary(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "TABLE_MAX_ROWS", 6)
        # p <= 4, q <= 5: 3 + 2 + 1 = 6 candidate pairs
        code, out, _ = run(capsys, "verify", "--which", "glm", "--p-max", "4", "--q-max", "5")
        assert code == 0 and out.startswith("suite=glm checked=5 failed=0\n")
        code, out, _ = run(capsys, "verify", "--which", "glm", "--p-max", "4", "--q-max", "6")
        assert code == 2 and out == ""
        code, out, _ = run(capsys, "verify", "--which", "closed-forms", "--p-max", "7", "--q-max", "1")
        assert code == 2 and out == ""

    @pytest.mark.parametrize("command", ["table", "verify"])
    @pytest.mark.parametrize("p_max,q_max", [("-5", "20"), ("-3", "-1"), ("0", "5"), ("4", "0")])
    def test_grid_bounds_below_1_exit_2_before_enumerating(self, capsys, monkeypatch,
                                                            command, p_max, q_max):
        def refuse(*args):
            raise AssertionError("enumerated a grid with a bound below 1")

        monkeypatch.setattr(cli, "_coprime_pairs", refuse)
        code, out, err = run(capsys, command, "--p-max", p_max, "--q-max", q_max)
        assert code == 2 and out == ""
        assert "--p-max and --q-max must be >= 1" in err

    def test_table_candidates_counted_exactly(self):
        for p_max in range(0, 12):
            for q_max in range(0, 15):
                grid = sum(1 for p in range(2, p_max + 1) for q in range(p + 1, q_max + 1))
                assert cli._table_candidates(p_max, q_max) == grid, (p_max, q_max)

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_benchmark_commands_stay_five_times_below_caps(self):
        bench = Path(__file__).resolve().parent.parent / "perfbench"
        sys.path.insert(0, str(bench))
        try:
            workloads = importlib.import_module("workloads")
        finally:
            sys.path.remove(str(bench))
        parser = cli._build_parser()
        for name in workloads.WORKLOADS:
            for seed in range(1, 11):
                for argv in workloads.build(name, seed):
                    args = parser.parse_args(argv)
                    if argv[0] == "max":
                        assert 5 * TorusKnot(args.p, args.q).p <= MAX_MAX_P, argv
                    elif argv[0] == "sweep":
                        assert 5 * args.p * args.q <= SWEEP_MAX_PQ, argv
                    elif argv[0] in ("table", "verify"):
                        rows = cli._table_candidates(args.p_max, args.q_max)
                        assert 5 * max(rows, args.p_max) <= TABLE_MAX_ROWS, argv


class TestVerifyFailureRows:
    """Exact failure rows of the oracle and brute-max suites, with the oracle
    forced into a mismatch, run serially and on two worker threads."""

    GRID = ("--p-max", "3", "--q-max", "5")

    def runs(self, capsys, *argv):
        """(code, out) of `verify *argv` on GRID, the same at --jobs 1 and 2."""
        one, two = (run(capsys, "verify", *argv, *self.GRID, "--jobs", jobs) for jobs in ("1", "2"))
        assert one == two and one[2] == ""
        return one[:2]

    @pytest.fixture
    def lying_oracle(self, monkeypatch):
        def fake(knot, tol=oracle.DEFAULT_TOLERANCE):
            step = signature_step_function(knot)
            if knot == TorusKnot(2, 3):
                return step
            # interval 1 is wrong from its first midpoint on, and so is interval 3:
            # the first mismatch is reported, the later one is not
            values = step.interval_values.copy()
            values[1], values[3] = knot.q, 7
            return StepFunction(step.breakpoints, step.denominator, values)

        monkeypatch.setattr(oracle, "oracle_step_functions",
                            lambda knots, tol: [fake(knot, tol) for knot in knots])

    @pytest.fixture
    def lying_brute_max(self, monkeypatch):
        real = oracle.brute_force_max

        def fake(knot):
            value, pieces = real(knot)
            lies = {
                (2, 5): (value + 2, pieces),
                (3, 4): (value, np.array([[1, 3]])),  # (1/12, 1/4) ends at 1/2 - 1/q
                (3, 5): (value, np.array([[8, 10]])),  # (8/15, 2/3) starts above 1/2
            }
            return lies.get((knot.p, knot.q), (value, pieces))

        monkeypatch.setattr(oracle, "brute_force_max", fake)

    def test_oracle_mismatch_text(self, capsys, lying_oracle):
        code, out = self.runs(capsys, "--which", "oracle")
        assert code == 1
        # interval 1 starts at the first root of Delta: 1/10, 1/12 and 1/15
        assert out == (
            "suite=oracle checked=4 failed=3\n"
            "FAIL suite=oracle p=2 q=5 expected=sigma_3/20=2 computed=sigma_3/20=5\n"
            "FAIL suite=oracle p=3 q=4 expected=sigma_1/8=2 computed=sigma_1/8=4\n"
            "FAIL suite=oracle p=3 q=5 expected=sigma_1/10=2 computed=sigma_1/10=5\n"
            "result=FAIL\n"
        )

    def test_oracle_mismatch_json(self, capsys, lying_oracle):
        code, out = self.runs(capsys, "--which", "oracle", "--format", "json")
        payload = json.loads(out)
        assert code == 1
        assert payload["suites"] == {"oracle": {"checked": 4, "failed": 3}}
        assert payload["failures"][0] == {"suite": "oracle", "p": 2, "q": 5,
                                          "expected": "sigma_3/20=2", "computed": "sigma_3/20=5"}
        assert payload["result"] == "FAIL"

    def test_brute_max_mismatch_text(self, capsys, lying_brute_max):
        code, out = self.runs(capsys, "--which", "brute-max")
        assert code == 1
        assert out == (
            "suite=brute-max checked=4 failed=3\n"
            "FAIL suite=brute-max p=2 q=5 expected=4 argmax-in-window computed=6 yes\n"
            "FAIL suite=brute-max p=3 q=4 expected=6 argmax-in-window computed=6 no\n"
            "FAIL suite=brute-max p=3 q=5 expected=8 argmax-in-window computed=8 no\n"
            "result=FAIL\n"
        )

    def test_brute_max_mismatch_json(self, capsys, lying_brute_max):
        code, out = self.runs(capsys, "--which", "brute-max", "--format", "json")
        payload = json.loads(out)
        assert code == 1
        assert payload["suites"] == {"brute-max": {"checked": 4, "failed": 3}}
        assert [(f["p"], f["q"], f["expected"], f["computed"]) for f in payload["failures"]] == [
            (2, 5, "4 argmax-in-window", "6 yes"),
            (3, 4, "6 argmax-in-window", "6 no"),
            (3, 5, "8 argmax-in-window", "8 no"),
        ]


class TestArgmaxWindow:
    def test_integer_window_agrees_with_fractions(self):
        """Every unit grid piece, every interval and the argmax pieces of each
        step function, tested in integers and in Fractions."""
        for p in range(1, 16):
            for q in range(p, 31):
                if math.gcd(p, q) != 1:
                    continue
                step = signature_step_function(TorusKnot(p, q))
                bounds = [0, *step.breakpoints.tolist(), p * q]
                pieces = [step.argmax_pieces()]
                pieces += [np.array([[k, k + 1]]) for k in range(p * q)]
                pieces += [np.array([[a, b]]) for a, b in zip(bounds, bounds[1:])]
                for piece in pieces:
                    expected = argmax_in_window_fractions(pieces_as_fractions(piece, p * q), q)
                    assert cli._argmax_in_window(piece, p, q) == expected, (p, q, piece)


class TestWorkerPool:
    """`verify --jobs N` runs its tasks on N threads of this process."""

    ARGS = ("verify", "--p-max", "4", "--q-max", "7", "--which", "glm", "--jobs", "2")

    def test_environment_left_as_it_was(self, capsys, monkeypatch):
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        before = dict(os.environ)
        code, _, _ = run(capsys, *self.ARGS)
        assert code == 0 and dict(os.environ) == before

    def test_import_loads_no_pool_modules(self):
        """Only `verify --jobs N > 1` imports the pool, so no other command pays for it."""
        code = ("import sys, torsig, torsig.cli; "
                "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, env=src_env(),
                              timeout=120)
        assert (done.returncode, done.stdout) == (0, b"[]\n"), done.stderr

    def test_spawned_run_matches_serial_run_in_a_subprocess(self):
        """`python -m torsig` as a user runs it: the worker threads' rows reach
        stdout in (suite, p, q) order, and the process exits once they are done."""
        argv = [sys.executable, "-m", "torsig", "verify", "--p-max", "6", "--q-max", "12",
                "--which", "glm,oracle"]
        one, two = (subprocess.run(argv + ["--jobs", jobs], capture_output=True, env=src_env(),
                                   timeout=300) for jobs in ("1", "2"))
        assert one.returncode == two.returncode == 0, two.stderr
        assert one.stdout == two.stdout and b"result=PASS" in one.stdout
        assert one.stderr == two.stderr == b""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_ctrl_c_exits_at_once(self, jobs):
        """SIGINT a second into a run of several seconds: the process exits
        with status 130 within 2 s, without waiting for the worker threads and
        without a traceback.  The child starts in its own session, with the
        default SIGINT action, so that Python turns SIGINT into
        KeyboardInterrupt even where this test runs with SIGINT ignored."""
        argv = [sys.executable, "-m", "torsig", "verify", "--which", "oracle",
                "--p-max", "30", "--q-max", "60", "--jobs", jobs]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=src_env(), start_new_session=True,
                              preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
                              ) as child:
            try:
                time.sleep(1)
                assert child.poll() is None, "the run ended before it was interrupted"
                child.send_signal(signal.SIGINT)
                sent = time.monotonic()
                _, err = child.communicate(timeout=2)
                waited = time.monotonic() - sent
            finally:
                child.kill()  # only if it is still running
        assert child.returncode == cli.EXIT_INTERRUPTED and waited < 2
        assert b"Traceback" not in err and err == b"", err



def outcome(argv):
    """(exit code, stdout, stderr) of `main(argv)` in this process, with
    argparse's own exits read as exit codes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
    return code, out.getvalue(), err.getvalue()


def as_int(text):
    """The int an integer flag reads from text, or None if it refuses it."""
    digits = text.removeprefix("-")
    return int(text) if text.isascii() and digits.isdigit() and len(digits) <= 2000 else None


# Text that is no valid value, short or far longer than any message may echo.
CHARACTERS = st.characters(blacklist_categories=["Cs"])
JUNK = st.text(CHARACTERS, max_size=8) | st.builds(str.__mul__, CHARACTERS,
                                                   st.sampled_from([301, 5000]))
# 0, 1, each cap and the next integer, and 2000, 2001 digits (the cap), 4300 (the
# longest int() reads) and 4301 digits, each as 10^(n-1) and as 10^n - 1.
EDGES = st.sampled_from(["0", "1", "-1", *(str(cap + d) for d in (0, 1) for cap in (
    MAX_MAX_P, SWEEP_MAX_PQ, TABLE_MAX_ROWS, MAX_JOBS))]) | st.sampled_from(
    [x for n in (2000, 2001, 4300, 4301) for x in ("1" + "0" * (n - 1), "9" * n)])
ODD = EDGES | JUNK


@st.composite
def command(draw, name, flags):
    """(argv, values) for subcommand `name`, whose flags map to (valid, odd)
    strategies: mostly one flag takes an odd value and the others valid ones,
    in drawn order; now and then a flag is left out or an extra argument
    follows.  `values` maps each given flag to its value."""
    names = list(flags)
    odd = {draw(st.sampled_from(names)) for _ in range(draw(st.sampled_from([1, 1, 1, 1, 0, 2])))}
    left_out = draw(st.sampled_from([None] * 19 * len(names) + names))
    values = {flag: draw(flags[flag][flag in odd]) for flag in names if flag != left_out}
    options = draw(st.permutations([f"{flag}={value}" if flag.startswith("--") else flag + value
                                    for flag, value in values.items()]))
    extra = draw(st.sampled_from([[]] * 19 + [["extra"]]))
    return [name, *options, *extra], values


def refused_cleanly(argv):
    """The boundary contract: exit 0, 1 or 2; a refusal (2) is one short line
    on stderr and nothing on stdout, a run writes nothing on stderr, and a
    json run's stdout parses.  A traceback would be an exception out of here."""
    code, out, err = outcome(argv)
    assert code in (0, 1, 2), (code, argv)
    if code == 2:
        assert out == "" and "Traceback" not in err
        assert err.endswith("\n") and err.count("\n") == 1 and len(err.encode()) <= 300, err
    else:
        assert err == ""
        if "--format=json" in argv:
            json.loads(out)


def accepted(values, *flags):
    """The ints that `flags` take in values, if each is a valid integer >= 1."""
    ints = [as_int(values.get(flag, "")) for flag in flags]
    return ints if all(i is not None and i >= 1 for i in ints) else None


class TestBoundary:
    """Every subcommand on drawn argv: valid values, edges and junk.  A run
    that would be accepted far above the tiny grids is not drawn, so that the
    five tests together take about a second."""

    # valid p and q are coprime: a prime above 40 and any integer up to 40
    P, Q = (st.integers(1, 40).map(str), ODD), (st.sampled_from(["41", "43", "47", "53"]), ODD)
    FORMATS = (st.sampled_from(["text", "json"]), JUNK)

    @settings(max_examples=200, deadline=None)
    @given(command("sig", {
        "-p": P, "-q": Q,
        "-t": (st.builds("{0}/{1}".format, st.integers(1, 30), st.integers(31, 60)),
               # one branch of edges, as likely as each kind of junk
               (st.builds("{0}/{1}".format, st.integers(0, 3) | EDGES, st.integers(0, 3) | EDGES)
                | st.sampled_from(["0.5", "-1/2", " 1/2"])).map(str) | JUNK),
        "--format": FORMATS}))
    def test_sig(self, drawn):
        refused_cleanly(drawn[0])

    @settings(max_examples=60, deadline=None)
    @given(command("max", {"-p": P, "-q": Q, "--format": FORMATS}))
    def test_max(self, drawn):
        argv, values = drawn
        knot = accepted(values, "-p", "-q")
        assume(not (knot and math.gcd(*knot) == 1 and 1000 < min(knot) <= MAX_MAX_P))
        refused_cleanly(argv)

    @settings(max_examples=40, deadline=None)
    @given(command("sweep", {"-p": P, "-q": Q,
                             "--format": (st.sampled_from(["csv", "json", "plot"]), JUNK)}))
    def test_sweep(self, drawn):
        argv, values = drawn
        knot = accepted(values, "-p", "-q")
        assume(not (knot and math.gcd(*knot) == 1 and 10_000 < math.prod(knot) <= SWEEP_MAX_PQ))
        refused_cleanly(argv)

    @settings(max_examples=40, deadline=None)
    @given(command("table", {"--p-max": (st.integers(1, 12).map(str), ODD),
                             "--q-max": (st.integers(1, 20).map(str), ODD),
                             "--format": (st.sampled_from(["csv", "json"]), JUNK)}))
    def test_table(self, drawn):
        argv, values = drawn
        grid = accepted(values, "--p-max", "--q-max")
        assume(not (grid and 200 < cli._table_candidates(*grid) <= TABLE_MAX_ROWS))
        refused_cleanly(argv)

    @settings(max_examples=40, deadline=None)
    @given(command("verify", {
        "--p-max": (st.integers(1, 6).map(str), ODD),
        "--q-max": (st.integers(1, 10).map(str), ODD),
        "--which": (st.lists(st.sampled_from(list(cli.SUITES)), min_size=1, max_size=3)
                    .map(",".join), JUNK),
        "--jobs": (st.sampled_from(["1", "2", "3", str(MAX_JOBS)]), ODD),
        "--tol": (st.sampled_from(["1e-8", "1e-3"]),
                  st.sampled_from(["10.0", "1e308", "0", "nan", "-inf", "1e-300"]) | JUNK),
        "--format": FORMATS}))
    def test_verify(self, drawn):
        argv, values = drawn
        grid = accepted(values, "--p-max", "--q-max")
        assume(not (grid and 40 < max(cli._table_candidates(*grid), grid[0]) <= TABLE_MAX_ROWS))
        refused_cleanly(argv)
