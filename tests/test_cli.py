import importlib
import json
import sys
from pathlib import Path

import pytest

from torsig import cli
from torsig.cli import SWEEP_MAX_PQ, TABLE_MAX_ROWS, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_unwritable_path_exits_3(self, capsys):
        code, _, err = run(capsys, "sweep", "-p", "2", "-q", "3", "-o", "/nonexistent-dir/x.csv")
        assert code == 3 and "cannot write" in err


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

    def test_absurd_tolerance_fails_with_exit_1(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--p-max", "3", "--q-max", "5",
            "--which", "oracle", "--tol", "10.0",
        )
        assert code == 1
        assert "result=FAIL" in out and "FAIL suite=oracle" in out

    def test_env_tolerance_and_flag_priority(self, capsys, monkeypatch):
        monkeypatch.setenv("TORSIG_TOL", "10.0")
        code, out, _ = run(capsys, "verify", "--p-max", "3", "--q-max", "5", "--which", "oracle")
        assert code == 1
        code, out, _ = run(
            capsys, "verify", "--p-max", "3", "--q-max", "5",
            "--which", "oracle", "--tol", "1e-8",
        )
        assert code == 0

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
        args = ["verify", "--p-max", "6", "--q-max", "12", "--which", "glm,main,brute-max"]
        code1, out1, _ = run(capsys, *args, "--jobs", "1")
        code2, out2, _ = run(capsys, *args, "--jobs", "2")
        assert code1 == code2 == 0
        assert out1 == out2


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

    def test_table_candidates_counted_exactly(self):
        for p_max in range(0, 12):
            for q_max in range(0, 15):
                grid = sum(1 for p in range(2, p_max + 1) for q in range(p + 1, q_max + 1))
                assert cli._table_candidates(p_max, q_max) == grid, (p_max, q_max)

    def test_benchmark_commands_stay_five_times_below_caps(self):
        bench = Path(__file__).resolve().parent.parent / "perfbench"
        sys.path.insert(0, str(bench))
        try:
            workloads = importlib.import_module("workloads")
        finally:
            sys.path.remove(str(bench))
        for name in workloads.WORKLOADS:
            for seed in range(1, 11):
                for argv in workloads.build(name, seed):
                    if argv[0] == "sweep":
                        pq = int(argv[argv.index("-p") + 1]) * int(argv[argv.index("-q") + 1])
                        assert 5 * pq <= SWEEP_MAX_PQ, argv
                    elif argv[0] == "table":
                        rows = cli._table_candidates(int(argv[argv.index("--p-max") + 1]),
                                                     int(argv[argv.index("--q-max") + 1]))
                        assert 5 * rows <= TABLE_MAX_ROWS, argv
