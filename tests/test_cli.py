import csv
import re

import numpy as np
import pytest

from parasplit.cli import _fmt, main
from parasplit.experiments import build_level, get_example
from parasplit.splitting_solver import SolverConfig, correction_factor, solve


def _read(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestFormatting:
    def test_none_is_blank(self):
        assert _fmt(None) == ""

    def test_integers_pass_through(self):
        assert _fmt(42) == "42"

    def test_floats_round_trip_exactly(self):
        rng = np.random.default_rng(0)
        values = [0.1 + 0.2, 1.0 / 3.0, 2.0**-40, 1e300, -1.2345678901234567e-7]
        values += list(rng.standard_normal(200))
        values += list(10.0 ** rng.uniform(-300, 300, 50) * rng.choice([-1, 1], 50))
        for v in values:
            assert float(_fmt(v)) == v


class TestConverge:
    def test_oracle_study_csv(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        assert main(["converge", "--example", "5.1", "--levels", "2,4", "--out", str(out)]) == 0
        header, rows = _read(out)
        assert header == [
            "level",
            "h",
            "tau",
            "dof",
            "err_y_final",
            "err_u_spacetime",
            "order_y",
            "order_u",
            "solve_s",
        ]
        assert len(rows) == 2
        assert rows[0][0] == "2" and rows[1][0] == "4"
        assert rows[0][6] == ""  # first level has no observed order
        assert float(rows[1][6]) > 0.0
        assert float(rows[0][4]) > float(rows[1][4])
        assert all(float(r[8]) > 0.0 for r in rows)
        out = capsys.readouterr().out
        assert "n=4" in out and out.count("solve_s=") == 2

    def test_alpha_reaches_problem_and_oracle(self, tmp_path):
        # The manufactured solution depends on alpha; a study whose oracle
        # and exact solution used different alphas would show order ~0.
        out = tmp_path / "conv.csv"
        args = ["converge", "--example", "5.1", "--levels", "4,8", "--alpha", "0.1", "--out", str(out)]
        assert main(args) == 0
        _, rows = _read(out)
        assert float(rows[1][6]) > 1.8
        assert float(rows[1][7]) > 1.7

    def test_error_is_one_line_and_exit_one(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        for levels in ("4,2", "4,4"):
            code = main(["converge", "--example", "5.1", "--levels", levels, "--out", str(out)])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "ascending" in err
            assert err.strip().count("\n") == 0
            assert not out.exists()

    def test_empty_level_list_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        assert main(["converge", "--example", "5.1", "--levels", "", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()


class TestIterate:
    def test_history_csv(self, tmp_path):
        out = tmp_path / "it.csv"
        args = ["iterate", "--example", "5.1", "--n", "2", "--kmax", "10", "--eps", "0", "--beta", "1", "--out", str(out)]
        assert main(args) == 0
        header, rows = _read(out)
        assert header == ["k", "hnorm_to_star", "hnorm_increment_sq", "step"]
        assert len(rows) == 10
        dists = [float(r[1]) for r in rows]
        assert dists[-1] < dists[0]
        # the paper's constant step on request: nu = 1 - sqrt(L / (L + 1)), L = 2M
        assert main(args + ["--step", "constant"]) == 0
        _, rows = _read(out)
        M = build_level(get_example("5.1"), 2).grid.M
        assert {float(r[3]) for r in rows} == {correction_factor(M, 1.0)}


class TestBench:
    def test_timing_csv(self, tmp_path):
        out = tmp_path / "bench.csv"
        args = [
            "bench", "--example", "5.1", "--n", "2", "--k", "5",
            "--threads", "1,2", "--beta", "1", "--step", "constant", "--out", str(out),
        ]
        assert main(args) == 0
        header, rows = _read(out)
        assert header == ["threads", "seconds_total", "seconds_predict", "seconds_correct", "psf"]
        assert [r[0] for r in rows] == ["1", "2"]
        assert float(rows[0][4]) == 1.0

    def test_speedup_against_the_serial_run(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        base = ["bench", "--example", "5.1", "--n", "2", "--k", "3", "--beta", "1", "--out", str(out)]
        assert main(base + ["--threads", "2,1"]) == 0
        _, rows = _read(out)
        assert [r[0] for r in rows] == ["2", "1"]
        assert float(rows[1][4]) == 1.0
        capsys.readouterr()
        for threads in ("2", ""):
            out.unlink(missing_ok=True)
            assert main(base + ["--threads", threads]) == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "must include 1" in err
            assert not out.exists()


class TestBox:
    def test_box_run_csv(self, tmp_path, capsys):
        out = tmp_path / "box.csv"
        args = [
            "box", "--example", "5.1", "--n", "2", "--lower", "0.0", "--upper", "0.5",
            "--kmax", "200", "--eps", "1e-14", "--beta", "1", "--out", str(out),
        ]
        assert main(args) == 0
        header, rows = _read(out)
        assert header == ["k", "hnorm_increment_sq", "y_minus_p_norm", "step"]
        assert len(rows) >= 1
        assert all(0.0 < float(r[3]) <= 1.0 for r in rows)  # the box variant's step is capped at 1
        # the summary line of a fresh solve; the printed gap is the last
        # recorded one, which is ||Y - P|| of the returned iterate
        problem = get_example("5.1")
        config = SolverConfig(alpha=problem.alpha, beta=1.0, epsilon=1e-14, k_max=200, bounds=(0.0, 0.5))
        w, report = solve(build_level(problem, 2), config)
        nnz = ",".join(f"{k}:{v}" for k, v in report.factor_nnz.items())
        # the phase seconds are the run's own: two positive floats, printed
        # as _fmt prints them, between the gap and the factors
        line = capsys.readouterr().out
        match = re.fullmatch(r"(.*) seconds_predict=(\S+) seconds_correct=(\S+) (factor_nnz=\S+)\n", line)
        assert match is not None, line
        head, predict_s, correct_s, tail = match.groups()
        assert head == (
            f"iterations={report.iterations} converged={report.converged} "
            f"stop_reason={report.stop_reason} "
            f"P_range=[{_fmt(float(w.P.min()))}, {_fmt(float(w.P.max()))}] "
            f"final_gap={_fmt(float(np.linalg.norm(w.Y - w.P)))}"
        )
        assert tail == f"factor_nnz={nnz}"
        for seconds in (predict_s, correct_s):
            assert 0.0 < float(seconds) < float("inf") and _fmt(float(seconds)) == seconds
        assert nnz.startswith("control:") and ",terminal:" in nnz

    def test_no_unknowns_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "box.csv"
        args = ["box", "--example", "5.1", "--n", "1", "--lower", "0", "--upper", "1", "--out", str(out)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no unknowns" in err and err.count("\n") == 1
        assert not out.exists()
