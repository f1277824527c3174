"""Smoke test of the benchmark harness: every workload's code path at tiny sizes.

    python3 -m pytest -q bench/test_bench.py
"""

import json

import pytest

import run
from parasplit import splitting_solver
from workloads import BoxFixedIterations, OracleLadder, TimeToTolerance, kkt_reference

# At n = 4 the converged iterate is 1e-2 from the saddle point in U (relative).
TINY = {
    "tol-5.1-n16": lambda: TimeToTolerance(n=4, rtol=2e-2),
    "box-5.1-n32-t2": lambda: BoxFixedIterations(n=4, iterations=10),
    "oracle-ladder": lambda: OracleLadder(levels=(4, 8)),
}


def run_tiny(capsys, tmp_path, name, trace, workloads=TINY):
    code = run.main(["--workload", name, "--seed", "7", "--seconds", "0", "--trace", str(trace)],
                    workloads=workloads, out_dir=tmp_path)
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_printed_with_unit(capsys, tmp_path, name, trace):
    solve = splitting_solver.solve
    result = run_tiny(capsys, tmp_path, name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads(run.BENCHMARK.read_text())["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if trace:
        assert splitting_solver.solve is solve  # the tracer restored the original
        assert (tmp_path / f"spans-{name}-seed7.json.gz").is_file()


def _scaled_reference(sys, alpha):
    Y, U = kkt_reference(sys, alpha)
    return 2.0 * Y, U


WRONG = {
    "tol-5.1-n16": lambda: TimeToTolerance(n=4, reference=_scaled_reference, rtol=2e-2),
    "oracle-ladder": lambda: OracleLadder(
        levels=(4, 8), orders={("5.1", 8): (2.0, 2.0), ("5.2", 8): (2.0, 2.0)}),
}


@pytest.mark.parametrize("name", sorted(WRONG))
def test_wrong_reference_counts_failed(capsys, tmp_path, name):
    result = run_tiny(capsys, tmp_path, name, 0, workloads=WRONG)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_fastest_steps():
    rows = [[1.0, 5.0, 3.0], [2.0, 4.0, 1.0]]
    assert run.fastest_steps(rows) == 1.0 + 4.0 + 1.0
    assert run.fastest_steps(rows, neighbours=1) == 1.0 + 1.0 + 1.0
    assert run.fastest_steps([[], []], neighbours=1) == 0.0
    # Repeats of different lengths: the fastest whole repeat.
    assert run.fastest_steps([[1.0, 2.0], [2.5]]) == 2.5
