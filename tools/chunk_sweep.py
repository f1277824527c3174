"""Sweep the prediction's chunk width: 100-iteration box solves at 1 and 2 threads.

    python3 tools/chunk_sweep.py [--repeats 5] [--out BENCH_chunks.json]

Run from the repository root; parasplit is imported from ``src/``.  BLAS is
pinned to one thread before numpy loads, so ``thread_count`` is the only
parallelism.  Each run is ``splitting_solver.solve`` on example 5.1 with
beta 0.3, gamma 1.5, bounds [0, 0.8], epsilon 0 and 100 iterations, timed
by its ``SolveReport.seconds_total`` (the iteration loop; the factorizations
before it do not depend on the width or the threads).  The grid is mesh n
in {32, 48} (M = 2n time steps) x chunk width in {8, 16, 32, 64} x threads
in {1, 2}; the width is set through ``splitting_solver.CHUNK_COLS``.  Every
repeat runs the whole grid once, so slow stretches of a shared host fall on
all cells alike.  The output holds, per run, the median and quartiles of
the repeats, whether its iterate equals the width-8 single-thread run's bit
for bit, and the 2-thread speedup (1-thread median over 2-thread median)
per mesh and width.
"""

import sweep_common

if __name__ == "__main__":
    sweep_common.pin_blas()

import argparse
import json
from pathlib import Path

import numpy as np

from parasplit import experiments, splitting_solver
from parasplit.splitting_solver import SolverConfig

MESHES = (32, 48)
WIDTHS = (8, 16, 32, 64)
THREADS = (1, 2)
ITERATIONS = 100


def config(problem, threads: int) -> SolverConfig:
    return SolverConfig(alpha=problem.alpha, beta=0.3, gamma=1.5, epsilon=0.0,
                        k_max=ITERATIONS, bounds=(0.0, 0.8), thread_count=threads)


def timed_solve(sys_, problem, width: int, threads: int):
    splitting_solver.CHUNK_COLS = width
    w, report = splitting_solver.solve(sys_, config(problem, threads))
    return report.seconds_total, w.z


def sweep(repeats: int) -> dict:
    problem = experiments.example_5_1()
    default = splitting_solver.CHUNK_COLS
    systems = {n: experiments.build_level(problem, n) for n in MESHES}
    cells = [(n, width, threads) for n in MESHES for width in WIDTHS for threads in THREADS]
    times = {cell: [] for cell in cells}
    equal = {cell: True for cell in cells}
    reference = {}
    try:
        for n in MESHES:  # untimed: caches, allocator and pool start-up
            for threads in THREADS:
                timed_solve(systems[n], problem, default, threads)
        for _ in range(repeats):
            for n, width, threads in cells:
                seconds, z = timed_solve(systems[n], problem, width, threads)
                times[n, width, threads].append(seconds)
                ref = reference.setdefault(n, z) if (width, threads) == (WIDTHS[0], 1) else reference[n]
                equal[n, width, threads] &= bool(np.array_equal(z, ref))
    finally:
        splitting_solver.CHUNK_COLS = default
    runs = []
    for n, width, threads in cells:
        runs.append({"n": n, "M": systems[n].grid.M, "width": width, "threads": threads,
                     **sweep_common.quartiles(times[n, width, threads]),
                     "samples_s": times[n, width, threads],
                     "equals_width8": equal[n, width, threads]})
    median = {(r["n"], r["width"], r["threads"]): r["median_s"] for r in runs}
    speedup = {f"n{n}": {str(width): median[n, width, 1] / median[n, width, 2] for width in WIDTHS}
               for n in MESHES}
    return {
        "what": "splitting_solver.solve, example 5.1, box [0, 0.8], beta 0.3, gamma 1.5, "
                f"{ITERATIONS} iterations; seconds are SolveReport.seconds_total",
        "command": "python3 tools/chunk_sweep.py --repeats " + str(repeats),
        "environment": sweep_common.environment(),
        "repeats": repeats,
        "default_width": default,
        "runs": runs,
        "speedup_2t": speedup,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", type=Path, default=sweep_common.ROOT / "BENCH_chunks.json")
    args = parser.parse_args(argv)
    if args.repeats < 2:
        parser.error("--repeats must be at least 2 (quartiles need two samples)")
    result = sweep(args.repeats)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    for n, row in result["speedup_2t"].items():
        print(n, " ".join(f"w{w}={s:.2f}" for w, s in row.items()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
