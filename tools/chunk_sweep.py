"""Sweep CHUNK_COLS, which sets an iteration's tasks: 100-iteration box solves at 1 and 2 threads.

    python3 tools/chunk_sweep.py [--repeats 5] [--out BENCH_chunks.json]

Run from the repository root; parasplit is imported from ``src/``.  BLAS is
pinned to one thread before numpy loads, so ``thread_count`` is the only
parallelism.  Each run is ``splitting_solver.solve`` on example 5.1 with
beta 0.3, gamma 1.5, bounds [0, 0.8], epsilon 0 and 100 iterations, timed
by its ``SolveReport.seconds_total`` (the iteration loop; the factorizations
before it do not depend on the width or the threads).  The grid is mesh n
in {32, 48} (M = 2n time steps) x chunk width in {8, 16, 32, 64} x threads
in {1, 2}; the width is set through ``splitting_solver.CHUNK_COLS``.  It
fixes the number of chunks of M steps, ceil(M / width), and with them an
iteration's two batches: the box projection runs one task per chunk, and
the prediction and row pass one task per group of whole mirror blocks,
min(chunks, blocks) groups (``splitting_solver.group_blocks``).  At n = 32
and 48 there are four blocks, so the widths that give four chunks or more
all give four groups and differ only in the projection's chunks.  Every
repeat runs the whole grid once, so slow stretches of a shared host fall
on all cells alike.  The output holds, per run, the chunk and group
counts, the median and quartiles of the repeats, whether its iterate
equals the width-8 single-thread run's bit for bit, the medians of
``SolveReport.seconds_predict`` and ``seconds_correct`` per iteration in
milliseconds, and the minor page faults per iteration (``getrusage``) of
one more solve in a new interpreter, between the monitor calls of
iterations 2 and 100 (which leaves out the solve's one-time allocations);
plus the 2-thread speedup (1-thread median over 2-thread median) per mesh
and width.  Two sweeps run minutes apart differ by the host's drift, so
they compare no two trees; ``tools/ab.py`` times two trees interleaved.
"""

import sweep_common

if __name__ == "__main__":
    sweep_common.pin_blas()

import argparse
import json
import multiprocessing
import resource
import statistics
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
    """The solve's seconds, its predict and correct milliseconds per
    iteration, and its iterate."""
    splitting_solver.CHUNK_COLS = width
    w, report = splitting_solver.solve(sys_, config(problem, threads))
    per_iteration = {"predict_ms_per_iteration": 1e3 * report.seconds_predict / ITERATIONS,
                     "correct_ms_per_iteration": 1e3 * report.seconds_correct / ITERATIONS}
    return report.seconds_total, per_iteration, w.z


def steady_faults(n: int, width: int, threads: int) -> float:
    """Minor page faults of this process per iteration of one solve, from
    the monitor call of iteration 2 to that of the last."""
    problem = experiments.example_5_1()
    sys_ = experiments.build_level(problem, n)
    splitting_solver.CHUNK_COLS = width
    faults = {}

    def monitor(k, w):
        if k in (2, ITERATIONS):
            faults[k] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    splitting_solver.solve(sys_, config(problem, threads), monitor=monitor)
    return (faults[ITERATIONS] - faults[2]) / (ITERATIONS - 2)


def fresh_faults(cells) -> dict:
    """``steady_faults`` of each cell, each in a new interpreter.  How much
    of what an iteration frees the allocator returns to the system, to be
    faulted in again, depends on the sizes the process freed before (glibc
    adapts its mmap and trim thresholds to them), so in one process a
    cell's count would depend on the cells run before it."""
    with multiprocessing.get_context("spawn").Pool(1, maxtasksperchild=1) as pool:
        return {cell: pool.apply(steady_faults, cell) for cell in cells}


def sweep(repeats: int) -> dict:
    problem = experiments.example_5_1()
    default = splitting_solver.CHUNK_COLS
    systems = {n: experiments.build_level(problem, n) for n in MESHES}
    cells = [(n, width, threads) for n in MESHES for width in WIDTHS for threads in THREADS]
    times = {cell: [] for cell in cells}
    layers = {cell: [] for cell in cells}
    equal = {cell: True for cell in cells}
    reference = {}
    try:
        for n in MESHES:  # untimed: caches, allocator and pool start-up
            for threads in THREADS:
                timed_solve(systems[n], problem, default, threads)
        for _ in range(repeats):
            for n, width, threads in cells:
                seconds, per_iteration, z = timed_solve(systems[n], problem, width, threads)
                times[n, width, threads].append(seconds)
                layers[n, width, threads].append(per_iteration)
                ref = reference.setdefault(n, z) if (width, threads) == (WIDTHS[0], 1) else reference[n]
                equal[n, width, threads] &= bool(np.array_equal(z, ref))
    finally:
        splitting_solver.CHUNK_COLS = default
    faults = fresh_faults(cells)
    runs = []
    for n, width, threads in cells:
        M = systems[n].grid.M
        runs.append({"n": n, "M": M, "width": width, "threads": threads,
                     "projection_chunks": -(-M // width),
                     "groups": min(-(-M // width), len(systems[n].mirror_basis.sizes)),  # group_blocks' count
                     **sweep_common.quartiles(times[n, width, threads]),
                     "samples_s": times[n, width, threads],
                     **{name: statistics.median(x[name] for x in layers[n, width, threads])
                        for name in layers[n, width, threads][0]},
                     "minor_faults_per_iteration": faults[n, width, threads],
                     "equals_width8": equal[n, width, threads]})
    median = {(r["n"], r["width"], r["threads"]): r["median_s"] for r in runs}
    speedup = {f"n{n}": {str(width): median[n, width, 1] / median[n, width, 2] for width in WIDTHS}
               for n in MESHES}
    return {
        "what": "splitting_solver.solve, example 5.1, box [0, 0.8], beta 0.3, gamma 1.5, "
                f"{ITERATIONS} iterations, at chunk widths (CHUNK_COLS) that set the projection's "
                "chunks and the groups of mirror blocks; seconds are SolveReport.seconds_total; per iteration: "
                "the medians of SolveReport.seconds_predict and seconds_correct, and the minor "
                "page faults of one solve in a new interpreter from the monitor call of "
                f"iteration 2 to that of {ITERATIONS}",
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
