"""Time this tree's solver against a git revision's, interleaved in one process.

    python3 tools/ab.py REV [--rounds 10] [--step dynamic|constant] [--out BENCH_ab.json]

Run from the repository root.  The tool exports ``git archive REV`` into a
temporary directory and imports both ``src/parasplit`` trees side by side
under two aliases (every import inside the package is relative): REV's as
the base, this tree's as the change.  BLAS is pinned to one thread before
numpy loads.  Each round runs every cell on both trees, alternating which
tree goes first, so slow stretches of a shared host fall on both alike.  A
splitting cell is one ``splitting_solver.solve`` on a level each tree
builds once, timed iteration by iteration from the monitor's timestamps
(the monitor reads no array, so it costs no change of basis; the last
iteration, which no monitor call ends, is not timed).  The oracle cell is
one ``kkt_oracle.solve_kkt`` call per rung, each on a fresh copy of a
level each tree builds once (``dataclasses.replace``, so the call forms
the level's mirror basis, as on a newly built level), timed call by call:

  tol-5.1-n16     example 5.1, n = 16, the example's config: solve to
                  epsilon 1e-12 at 1 thread (the benchmark's time to
                  tolerance)
  box-5.1-n8      example 5.1, n = 8, bounds [0, 0.8], beta 0.3, gamma 1.5,
                  2000 iterations at 1 thread (acceptance criterion 7's
                  level)
  box-5.1-n32-t2  the same bounds and parameters at n = 32, 100 iterations
                  at 2 threads (the benchmark's box workload)
  oracle-ladder   solve_kkt on examples 5.1 and 5.2 at n = 4, 8, 16 and 24
                  (the benchmark's oracle ladder, without its level builds
                  and error norms)

``--step`` sets ``SolverConfig.step`` in the splitting cells of each tree
whose ``SolverConfig`` has that field (``takes_step``): of both trees
where REV has it, so both run the same rule; else of the change only, so
``--step constant`` checks the paper's constant step bit for bit against
a base that has only that rule.  The record names the trees that took it.

Per cell and tree the output holds the sum over iterations (or calls) of
each one's fastest time across the rounds (as ``bench/run.py`` forms
``solve_s``), and the median and quartiles of the per-round sums; per cell,
the rounds in which the change's sum was the lower, the iteration (or
call) counts, and whether the two results are equal bit for bit: the final
iterates' slabs, or each rung's Y*, U* and lambda*, with the largest
difference per slab relative to the base slab's largest entry.  Each run
appends one record to ``--out``.
"""

import sweep_common

if __name__ == "__main__":
    sweep_common.pin_blas()

import argparse
import dataclasses
import gc
import importlib.util
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BOX = {"beta": 0.3, "gamma": 1.5, "epsilon": 0.0, "bounds": (0.0, 0.8)}


@dataclass(frozen=True)
class Cell:
    """A splitting solve of example 5.1 at mesh n, or, with ``rungs``, the
    oracle on each (example, n) rung."""

    name: str
    n: int = 0
    config: dict = field(default_factory=dict)  # SolverConfig fields beside the example's alpha and beta
    rungs: tuple[tuple[str, int], ...] = ()


CELLS = (
    Cell("tol-5.1-n16", 16),
    Cell("box-5.1-n8", 8, {**BOX, "k_max": 2000}),
    Cell("box-5.1-n32-t2", 32, {**BOX, "k_max": 100, "thread_count": 2}),
    Cell("oracle-ladder", rungs=tuple((example, n) for example in ("5.1", "5.2") for n in (4, 8, 16, 24))),
)


def export(rev: str, dest: Path) -> Path:
    """``git archive rev`` unpacked into ``dest``; returns its ``src``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=sweep_common.ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest / "src"


def load(alias: str, src: Path):
    """The ``parasplit`` package under ``src``, imported as ``alias``."""
    root = src / "parasplit"
    spec = importlib.util.spec_from_file_location(alias, root / "__init__.py",
                                                  submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[alias] = package
    spec.loader.exec_module(package)
    return package


class Tree:
    """One tree's package, with each cell's levels built once and
    ``config``'s fields added to every splitting cell's."""

    def __init__(self, package, cells, config=None):
        self.package = package
        self.config = config or {}
        experiments = package.experiments
        self.problems = {"5.1": experiments.example_5_1(), "5.2": experiments.example_5_2()}
        rungs = {rung for cell in cells for rung in cell.rungs or [("5.1", cell.n)]}
        self.levels = {(e, n): experiments.build_level(self.problems[e], n) for e, n in rungs}

    def run(self, cell: Cell) -> tuple[list[float], int, list[np.ndarray]]:
        """One run of ``cell``: its iterations' (or calls') seconds, their
        count and the result's slabs."""
        if cell.rungs:
            return self.run_oracle(cell)
        problem = self.problems["5.1"]
        config = self.package.SolverConfig(**{"alpha": problem.alpha, "beta": problem.beta, **cell.config,
                                              **self.config})
        stamps = []
        w, report = self.package.solve(self.levels["5.1", cell.n], config,
                                       monitor=lambda k, v: stamps.append(time.perf_counter()))
        return np.diff(stamps).tolist(), report.iterations, list(w.z)

    def run_oracle(self, cell: Cell) -> tuple[list[float], int, list[np.ndarray]]:
        seconds, slabs = [], []
        for example, n in cell.rungs:
            level = dataclasses.replace(self.levels[example, n])
            t0 = time.perf_counter()
            sol = self.package.solve_kkt(level, self.problems[example].alpha)
            seconds.append(time.perf_counter() - t0)
            slabs += [sol.Y_star, sol.U_star, sol.lambda_star]
        return seconds, len(cell.rungs), slabs


def _summary(sums: list[float], per_iteration: list[list[float]]) -> dict:
    q1, median, q3 = statistics.quantiles(sums, n=4, method="inclusive")
    return {"sum_of_minima_s": float(np.min(per_iteration, axis=0).sum()),
            "median_s": median, "q1_s": q1, "q3_s": q3}


def takes_step(package) -> bool:
    """Whether the package's ``SolverConfig`` has a ``step`` field."""
    return "step" in {f.name for f in dataclasses.fields(package.SolverConfig)}


def compare(base, change, cells=CELLS, rounds: int = 10, step: str | None = None) -> dict:
    """Run every cell ``rounds`` (at least 2) times on the packages
    ``base`` and ``change``, alternating which goes first, the splitting
    cells of each tree that ``takes_step`` with ``step`` as their step rule
    when given; per cell, the timings of both, the rounds the change won,
    the iteration counts and the final iterates' difference."""
    trees = {side: Tree(package, cells, {"step": step} if step and takes_step(package) else None)
             for side, package in (("base", base), ("change", change))}
    for tree in trees.values():  # untimed: caches, allocator and pool start-up
        tree.run(dataclasses.replace(cells[0], config={**cells[0].config, "epsilon": 0.0, "k_max": 5}))
    times = {cell.name: {side: [] for side in trees} for cell in cells}
    last = {}
    for r in range(rounds):
        order = ("base", "change") if r % 2 == 0 else ("change", "base")
        gc.collect()
        for cell in cells:
            for side in order:
                seconds, iterations, z = trees[side].run(cell)
                times[cell.name][side].append(seconds)
                last[cell.name, side] = iterations, z
    out = {}
    for cell in cells:
        t = times[cell.name]
        sums = {side: [sum(s) for s in t[side]] for side in trees}
        (k_base, z_base), (k_change, z_change) = last[cell.name, "base"], last[cell.name, "change"]
        out[cell.name] = {
            "n": cell.n,
            "config": cell.config,
            **{side: _summary(sums[side], t[side]) for side in trees},
            "change_won_rounds": sum(c < b for b, c in zip(sums["base"], sums["change"])),
            "iterations": {"base": k_base, "change": k_change},
            "identical": len(z_base) == len(z_change) and all(map(np.array_equal, z_base, z_change)),
            "max_rel_diff_per_slab": [float(np.abs(a - b).max() / max(np.abs(b).max(), np.finfo(float).tiny))
                                      for a, b in zip(z_change, z_base)],
        }
    return out


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=sweep_common.ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the base revision, e.g. HEAD or a commit")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--step", choices=["dynamic", "constant"], default=None,
                        help="the step rule of each tree that has one (default: its SolverConfig default)")
    parser.add_argument("--out", type=Path, default=sweep_common.ROOT / "BENCH_ab.json")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2 (quartiles need two samples)")
    with tempfile.TemporaryDirectory() as tmp:
        base = load("parasplit_ab_base", export(args.rev, Path(tmp)))
        change = load("parasplit_ab_change", sweep_common.ROOT / "src")
        cells = compare(base, change, rounds=args.rounds, step=args.step)
    record = {
        "command": f"python3 tools/ab.py {args.rev} --rounds {args.rounds}"
                   + (f" --step {args.step}" if args.step else ""),
        "base": _git("rev-parse", args.rev),
        "change": {"head": _git("rev-parse", "HEAD"),
                   "uncommitted_src": bool(_git("status", "--porcelain", "--", "src"))},
        "environment": sweep_common.environment(),
        "rounds": args.rounds,
        "step": None if args.step is None else {"rule": args.step,
                               "trees": [side for side, package in (("base", base), ("change", change))
                                         if takes_step(package)]},
        "cells": cells,
    }
    records = json.loads(args.out.read_text()) if args.out.exists() else []
    args.out.write_text(json.dumps(records + [record], indent=1) + "\n")
    for name, c in cells.items():
        b, ch = c["base"]["sum_of_minima_s"], c["change"]["sum_of_minima_s"]
        print(f"{name}: {b:.3f} -> {ch:.3f} s ({100 * (ch / b - 1):+.1f}%), median "
              f"{c['base']['median_s']:.3f} -> {c['change']['median_s']:.3f} s, won "
              f"{c['change_won_rounds']}/{args.rounds}, iterations {c['iterations']}, "
              f"identical {c['identical']}, max rel diff {max(c['max_rel_diff_per_slab']):.1e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
