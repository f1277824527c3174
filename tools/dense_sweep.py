"""Time the prediction factors' group solves on each ``factorize`` path.

    python3 tools/dense_sweep.py [--repeats 7] [--out BENCH_dense.json]

Run from the repository root; parasplit is imported from ``src/``.  BLAS is
pinned to one thread before numpy loads, as in the solver's benchmark.  For
examples 5.1 and 5.2 at mesh n in MESHES, the tool builds the level, changes
it into its mirror basis as ``splitting_solver.solve`` does
(``DiscreteSystem.in_mirror_basis``) and builds, with the example's beta
and no bounds, the splitting solver's three prediction factors there on
each path (the module's cap set, inside this tool, so that every block
takes it):

  superlu   SuperLU's sparse factors of each mirror block
  blocked   one dense inverse per mirror block

and times, per path:

  build     ``PredictionFactors.build``: the three factorizations
  group     ``PredictionFactors.solve`` of each group of the level's blocks
            (``splitting_solver.Group.partition``, the rows one task of an
            iteration predicts) on its right-hand sides at all M steps: the
            control and state solves, and the last column again against the
            terminal factor, into a reused solution array.  These are the
            shapes one prediction solves.

A per-call time is the mean of a batch of calls sized to take ~20 ms, so
it resolves microseconds.  Every level and its factors on both paths are
built first; then every repeat times every level, both paths of it in
turn, so a slow stretch of a shared host falls on all levels and both
paths alike instead of on whole levels.  The output holds the median and
quartiles of the repeats per cell and, per level, the block sizes, each
path's stored entries (``CholFactor.nnz`` summed over the factors), its
solve time of one prediction (the group medians summed), and the blocked
path's payback against SuperLU: the iterations
after which its faster solves have saved its extra build time, taken in
each repeat from that repeat's samples, as the median and quartiles over
the repeats (None where it never repays).  The blocked path pays on a
level when it is no slower than SuperLU at every group a prediction solves
and its median payback is within PAYBACK_ITERATIONS iterations.  The
output names the largest block where it pays and the smallest where it
does not, between which ``BLOCK_MAX_NDOF`` should fall.  The tool reads
the cap; it does not set it.  All levels' factors are held at once: the
sweep peaks at about 0.9 GB resident.
"""

import sweep_common

if __name__ == "__main__":
    sweep_common.pin_blas()

import argparse
import json
import math
import time
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np

from parasplit import experiments, sparse_linalg
from parasplit.splitting_solver import Group, PredictionFactors, SolverConfig

EXAMPLES = ("5.1", "5.2")
MESHES = (8, 12, 14, 16, 20, 24, 28, 32, 40, 48, 56, 64)
PAYBACK_ITERATIONS = 50  # a 100-iteration run keeps at least half of a dense path's saving
PATHS = {"superlu": 0, "blocked": 10**9}  # the BLOCK_MAX_NDOF that sends every block down one path


@contextmanager
def cap(path: str):
    saved = sparse_linalg.BLOCK_MAX_NDOF
    sparse_linalg.BLOCK_MAX_NDOF = PATHS[path]
    try:
        yield
    finally:
        sparse_linalg.BLOCK_MAX_NDOF = saved


def prepare_level(example: str, n: int) -> dict:
    """A level in its mirror basis, each path's factors and those of its
    groups (keyed by the group's first and last row), one right-hand side
    per group and empty sample lists."""
    problem = experiments.get_example(example)
    config = SolverConfig(alpha=problem.alpha, beta=problem.beta)
    sys_ = experiments.build_level(problem, n).in_mirror_basis()
    factors = {}
    for path in PATHS:
        with cap(path):
            whole = PredictionFactors.build(sys_, config)
        factors[path] = {"whole": whole, "groups": {(g.rows.start, g.rows.stop): g.factors
                                                    for g in Group.partition(sys_, whole)}}
    groups = list(factors["blocked"]["groups"])
    rng = np.random.default_rng(n)
    rhs = {rows: rng.standard_normal((2, rows[1] - rows[0], sys_.grid.M)) for rows in groups}
    times = {path: {"build": [], **{rows: [] for rows in groups}} for path in PATHS}
    return {"example": example, "n": n, "sys": sys_, "config": config, "groups": groups,
            "rhs": rhs, "factors": factors, "times": times}


def time_level(level: dict) -> None:
    """One repeat of a level: both paths' build and group solves, one sample each."""
    sys_, config, times = level["sys"], level["config"], level["times"]
    for path, f in level["factors"].items():
        with cap(path):
            t0 = time.perf_counter()
            PredictionFactors.build(sys_, config)
            times[path]["build"].append(time.perf_counter() - t0)
        for rows, b in level["rhs"].items():
            out = np.empty_like(b)
            times[path][rows].append(sweep_common.per_call(partial(f["groups"][rows].solve, b, out)))


def paybacks(times: dict, groups: list) -> list[float]:
    """The blocked path's payback in each repeat, from that repeat's samples
    of both paths: its extra build time over its saving per prediction
    (inf when it saves nothing)."""
    out = []
    for r in range(len(times["blocked"]["build"])):
        prediction = {path: sum(t[rows][r] for rows in groups) for path, t in times.items()}
        saving = prediction["superlu"] - prediction["blocked"]
        extra = times["blocked"]["build"][r] - times["superlu"]["build"][r]
        out.append(max(extra, 0.0) / saving if saving > 0 else math.inf)
    return out


def finite(x: float) -> float | None:
    return None if math.isinf(x) else float(x)


def sweep(repeats: int) -> dict:
    quartiles = sweep_common.quartiles
    levels = [prepare_level(example, n) for example in EXAMPLES for n in MESHES]
    for _ in range(repeats):
        for level in levels:
            time_level(level)

    runs, summaries = [], []
    for level in levels:
        example, n, sys_, groups, times = (level[k] for k in ("example", "n", "sys", "groups", "times"))
        M, ndof = sys_.grid.M, sys_.ndof
        nnz = {path: sum(x.nnz for x in f["whole"].named.values()) for path, f in level["factors"].items()}
        summary = {}
        for path, t in times.items():
            group = {rows: quartiles(t[rows]) for rows in groups}
            summary[path] = {
                "build": quartiles(t["build"]),
                "prediction_s": sum(q["median_s"] for q in group.values()),
                "stored_entries": nnz[path],
                "groups": group,
            }
            for (lo, hi), q in group.items():
                runs.append({
                    "example": example, "n": n, "ndof": ndof, "M": M, "path": path,
                    "rows": [lo, hi], "columns": M, **q, "samples_s": t[lo, hi],
                })
        superlu, blocked = summary["superlu"], summary["blocked"]
        q1, payback, q3 = np.quantile(paybacks(times, groups), [0.25, 0.5, 0.75], method="nearest")
        no_slower = all(blocked["groups"][rows]["median_s"] <= superlu["groups"][rows]["median_s"]
                        for rows in groups)
        summaries.append({
            "example": example, "n": n, "ndof": ndof, "M": M, "block_sizes": sys_.block_sizes,
            "blocked_payback_iterations": finite(payback),
            "blocked_payback_quartiles": [finite(q1), finite(q3)],
            "group_rows": [list(rows) for rows in groups],
            "blocked_no_slower_at_every_group": no_slower,
            "blocked_pays": bool(no_slower and payback <= PAYBACK_ITERATIONS),
            "path_in_module": ("blocked" if max(sys_.block_sizes) <= sparse_linalg.BLOCK_MAX_NDOF
                               else "superlu"),
            "paths": {path: {k: v for k, v in s.items() if k != "groups"} for path, s in summary.items()},
        })
        print(f"{example} n={n:2d} ndof={ndof:4d} M={M:3d} blocks={sys_.block_sizes} prediction "
              + " ".join(f"{p}={1e6 * s['prediction_s']:8.1f}us/build {1e3 * s['build']['median_s']:6.1f}ms"
                         for p, s in summary.items())
              + f" payback={payback:.3g} [{q1:.3g}, {q3:.3g}] pays={summaries[-1]['blocked_pays']}")

    def bounds(pays: dict):
        smallest = min((d for d, ok in pays.items() if not ok), default=None)
        largest = max((d for d in pays if smallest is None or d < smallest), default=None)
        return largest, smallest

    blocked = {}
    for s in summaries:
        size = max(s["block_sizes"])
        blocked[size] = blocked.get(size, True) and s["blocked_pays"]
    return {
        "what": "the splitting solver's prediction factors in the mirror basis on each factorize "
                "path (SuperLU per block, one dense inverse per block): the solves of each group "
                "of blocks at all M steps, as one prediction runs them, the build time of the "
                "three factors and the stored entries",
        "command": "python3 tools/dense_sweep.py --repeats " + str(repeats),
        "environment": sweep_common.environment(),
        "repeats": repeats,
        "payback_iterations_bound": PAYBACK_ITERATIONS,
        "block_max_ndof": sparse_linalg.BLOCK_MAX_NDOF,
        "blocked_pays_up_to_block": bounds(blocked)[0],
        "blocked_does_not_pay_from_block": bounds(blocked)[1],
        "levels": summaries,
        "runs": runs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--out", type=Path, default=sweep_common.ROOT / "BENCH_dense.json")
    args = parser.parse_args(argv)
    if args.repeats < 5:
        parser.error("--repeats must be at least 5")
    result = sweep(args.repeats)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"BLOCK_MAX_NDOF={result['block_max_ndof']}: the blocked path pays up to blocks of "
          f"{result['blocked_pays_up_to_block']}, not from {result['blocked_does_not_pay_from_block']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
