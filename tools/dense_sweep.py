"""Time the prediction factors' chunk solves on each ``factorize`` path.

    python3 tools/dense_sweep.py [--repeats 7] [--out BENCH_dense.json]

Run from the repository root; parasplit is imported from ``src/``.  BLAS is
pinned to one thread before numpy loads, as in the solver's benchmark.  For
examples 5.1 and 5.2 at mesh n in MESHES, the tool builds the level and,
with the example's beta and no bounds, the splitting solver's three
prediction factors on each path (the module's caps set, inside this tool,
so that every factor takes it):

  superlu   SuperLU's sparse factors
  whole     the whole inverse (levels up to WHOLE_MAX_NDOF unknowns)
  blocked   one inverse per mirror block, in the system's mirror basis

and times, per path:

  build     ``PredictionFactors.build``: the three factorizations
  chunk     ``PredictionFactors.solve`` on one chunk's right-hand sides,
            for every chunk shape one prediction solves (``predict``'s
            chunks of M steps: their widths, and whether the chunk ends at
            step M and so also solves its last column against the terminal
            factor), and for a full chunk of CHUNK_COLS columns.  Each call
            first copies the right-hand sides into the chunk's buffer, as
            the solver forms them there, and solves with the chunk's reused
            work arrays.

A per-call time is the mean of a batch of calls sized to take ~20 ms, so
it resolves microseconds.  The levels are swept one at a time, and every
repeat times every path of the level once, so slow stretches of a shared
host fall on all paths alike.  The output holds the median and quartiles
of the repeats per cell and, per level, the block sizes, each path's
stored entries (``CholFactor.nnz`` summed over the factors), its solve time
of one prediction (the chunk medians summed over a prediction's chunks),
and, for the two dense paths, the payback against SuperLU: the iterations
after which the faster solves have saved the extra build time.  A dense
path pays on a level when it is no slower than SuperLU at every chunk a
prediction solves and repays within PAYBACK_ITERATIONS iterations.  The
output names the largest ndof where the whole inverse pays and the
smallest where it does not; the largest block where the blocked path pays
and the smallest where it does not, on the levels above
``DENSE_MAX_NDOF``, between which ``BLOCK_MAX_NDOF`` should fall; and the
smallest ndof from which the blocked path's predictions are faster than
the whole inverse's.  ``DENSE_MAX_NDOF`` should fall below both that
crossover and the smallest ndof where the whole inverse does not pay:
since the whole inverse is formed by Cholesky it repays above the cap (up
to ndof 289 or 361, sweep to sweep), and the cap rests on the crossover
(289).  The tool reads
the caps; it does not set them.
"""

import sweep_common

if __name__ == "__main__":
    sweep_common.pin_blas()

import argparse
import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from parasplit import experiments, sparse_linalg
from parasplit.splitting_solver import CHUNK_COLS, PredictionFactors, SolverConfig, _chunks

EXAMPLES = ("5.1", "5.2")
MESHES = (8, 12, 14, 16, 20, 24, 28, 32, 40, 48, 56, 64)
WHOLE_MAX_NDOF = 1100  # n <= 32: the whole inverse of larger levels costs seconds to form
PAYBACK_ITERATIONS = 50  # a 100-iteration run keeps at least half of a dense path's saving
# (DENSE_MAX_NDOF, BLOCK_MAX_NDOF) that send every factor of a level down one path
PATHS = {"superlu": (0, 0), "whole": (10**9, 0), "blocked": (0, 10**9)}


@contextmanager
def caps(path: str):
    saved = sparse_linalg.DENSE_MAX_NDOF, sparse_linalg.BLOCK_MAX_NDOF
    sparse_linalg.DENSE_MAX_NDOF, sparse_linalg.BLOCK_MAX_NDOF = PATHS[path]
    try:
        yield
    finally:
        sparse_linalg.DENSE_MAX_NDOF, sparse_linalg.BLOCK_MAX_NDOF = saved


def chunk_shapes(M: int) -> Counter:
    """How many chunks of each (width, ends at step M) one prediction solves."""
    return Counter((c.stop - c.start, c.stop == M) for c in _chunks(M))


def sweep_level(sys_, config, repeats: int, rng) -> tuple[dict, dict]:
    """Build and chunk-solve times of each path on one level."""
    shapes = chunk_shapes(sys_.grid.M)
    timed = set(shapes) | {(CHUNK_COLS, False)}
    paths = [p for p in PATHS if p != "whole" or sys_.ndof <= WHOLE_MAX_NDOF]
    rhs = {shape: rng.standard_normal((2, sys_.ndof, shape[0])) for shape in timed}
    cells = {}
    for path in paths:
        with caps(path):
            factors = PredictionFactors.build(sys_, config)
        basis = factors.control.basis
        work = {shape: None if basis is None else sparse_linalg.BlockedWork(basis, 2, shape[0]) for shape in timed}
        cells[path] = (factors, work)
    times = {path: {"build": [], **{shape: [] for shape in timed}} for path in paths}
    for _ in range(repeats):
        for path, (factors, work) in cells.items():
            with caps(path):
                t0 = time.perf_counter()
                PredictionFactors.build(sys_, config)
                times[path]["build"].append(time.perf_counter() - t0)
            for shape, b in rhs.items():
                buf = np.empty_like(b)

                def call():
                    np.copyto(buf, b)
                    factors.solve(buf, shape[1], work[shape])

                times[path][shape].append(sweep_common.per_call(call))
    nnz = {path: sum(f.nnz for f in vars(factors).values() if f is not None)
           for path, (factors, _) in cells.items()}
    return times, nnz


def sweep(repeats: int) -> dict:
    quartiles = sweep_common.quartiles
    runs, levels = [], []
    for example in EXAMPLES:
        problem = experiments.get_example(example)
        config = SolverConfig(alpha=problem.alpha, beta=problem.beta)
        for n in MESHES:
            sys_ = experiments.build_level(problem, n)
            M, ndof = sys_.grid.M, sys_.ndof
            shapes = chunk_shapes(M)
            times, nnz = sweep_level(sys_, config, repeats, np.random.default_rng(n))
            summary = {}
            for path, t in times.items():
                chunk = {shape: quartiles(s) for shape, s in t.items() if shape != "build"}
                summary[path] = {
                    "build": quartiles(t["build"]),
                    "prediction_s": sum(count * chunk[shape]["median_s"] for shape, count in shapes.items()),
                    "stored_entries": nnz[path],
                    "chunks": chunk,
                }
                for shape, q in chunk.items():
                    runs.append({
                        "example": example, "n": n, "ndof": ndof, "M": M, "path": path,
                        "columns": shape[0], "terminal": shape[1],
                        "chunks_per_prediction": shapes[shape], **q, "samples_s": t[shape],
                    })
            superlu = summary["superlu"]
            level = {"example": example, "n": n, "ndof": ndof, "M": M,
                     "block_sizes": sys_.mirror_basis.sizes}
            for path in ("whole", "blocked"):
                if path not in summary:
                    continue
                s = summary[path]
                saving = superlu["prediction_s"] - s["prediction_s"]
                extra = s["build"]["median_s"] - superlu["build"]["median_s"]
                payback = max(extra, 0.0) / saving if saving > 0 else None
                no_slower = all(s["chunks"][shape]["median_s"] <= superlu["chunks"][shape]["median_s"]
                                for shape in shapes)
                level[f"{path}_payback_iterations"] = payback
                level[f"{path}_no_slower_at_every_chunk"] = no_slower
                level[f"{path}_pays"] = no_slower and payback is not None and payback <= PAYBACK_ITERATIONS
            if "whole" in summary:
                level["blocked_faster_than_whole"] = (
                    summary["blocked"]["prediction_s"] < summary["whole"]["prediction_s"])
            level["path_in_module"] = (
                "whole" if ndof <= sparse_linalg.DENSE_MAX_NDOF
                else "blocked" if max(level["block_sizes"]) <= sparse_linalg.BLOCK_MAX_NDOF
                else "superlu")
            level["paths"] = {path: {k: v for k, v in s.items() if k != "chunks"} for path, s in summary.items()}
            levels.append(level)
            print(f"{example} n={n:2d} ndof={ndof:4d} M={M:3d} blocks={level['block_sizes']} prediction "
                  + " ".join(f"{p}={1e6 * s['prediction_s']:8.1f}us/build {1e3 * s['build']['median_s']:6.1f}ms"
                             for p, s in summary.items())
                  + "".join(f" {p}:payback={level.get(p + '_payback_iterations')},pays={level.get(p + '_pays')}"
                            for p in ("whole", "blocked") if p in summary),
                  flush=True)

    def bounds(pays: dict):
        smallest = min((d for d, ok in pays.items() if not ok), default=None)
        largest = max((d for d in pays if smallest is None or d < smallest), default=None)
        return largest, smallest

    whole, blocked = {}, {}
    for s in levels:
        if "whole_pays" in s:
            whole[s["ndof"]] = whole.get(s["ndof"], True) and s["whole_pays"]
        if s["ndof"] > sparse_linalg.DENSE_MAX_NDOF:  # below it the whole inverse is the candidate
            size = max(s["block_sizes"])
            blocked[size] = blocked.get(size, True) and s["blocked_pays"]
    faster = {s["ndof"]: s["blocked_faster_than_whole"] for s in levels if "blocked_faster_than_whole" in s}
    crossover = min((d for d in faster if all(faster[e] for e in faster if e >= d)), default=None)
    return {
        "what": "the splitting solver's prediction factors on each factorize path (SuperLU, the "
                "whole inverse, one inverse per mirror block): chunk solves at every chunk shape "
                "one prediction uses and a full chunk of CHUNK_COLS columns, the build time of "
                "the three factors and the stored entries",
        "command": "python3 tools/dense_sweep.py --repeats " + str(repeats),
        "environment": sweep_common.environment(),
        "repeats": repeats,
        "chunk_cols": CHUNK_COLS,
        "payback_iterations_bound": PAYBACK_ITERATIONS,
        "dense_max_ndof": sparse_linalg.DENSE_MAX_NDOF,
        "block_max_ndof": sparse_linalg.BLOCK_MAX_NDOF,
        "whole_pays_up_to_ndof": bounds(whole)[0],
        "whole_does_not_pay_from_ndof": bounds(whole)[1],
        "blocked_pays_up_to_block": bounds(blocked)[0],
        "blocked_does_not_pay_from_block": bounds(blocked)[1],
        "blocked_faster_than_whole_from_ndof": crossover,
        "levels": levels,
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
    print(f"DENSE_MAX_NDOF={result['dense_max_ndof']}: the whole inverse pays up to ndof "
          f"{result['whole_pays_up_to_ndof']}, not from {result['whole_does_not_pay_from_ndof']}")
    print(f"BLOCK_MAX_NDOF={result['block_max_ndof']}: the blocked path pays up to blocks of "
          f"{result['blocked_pays_up_to_block']}, not from {result['blocked_does_not_pay_from_block']}")
    print(f"blocked predictions are faster than the whole inverse's from ndof "
          f"{result['blocked_faster_than_whole_from_ndof']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
