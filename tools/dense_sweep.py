"""Time the prediction factors' solves through SuperLU and through a dense inverse.

    python3 tools/dense_sweep.py [--repeats 7] [--out BENCH_dense.json]

Run from the repository root; parasplit is imported from ``src/``.  BLAS is
pinned to one thread before numpy loads, as in the solver's benchmark.  For
examples 5.1 and 5.2 at mesh n in {8, 12, 14, 16, 20, 24, 28, 32}, the tool
builds the level and the splitting solver's three prediction factors (the
example's beta, no bounds) and times, per factor:

  superlu   one SuperLU solve, at every right-hand-side width one prediction
            uses (``predict``'s chunks of M steps: the control and state
            chunks, full and partial, and the terminal factor's single
            column), and at a full chunk of CHUNK_COLS columns
  dense     the product of the inverse with the same right-hand sides
  inverse   forming the inverse from the LU factors, lu.solve(I), stored
            C-contiguous, as ``sparse_linalg.factorize`` does under its cap

A per-solve time is the mean of a batch of solves sized to take ~20 ms, so
it resolves microseconds; every repeat times every cell once, so slow
stretches of a shared host fall on all cells alike.  The output holds the
median and quartiles of the repeats per cell and, per level, the solve time
of one prediction on each path (the per-width medians weighted by how often
a prediction solves at that width), the time to form all three inverses and
the payback: the iterations after which the dense path has saved what its
inverses cost.  The dense path pays on a level when it is no slower at
every width a prediction uses and repays within PAYBACK_ITERATIONS
iterations; the output names the largest ndof where it pays and the
smallest where it does not, between which ``DENSE_MAX_NDOF`` should fall.
The tool reads that cap; it does not set it.
"""

import sweep_common

if __name__ == "__main__":
    sweep_common.pin_blas()

import argparse
import json
import time
from collections import Counter
from pathlib import Path

import numpy as np

from parasplit import experiments, sparse_linalg
from parasplit.splitting_solver import CHUNK_COLS, PredictionFactors, SolverConfig, _chunks

EXAMPLES = ("5.1", "5.2")
MESHES = (8, 12, 14, 16, 20, 24, 28, 32)
PAYBACK_ITERATIONS = 50  # a 100-iteration run keeps at least half of the dense path's saving


def inverse(lu, ndof: int) -> np.ndarray:
    return np.ascontiguousarray(lu.solve(np.eye(ndof)))


def prediction_widths(M: int) -> dict[str, Counter]:
    """How many solves of each width one prediction makes per factor.

    Width 0 stands for the terminal factor's one right-hand side, a vector.
    """
    widths = Counter(c.stop - c.start for c in _chunks(M))
    return {"control": widths, "state": widths if M > 1 else Counter(),
            "terminal": Counter({0: 1})}


def sweep(repeats: int) -> dict:
    levels, cells = {}, {}
    for example in EXAMPLES:
        problem = experiments.get_example(example)
        for n in MESHES:
            sys_ = experiments.build_level(problem, n)
            factors = PredictionFactors.build(sys_, SolverConfig(alpha=problem.alpha, beta=problem.beta))
            widths = prediction_widths(sys_.grid.M)
            rng = np.random.default_rng(n)
            levels[example, n] = (sys_.ndof, sys_.grid.M, widths)
            for name, counts in widths.items():
                lu = getattr(factors, name)._lu
                timed = set(counts) | ({CHUNK_COLS} if name != "terminal" else set())
                rhs = {w: rng.standard_normal((sys_.ndof, w) if w else sys_.ndof) for w in sorted(timed)}
                cells[example, n, name] = (lu, inverse(lu, sys_.ndof), rhs)
    times = {cell: {"inverse": [], **{w: {"superlu": [], "dense": []} for w in rhs}}
             for cell, (_, _, rhs) in cells.items()}
    for _ in range(repeats):
        for cell, (lu, inv, rhs) in cells.items():
            for w, b in rhs.items():
                times[cell][w]["superlu"].append(sweep_common.per_call(lambda: lu.solve(b)))
                times[cell][w]["dense"].append(sweep_common.per_call(lambda: inv @ b))
            t0 = time.perf_counter()
            inverse(lu, inv.shape[0])
            times[cell]["inverse"].append(time.perf_counter() - t0)

    quartiles = sweep_common.quartiles
    runs, summary = [], []
    for (example, n), (ndof, M, widths) in levels.items():
        per_iteration = {"superlu": 0.0, "dense": 0.0}
        inverses, no_slower = 0.0, True
        for name, counts in widths.items():
            lu, _, rhs = cells[example, n, name]
            t = times[example, n, name]
            inv = quartiles(t["inverse"])
            inverses += inv["median_s"]
            for w in rhs:
                superlu, dense = quartiles(t[w]["superlu"]), quartiles(t[w]["dense"])
                for path, q in (("superlu", superlu), ("dense", dense)):
                    per_iteration[path] += counts[w] * q["median_s"]
                no_slower &= not counts[w] or dense["median_s"] <= superlu["median_s"]
                runs.append({
                    "example": example, "n": n, "ndof": ndof, "M": M, "factor": name,
                    "columns": w or 1, "vector": not w, "solves_per_prediction": counts[w],
                    "factor_nnz": lu.L.nnz + lu.U.nnz,
                    "superlu": superlu, "dense": dense, "inverse": inv,
                    "speedup": superlu["median_s"] / dense["median_s"],
                    "samples_s": {"superlu": t[w]["superlu"], "dense": t[w]["dense"],
                                  "inverse": t["inverse"]},
                })
        saving = per_iteration["superlu"] - per_iteration["dense"]
        payback = inverses / saving if saving > 0 else None
        summary.append({
            "example": example, "n": n, "ndof": ndof, "M": M,
            "prediction_superlu_s": per_iteration["superlu"],
            "prediction_dense_s": per_iteration["dense"],
            "inverses_s": inverses,
            "payback_iterations": payback,
            "dense_no_slower_at_every_width": no_slower,
            "dense_pays": no_slower and payback is not None and payback <= PAYBACK_ITERATIONS,
            "dense_in_module": ndof <= sparse_linalg.DENSE_MAX_NDOF,
        })
    pays = {}
    for s in summary:
        pays[s["ndof"]] = pays.get(s["ndof"], True) and s["dense_pays"]
    smallest = min((d for d, ok in pays.items() if not ok), default=None)
    largest = max((d for d in pays if smallest is None or d < smallest), default=None)
    return {
        "what": "solves of the splitting solver's prediction factors at the widths one "
                "prediction uses (and a full chunk of CHUNK_COLS columns): SuperLU against "
                "the dense inverse, and the time to form the inverses",
        "command": "python3 tools/dense_sweep.py --repeats " + str(repeats),
        "environment": sweep_common.environment(),
        "repeats": repeats,
        "chunk_cols": CHUNK_COLS,
        "payback_iterations_bound": PAYBACK_ITERATIONS,
        "dense_max_ndof": sparse_linalg.DENSE_MAX_NDOF,
        "largest_ndof_dense_pays": largest,
        "smallest_ndof_dense_does_not_pay": smallest,
        "levels": summary,
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
    for r in result["runs"]:
        print(f"{r['example']} n={r['n']:2d} ndof={r['ndof']:4d} {r['factor']:8s} "
              f"cols={r['columns']:2d}{'v' if r['vector'] else ' '} x{r['solves_per_prediction']} "
              f"superlu={1e6 * r['superlu']['median_s']:8.1f}us "
              f"dense={1e6 * r['dense']['median_s']:8.1f}us x{r['speedup']:.2f}")
    for s in result["levels"]:
        payback = s["payback_iterations"]
        print(f"{s['example']} n={s['n']:2d} ndof={s['ndof']:4d} M={s['M']:2d} prediction "
              f"superlu={1e6 * s['prediction_superlu_s']:8.1f}us dense={1e6 * s['prediction_dense_s']:8.1f}us "
              f"inverses={1e3 * s['inverses_s']:6.2f}ms payback="
              f"{'never' if payback is None else f'{payback:.1f}'} "
              f"{'pays' if s['dense_pays'] else 'does not pay'}; "
              f"{'dense' if s['dense_in_module'] else 'superlu'} in the module")
    print(f"DENSE_MAX_NDOF={result['dense_max_ndof']}: dense pays up to ndof "
          f"{result['largest_ndof_dense_pays']}, not from {result['smallest_ndof_dense_does_not_pay']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
