"""Time the correction on a group of rows: slab by slab, as the loop runs it, against whole-group calls.

    python3 tools/group_calls.py [--repeats 9] [--n 32] [--out BENCH_groups.json]

Run from the repository root; parasplit is imported from ``src/``, with BLAS
pinned to one thread.  The level is example 5.1 at mesh n (M = 2n time
steps) in its mirror basis, with box iterates and their products (S + 4 = 9
slabs), split into the groups of one iteration
(``splitting_solver.Group.partition``): at n = 32, the benchmark's box
level, 496 and 465 rows, each one contiguous run of M * rows entries per
slab.  Per group there are two cells:

  slabs  ``correct(w.rows(rows), d.rows(rows), nu)``, what the loop runs:
         its two ufunc calls (d *= nu; d = w - d) on each slab in turn
  whole  the same two calls once each over the group's rows of the whole
         backing arrays, strided by slab and contiguous within one

Both start from the same arrays and give the same bits (checked).  Each
repeat times every cell (``sweep_common.per_call``), alternating which goes
first.  The output holds, per group and cell, the median and quartiles of
the seconds per call, and per group the ratio of the whole cell's median to
the slab cell's.  The slab loop runs each slab's two passes while the slab
is still in cache; the whole-group call makes each pass over all the
group's slabs, which do not fit.
"""

import sweep_common

if __name__ == "__main__":
    sweep_common.pin_blas()

import argparse
import json
from pathlib import Path

import numpy as np

from parasplit import experiments, splitting_solver
from parasplit.splitting_solver import Group, Iterate, PredictionFactors, SolverConfig


def whole_group(w: Iterate, d: Iterate, nu: float, rows: slice) -> None:
    """``correct``'s two calls over the rows of the whole backing arrays."""
    x, o = w.data[:, rows], d.data[:, rows]
    o *= nu
    np.subtract(x, o, out=o)


def slab_by_slab(w: Iterate, d: Iterate, nu: float, rows: slice) -> None:
    splitting_solver.correct(w.rows(rows), d.rows(rows), nu)


CELLS = {"slabs": slab_by_slab, "whole": whole_group}


def prepare_level(n: int) -> dict:
    """The level's groups, a box iterate and a difference with products,
    the correction step and empty sample lists."""
    problem = experiments.get_example("5.1")
    sys_ = experiments.build_level(problem, n).in_mirror_basis()
    config = SolverConfig(alpha=problem.alpha, beta=0.3, gamma=1.5, bounds=(0.0, 0.8))
    groups = [g.rows for g in Group.partition(sys_, PredictionFactors.build(sys_, config))]
    rng = np.random.default_rng(n)
    w, d = (Iterate(rng.standard_normal((9, sys_.ndof, sys_.grid.M)), 5) for _ in range(2))
    nu = splitting_solver.correction_factor(sys_.grid.M, config.gamma, blocks_per_step=3)
    same = {}
    for rows in groups:
        results = []
        for fn in CELLS.values():
            out = Iterate(d.data.copy(), 5)
            fn(w, out, nu, rows)
            results.append(out.data)
        same[rows.start, rows.stop] = bool(np.array_equal(*results))
    times = {(rows.start, rows.stop): {cell: [] for cell in CELLS} for rows in groups}
    return {"n": n, "sys": sys_, "groups": groups, "w": w, "d": d, "nu": nu, "same": same, "times": times}


def time_level(level: dict, repeat: int) -> None:
    """One repeat: every group's two cells, one sample each, the cell that
    goes first alternating with the repeat."""
    w, d, nu = level["w"], level["d"], level["nu"]
    cells = list(CELLS.items())[:: 1 if repeat % 2 == 0 else -1]
    for rows in level["groups"]:
        for cell, fn in cells:
            seconds = sweep_common.per_call(lambda: fn(w, d, nu, rows))
            level["times"][rows.start, rows.stop][cell].append(seconds)


def sweep(n: int, repeats: int) -> dict:
    level = prepare_level(n)
    for repeat in range(repeats):
        time_level(level, repeat)
    sys_ = level["sys"]
    groups = []
    for (lo, hi), times in level["times"].items():
        cells = {cell: sweep_common.quartiles(t) for cell, t in times.items()}
        groups.append({"rows": [lo, hi], "entries_per_slab": (hi - lo) * sys_.grid.M,
                       "same_bits": level["same"][lo, hi],
                       "whole_over_slabs": cells["whole"]["median_s"] / cells["slabs"]["median_s"],
                       **{cell: {**q, "samples_s": times[cell]} for cell, q in cells.items()}})
        print(f"rows {lo}-{hi}: slabs {1e6 * cells['slabs']['median_s']:.1f} us, "
              f"whole {1e6 * cells['whole']['median_s']:.1f} us, ratio {groups[-1]['whole_over_slabs']:.3f}")
    return {
        "what": "splitting_solver.correct on each group of rows of a box iterate with products "
                "(9 slabs) of example 5.1 in its mirror basis: slab by slab, as the loop runs it, "
                "against two whole-group ufunc calls; seconds per call",
        "command": f"python3 tools/group_calls.py --n {n} --repeats {repeats}",
        "environment": sweep_common.environment(),
        "n": n, "ndof": sys_.ndof, "M": sys_.grid.M, "block_sizes": sys_.block_sizes,
        "repeats": repeats,
        "groups": groups,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=32)
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--out", default="BENCH_groups.json")
    args = parser.parse_args()
    result = sweep(args.n, args.repeats)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
