"""parasplit benchmark: time to tolerance, threaded box iterations and the oracle ladder.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; parasplit is imported from ``src/``.  One run
measures one workload (see ``workloads.py``) for about S seconds, checks its
output, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

with the end-to-end metrics of BENCHMARK.json (``--trace 0``) or its per-layer
metrics (``--trace 1``).  ``attempted``/``failed`` count correctness checks.
The line before it holds the environment and every check by name.

End-to-end metrics, untraced.  On a 2-vCPU cloud VM whose cores other
tenants share, a step runs at one speed while they are idle and up to twice
as slow while they are busy, in stretches of seconds.  So a time is the sum,
over the steps of the workload, of each step's fastest wall time across the
run's repeats.  There, medians and high percentiles of whole solves spread
15-35% from run to run (quartile distance over the median, ten runs); these
sums spread 11-16%, the rest being slower drift of the host's speed:
  setup_s      ``experiments.build_level`` (one call; 8 on the ladder), with
               EXTRA_SETUPS set-up-only builds per repeat as further samples
  solve_s      the solver call, stepped by the ``monitor`` hook's timestamps:
               up to the first iteration (factorisation included), each
               iteration, and after the last; on the ladder its 8 ``solve_kkt``
               calls.  Splitting iterations all do the same work, and a run
               has too few repeats for every iteration to meet a quiet moment
               in one of them, so an iteration's time is the fastest of it and
               its NEIGHBOURS nearest iterations on each side, in any repeat
  total_s      setup_s + solve_s + the error norms
  iterations   splitting iterations per solve; 1 pass on the ladder
  peak_rss_mb  peak resident set of this process after its first repeat
               (later repeats only add allocator history)
Per-iteration percentiles are reported by traced runs as
``splitting_solver.iter_ms_p10``/``_p50``/``_p90``; on such a host the last two
mostly measure the other tenants.

A traced run alternates untraced and traced repeats (the seed sets the
order), records spans around parasplit's public functions (``tracing.py``),
checks that traced and untraced repeats give bit-identical results, writes
the spans to ``bench/out/`` and reports per-layer self times.
"""

import os
import sys

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
if __name__ == "__main__":
    # BLAS reads these when numpy is first imported: ``thread_count`` must be
    # the only source of parallelism.
    os.environ.update({k: "1" for k in THREAD_ENV})

import argparse
import gc
import gzip
import json
import platform
import random
import resource
import statistics
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "parasplit" / "__init__.py").is_file():
    sys.exit(f"parasplit sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np
import scipy

import parasplit
from tracing import FIELDS, Tracer, totals_by_name
from workloads import LADDER_LEVELS, WORKLOADS, same

BENCHMARK = ROOT / "BENCHMARK.json"
OUT_DIR = Path(__file__).resolve().parent / "out"
EXTRA_SETUPS = 3  # set-up-only builds after each repeat, on top of the repeat's own
NEIGHBOURS = 30  # iterations on each side whose times stand in for an iteration's own

# Per-layer metrics: metric -> span names whose self times it sums.
LAYER_SECONDS = {
    "mesh.uniform_unit_square_s": ("mesh.uniform_unit_square",),
    "fem_assembly.assemble_s": ("fem_assembly.assemble_mass", "fem_assembly.assemble_stiffness"),
    "fem_assembly.load_vector_s": ("fem_assembly.load_vector",),
    "fem_assembly.l2_error_s": ("fem_assembly.l2_error",),
    "discretization.build_system_s": ("discretization.build_system",),
    "discretization.constraint_residual_s": ("discretization.constraint_residual",),
    "discretization.constraint_linear_map_s": ("discretization.constraint_linear_map",),
    "sparse_linalg.spd_check_s": ("sparse_linalg.SparseSpd.__init__",),
    "sparse_linalg.factorize_s": ("sparse_linalg.factorize",),
    "sparse_linalg.solve_multi_s": ("sparse_linalg.solve_multi",),
    "sparse_linalg.factor_solve_s": ("sparse_linalg.CholFactor.solve",),
    "splitting_solver.factors_build_s": ("splitting_solver.PredictionFactors.build",),
    "kkt_oracle.solve_kkt_s": ("kkt_oracle.solve_kkt",),
    "kkt_oracle.constraint_blocks_s": ("kkt_oracle.constraint_blocks",),
    "experiments.error_norms_s": ("experiments.error_y_final", "experiments.error_u_spacetime"),
}
LAYER_CALLS = {
    "fem_assembly.load_vector_calls": "fem_assembly.load_vector",
    "fem_assembly.l2_error_calls": "fem_assembly.l2_error",
    "discretization.constraint_residual_calls": "discretization.constraint_residual",
    "discretization.constraint_linear_map_calls": "discretization.constraint_linear_map",
    "sparse_linalg.spd_check_calls": "sparse_linalg.SparseSpd.__init__",
    "sparse_linalg.factorize_calls": "sparse_linalg.factorize",
    "sparse_linalg.solve_multi_calls": "sparse_linalg.solve_multi",
    "sparse_linalg.factor_solve_calls": "sparse_linalg.CholFactor.solve",
}
# Self milliseconds per splitting iteration (one ``predict`` span per iteration).
PER_ITERATION_MS = {
    "splitting_solver.compute_q_ms": ("splitting_solver.compute_q",),
    "splitting_solver.predict_controls_ms": ("splitting_solver.predict_controls",),
    "splitting_solver.predict_states_ms": ("splitting_solver.predict_states",),
    "splitting_solver.predict_multiplier_ms": ("splitting_solver.predict_multiplier",),
    "splitting_solver.predict_ms": ("splitting_solver.predict",),
    "splitting_solver.correct_ms": ("splitting_solver.correct",),
    "splitting_solver.iterate_diff_ms": ("splitting_solver.iterate_diff",),
    "splitting_solver.h_norm_sq_ms": ("splitting_solver.h_norm_sq",),
    "splitting_solver.loop_ms": ("splitting_solver.solve", "splitting_solver.solve_box"),
}
ITERATION_PERCENTILES = (10, 50, 90)
SOLVER_ENTRIES = ("splitting_solver.solve", "splitting_solver.solve_box", "kkt_oracle.solve_kkt")

# Which end-to-end metric each per-layer metric should move, and on which workloads.
LAYER_MAP = {
    "mesh.uniform_unit_square_s": ("setup_s", ["oracle-ladder"]),
    "fem_assembly.assemble_s": ("setup_s", list(WORKLOADS)),
    "fem_assembly.load_vector_s": ("setup_s", ["box-5.1-n32-t2", "oracle-ladder"]),
    "fem_assembly.load_vector_calls": ("setup_s", ["box-5.1-n32-t2", "oracle-ladder"]),
    "fem_assembly.l2_error_s": ("total_s", ["oracle-ladder"]),
    "fem_assembly.l2_error_calls": ("total_s", ["oracle-ladder"]),
    "discretization.build_system_s": ("setup_s", list(WORKLOADS)),
    "discretization.constraint_residual_s": ("solve_s", ["tol-5.1-n16", "box-5.1-n32-t2"]),
    "discretization.constraint_residual_calls": ("solve_s", ["tol-5.1-n16", "box-5.1-n32-t2"]),
    "discretization.constraint_linear_map_s": ("solve_s", ["tol-5.1-n16", "box-5.1-n32-t2"]),
    "discretization.constraint_linear_map_calls": ("solve_s", ["tol-5.1-n16", "box-5.1-n32-t2"]),
    "sparse_linalg.spd_check_s": ("setup_s", list(WORKLOADS)),
    "sparse_linalg.spd_check_calls": ("setup_s", list(WORKLOADS)),
    "sparse_linalg.factorize_s": ("solve_s", ["box-5.1-n32-t2", "tol-5.1-n16"]),
    "sparse_linalg.factorize_calls": ("solve_s", ["box-5.1-n32-t2", "tol-5.1-n16"]),
    "sparse_linalg.solve_multi_s": ("solve_s", ["tol-5.1-n16", "box-5.1-n32-t2"]),
    "sparse_linalg.solve_multi_calls": ("solve_s", ["tol-5.1-n16", "box-5.1-n32-t2"]),
    "sparse_linalg.solve_multi_cols": ("solve_s", ["tol-5.1-n16", "box-5.1-n32-t2"]),
    "sparse_linalg.solve_multi_cpu_ratio": ("solve_s", ["box-5.1-n32-t2"]),
    "sparse_linalg.factor_solve_s": ("solve_s", ["tol-5.1-n16", "box-5.1-n32-t2"]),
    "sparse_linalg.factor_solve_calls": ("solve_s", ["tol-5.1-n16", "box-5.1-n32-t2"]),
    **{m: ("solve_s", ["tol-5.1-n16", "box-5.1-n32-t2"]) for m in PER_ITERATION_MS},
    "splitting_solver.factors_build_s": ("solve_s", ["tol-5.1-n16", "box-5.1-n32-t2"]),
    **{f"splitting_solver.iter_ms_p{q}": ("solve_s", ["tol-5.1-n16", "box-5.1-n32-t2"])
       for q in ITERATION_PERCENTILES},
    "kkt_oracle.solve_kkt_s": ("solve_s", ["oracle-ladder"]),
    **{f"kkt_oracle.solve_kkt_s.n{n}": ("solve_s", ["oracle-ladder"]) for n in LADDER_LEVELS},
    "kkt_oracle.constraint_blocks_s": ("solve_s", ["oracle-ladder"]),
    "experiments.error_norms_s": ("total_s", ["oracle-ladder"]),
    "trace.overhead_ratio": ("total_s", list(WORKLOADS)),
    "trace.uncovered_ratio": ("solve_s", list(WORKLOADS)),
}


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    def blas(mod):
        deps = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps['name']} {deps['version']}"

    affinity = sorted(os.sched_getaffinity(0))
    return {
        "affinity": affinity,
        "nproc": len(affinity),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "commit": git_commit(ROOT),
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def repeat_until(seconds: float, one) -> list:
    """Call ``one`` at least once, and again while another call fits in ``seconds``."""
    out = []
    start = time.perf_counter()
    while not out or (time.perf_counter() - start) * (len(out) + 1) / len(out) <= seconds:
        gc.collect()
        out.append(one())
    return out


def fastest_steps(rows: list[list[float]], neighbours: int = 0) -> float:
    """Sum over steps of each step's fastest time across ``rows`` (one row per
    repeat), taking also the steps up to ``neighbours`` away on either side."""
    if len({len(r) for r in rows}) != 1:  # repeats that differ fail the ``repeatable`` check
        return min(sum(r) for r in rows)
    fastest = np.min(rows, axis=0)
    if neighbours and fastest.size:
        padded = np.pad(fastest, neighbours, mode="edge")
        fastest = np.lib.stride_tricks.sliding_window_view(padded, 2 * neighbours + 1).min(axis=1)
    return float(fastest.sum())


def end_to_end(repeats, setups: list[list[float]]) -> dict[str, float]:
    setup_s = fastest_steps([r.setup for r in repeats] + setups)
    solve_s = (fastest_steps([r.solve for r in repeats])
               + fastest_steps([r.iteration_s for r in repeats], NEIGHBOURS))
    return {
        "setup_s": setup_s,
        "solve_s": solve_s,
        "total_s": setup_s + solve_s + fastest_steps([r.norms for r in repeats]),
        "iterations": statistics.median(r.steps for r in repeats),
    }


def iteration_ms(repeats) -> list[float]:
    return [1e3 * s for r in repeats for s in r.iteration_s]


def per_layer(spans, traced, untraced) -> dict[str, float]:
    per_run = []
    for run in sorted({i for i, _ in traced}):
        tot = totals_by_name(spans, run=run)
        get = lambda names, f: sum(f(tot[n]) for n in names if n in tot)
        iters = get(("splitting_solver.predict",), lambda t: t.calls)
        m = {k: get(names, lambda t: t.seconds) for k, names in LAYER_SECONDS.items()}
        m.update({k: get((name,), lambda t: t.calls) for k, name in LAYER_CALLS.items()})
        m.update({k: 1e3 * get(names, lambda t: t.seconds) / iters if iters else 0.0
                  for k, names in PER_ITERATION_MS.items()})
        multi = tot.get("sparse_linalg.solve_multi")
        m["sparse_linalg.solve_multi_cols"] = multi.size if multi else 0
        m["sparse_linalg.solve_multi_cpu_ratio"] = multi.cpu / multi.wall if multi else 0.0
        for n in LADDER_LEVELS:
            level = totals_by_name(spans, run=run, label_suffix=f"-n{n}").get("kkt_oracle.solve_kkt")
            m[f"kkt_oracle.solve_kkt_s.n{n}"] = level.seconds if level else 0.0
        for q in ITERATION_PERCENTILES:
            m[f"splitting_solver.iter_ms_p{q}"] = (
                float(np.percentile(iteration_ms(untraced), q)) if iters else 0.0)
        inclusive = get(SOLVER_ENTRIES, lambda t: t.wall)
        m["trace.uncovered_ratio"] = get(SOLVER_ENTRIES, lambda t: t.seconds) / inclusive
        per_run.append(m)
    out = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
    out["trace.overhead_ratio"] = (
        statistics.median(r.total_s for _, r in traced)
        / statistics.median(r.total_s for r in untraced) - 1.0
    )
    return out


def measure(name: str, workload, seed: int, seconds: float, trace: bool, out_dir: Path):
    """Run one workload; return (metrics, checks by name)."""
    workload.warm_up()
    if not trace:
        peak_rss_mb, setups = [], []

        def one():
            repeat = workload.run()
            if not peak_rss_mb:
                peak_rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            for _ in range(EXTRA_SETUPS):
                gc.collect()
                setups.append(workload.setup())
            return repeat

        repeats = repeat_until(seconds, one)
        metrics = end_to_end(repeats, setups)
        metrics["peak_rss_mb"] = peak_rss_mb[0]
        return metrics, workload.check(repeats)

    rng = random.Random(seed)
    tracer = Tracer()
    untraced, traced = [], []

    def pair():
        for traced_turn in rng.sample([False, True], 2):
            if traced_turn:
                tracer.run += 1
                with tracer.installed():
                    traced.append((tracer.run, workload.run(tracer)))
            else:
                untraced.append(workload.run())

    repeat_until(seconds, pair)
    checks = workload.check(untraced)
    reference = untraced[0].result
    checks["trace_identical"] = all(same(r.result, reference) for _, r in traced)
    metrics = per_layer(tracer.spans, traced, untraced)
    write_spans(out_dir, name, seed, tracer)
    return metrics, checks


def write_spans(out_dir: Path, name: str, seed: int, tracer: Tracer) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with gzip.open(out_dir / f"spans-{name}-seed{seed}.json.gz", "wt") as fh:
        json.dump({"workload": name, "seed": seed, "environment": environment(),
                   "fields": FIELDS, "spans": tracer.spans}, fh)


def main(argv=None, workloads=WORKLOADS, out_dir: Path = OUT_DIR) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if Path(parasplit.__file__).resolve().parent != SRC / "parasplit":
        sys.exit(f"imported parasplit from {parasplit.__file__}, not from {SRC}")

    units = declared_metrics(bool(args.trace))
    workload = workloads[args.workload]()
    values, checks = measure(args.workload, workload, args.seed, args.seconds, bool(args.trace), out_dir)
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    failed = [k for k, ok in checks.items() if not ok]
    print(json.dumps({"environment": environment(), "checks": {k: bool(v) for k, v in checks.items()}}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
