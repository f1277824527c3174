"""Time the KKT oracle on the whole stiffness-mass pencil and split by the mesh's mirrors.

    python3 tools/oracle_sweep.py [--repeats 5] [--out BENCH_oracle.json]

Run from the repository root; parasplit is imported from ``src/``.  BLAS is
pinned to one thread before numpy loads, as in the solver's benchmark.  For
examples 5.1 and 5.2 at mesh n in {8, 16, 24, 32, 48, 64}, the tool builds
the level and times:

  full_eigh        one dense generalised eigh of (stiffness, mass)
  blocked_eigh     ``DiscreteSystem.in_mirror_basis`` and
                   ``kkt_oracle.block_eigh``, one eigh per block: what the
                   oracle does before its sweep on a system whose basis is
                   not yet formed
  solve_kkt        ``kkt_oracle.solve_kkt`` as the package runs it, on a
                   system that has formed its ``mirror_basis`` (once per
                   level, before the timing)
  solve_kkt_full   ``solve_kkt`` with its modal solve replaced, inside this
                   tool, by ``full_eigh`` and the same modal sweep

A sample is the mean of a batch of calls sized to take ~20 ms (one call
when a call takes longer); every repeat times every cell once, so slow
stretches of a shared host fall on all cells alike.  The output holds the
median and quartiles of the repeats, the block sizes and, per level, the
blocked path's overhead (``solve_kkt`` - ``solve_kkt_full``, negative when
it is faster).  A child process per path and example measures the peak RSS
of one ``solve_kkt`` at n = 64, with the peak before the solve for
reference: the kernel's high-water mark VmHWM (Linux only), since
``ru_maxrss`` would carry this process's peak over into the child.  Last,
``experiments.convergence_study`` runs the oracle at n = 4..64 per example
and records the errors, the observed orders, each level's solve time and
the first level from which both orders stay in [1.8, 2.2].
"""

import sweep_common

if __name__ == "__main__":
    sweep_common.pin_blas()

import argparse
import json
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, replace
from pathlib import Path

import scipy.linalg

from parasplit import experiments, kkt_oracle

EXAMPLES = ("5.1", "5.2")
MESHES = (8, 16, 24, 32, 48, 64)
ORDER_LEVELS = (4, 8, 16, 24, 32, 48, 64)
RSS_MESH = 64
ORDER_BAND = (1.8, 2.2)


def full_eigh(sys_):
    return scipy.linalg.eigh(sys_.stiffness.toarray(), sys_.mass.toarray())


def blocked_eigh(sys_):
    # a copy has not formed its mirror basis (dataclasses.replace does not carry the cache)
    return kkt_oracle.block_eigh(replace(sys_).in_mirror_basis())


def full_pencil_modal(sys_):
    mu, V = full_eigh(sys_)
    return kkt_oracle.modal_sweep(sys_, mu, lambda X: V.T @ X, lambda x: V @ x)


@contextmanager
def full_pencil():
    """``solve_kkt`` on the whole pencil while the context is open."""
    blocked = kkt_oracle._solve_modal
    kkt_oracle._solve_modal = full_pencil_modal
    try:
        yield
    finally:
        kkt_oracle._solve_modal = blocked


def solve_kkt_full(sys_):
    with full_pencil():
        return kkt_oracle.solve_kkt(sys_, sys_.alpha)


CELLS = {
    "full_eigh": full_eigh,
    "blocked_eigh": blocked_eigh,
    "solve_kkt": lambda s: kkt_oracle.solve_kkt(s, s.alpha),
    "solve_kkt_full": solve_kkt_full,
}


def high_water_mb() -> float:
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024.0


def peak_rss_child(example: str, n: int, path: str) -> None:
    """Build the level, run one solve_kkt on ``path`` and print the peaks (MB)."""
    sys_ = experiments.build_level(experiments.get_example(example), n)
    before = high_water_mb()
    t0 = time.perf_counter()
    CELLS["solve_kkt" if path == "blocked" else "solve_kkt_full"](sys_)
    seconds = time.perf_counter() - t0
    print(json.dumps({"before_solve_mb": before, "peak_mb": high_water_mb(), "solve_s": seconds}))


def peak_rss(example: str, n: int, path: str) -> dict:
    out = subprocess.run(
        [sys.executable, __file__, "--rss-child", example, str(n), path],
        check=True, capture_output=True, text=True,
    )
    return {"example": example, "n": n, "path": path, **json.loads(out.stdout)}


def in_band_from(rows) -> int | None:
    """The first level from which every observed order lies in ORDER_BAND."""
    lo, hi = ORDER_BAND
    first = None
    for r in rows[1:]:
        if lo <= r.order_y <= hi and lo <= r.order_u <= hi:
            first = r.level if first is None else first
        else:
            first = None
    return first


def sweep(repeats: int) -> dict:
    levels = {}
    for example in EXAMPLES:
        for n in MESHES:
            sys_ = experiments.build_level(experiments.get_example(example), n)
            levels[example, n] = (sys_, {cell: [] for cell in CELLS})
    for _ in range(repeats):
        for sys_, times in levels.values():
            for cell, fn in CELLS.items():
                times[cell].append(sweep_common.per_call(lambda: fn(sys_)))

    quartiles = sweep_common.quartiles
    summary = []
    for (example, n), (sys_, times) in levels.items():
        q = {cell: quartiles(t) for cell, t in times.items()}
        summary.append({
            "example": example, "n": n, "ndof": sys_.ndof, "M": sys_.grid.M,
            "block_sizes": sys_.mirror_basis.sizes,
            **q,
            "eigh_speedup": q["full_eigh"]["median_s"] / q["blocked_eigh"]["median_s"],
            "solve_kkt_speedup": q["solve_kkt_full"]["median_s"] / q["solve_kkt"]["median_s"],
            "blocked_overhead_s": q["solve_kkt"]["median_s"] - q["solve_kkt_full"]["median_s"],
            "samples_s": times,
        })
    rss = [peak_rss(example, RSS_MESH, path) for example in EXAMPLES for path in ("full", "blocked")]
    orders = {}
    for example in EXAMPLES:
        rows = experiments.convergence_study(experiments.get_example(example), ORDER_LEVELS)
        orders[example] = {"rows": [asdict(r) for r in rows], "in_band_from": in_band_from(rows)}
    return {
        "what": "the KKT oracle's eigensolve and whole solve on the full stiffness-mass "
                "pencil against the pencil split by the mesh's mirror symmetries, the peak "
                "RSS of one solve at n=64 on each path, and the oracle's errors and "
                "observed orders at n=4..64",
        "command": "python3 tools/oracle_sweep.py --repeats " + str(repeats),
        "environment": sweep_common.environment(),
        "repeats": repeats,
        "order_band": ORDER_BAND,
        "levels": summary,
        "peak_rss": rss,
        "orders": orders,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", type=Path, default=sweep_common.ROOT / "BENCH_oracle.json")
    parser.add_argument("--rss-child", nargs=3, metavar=("EXAMPLE", "N", "PATH"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.rss_child:
        example, n, path = args.rss_child
        peak_rss_child(example, int(n), path)
        return 0
    if args.repeats < 5:
        parser.error("--repeats must be at least 5")
    result = sweep(args.repeats)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    for s in result["levels"]:
        print(f"{s['example']} n={s['n']:2d} ndof={s['ndof']:4d} blocks={s['block_sizes']} "
              f"eigh full={s['full_eigh']['median_s']:.4f}s blocked={s['blocked_eigh']['median_s']:.4f}s "
              f"solve_kkt full={s['solve_kkt_full']['median_s']:.4f}s blocked={s['solve_kkt']['median_s']:.4f}s "
              f"x{s['solve_kkt_speedup']:.2f} overhead={1e3 * s['blocked_overhead_s']:+.2f}ms")
    for r in result["peak_rss"]:
        print(f"{r['example']} n={r['n']} {r['path']:7s} peak_rss={r['peak_mb']:.0f}MB "
              f"(before solve {r['before_solve_mb']:.0f}MB) solve={r['solve_s']:.2f}s")
    for example, o in result["orders"].items():
        for r in o["rows"]:
            orders = "" if r["order_y"] is None else f" order_y={r['order_y']:.3f} order_u={r['order_u']:.3f}"
            print(f"{example} n={r['level']:2d} err_y={r['err_y_final']:.3e} "
                  f"err_u={r['err_u_spacetime']:.3e}{orders} solve_s={r['solve_s']:.3f}")
        print(f"{example}: both orders in {list(ORDER_BAND)} from n={o['in_band_from']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
