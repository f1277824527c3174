"""Command-line driver for convergence studies, iteration traces, and timing."""

from __future__ import annotations

import argparse
import csv
import sys as _sys

import numpy as np

from .experiments import (
    benchmark,
    build_level,
    convergence_study,
    get_example,
    iteration_history,
)
from .splitting_solver import SolverConfig, solve


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        text = f"{value:.16g}"
        if float(text) != value:  # keep the round-trip exact
            text = f"{value:.17g}"
        return text
    return str(value)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _add_solver_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=None, help="regularization weight")
    parser.add_argument("--beta", type=float, default=None, help="penalty parameter")
    parser.add_argument("--gamma", type=float, default=1.0, help="correction relaxation in (0,2)")
    parser.add_argument("--eps", type=float, default=1e-12, help="squared-increment stop tolerance")
    parser.add_argument("--kmax", type=int, default=20000, help="iteration cap")


def _config_from(args, problem, **overrides) -> SolverConfig:
    # alpha comes from the problem alone, so the solver, the oracle and the
    # manufactured solution all use the one the example was built with.
    return SolverConfig(
        alpha=problem.alpha,
        beta=args.beta if args.beta is not None else problem.beta,
        gamma=args.gamma,
        epsilon=args.eps,
        k_max=args.kmax,
        **overrides,
    )


def cmd_converge(args) -> None:
    problem = get_example(args.example, alpha=args.alpha)
    config = _config_from(args, problem)
    rows = convergence_study(problem, _int_list(args.levels), config=config, mode=args.mode)
    _write_csv(
        args.out,
        ["level", "h", "tau", "dof", "err_y_final", "err_u_spacetime", "order_y", "order_u"],
        [
            [r.level, r.h, r.tau, r.dof, r.err_y_final, r.err_u_spacetime, r.order_y, r.order_u]
            for r in rows
        ],
    )
    for r in rows:
        print(
            f"n={r.level} dof={r.dof} err_y={_fmt(r.err_y_final)} err_u={_fmt(r.err_u_spacetime)}"
            + (f" order_y={_fmt(r.order_y)} order_u={_fmt(r.order_u)}" if r.order_y is not None else "")
        )


def cmd_iterate(args) -> None:
    problem = get_example(args.example, alpha=args.alpha)
    config = _config_from(args, problem)
    records = iteration_history(problem, config, args.n)
    _write_csv(
        args.out,
        ["k", "hnorm_to_star", "hnorm_increment_sq"],
        [[r.k, r.hnorm_to_star, r.hnorm_increment_sq] for r in records],
    )
    print(f"wrote {len(records)} iteration records to {args.out}")


def cmd_bench(args) -> None:
    problem = get_example(args.example, alpha=args.alpha)
    config = _config_from(args, problem)
    rows = benchmark(problem, config, args.n, _int_list(args.threads), k=args.k)
    _write_csv(
        args.out,
        ["threads", "seconds_total", "seconds_predict", "seconds_correct", "psf"],
        [[r.threads, r.seconds_total, r.seconds_predict, r.seconds_correct, r.psf] for r in rows],
    )
    for r in rows:
        print(f"threads={r.threads} total={_fmt(r.seconds_total)}s psf={_fmt(r.psf)}")


def cmd_box(args) -> None:
    problem = get_example(args.example, alpha=args.alpha)
    config = _config_from(args, problem, bounds=(args.lower, args.upper))
    system = build_level(problem, args.n)
    w, report = solve(system, config)
    _write_csv(
        args.out,
        ["k", "hnorm_increment_sq", "y_minus_p_norm"],
        [
            [i + 1, float(inc), float(gap)]
            for i, (inc, gap) in enumerate(zip(report.increment_history, report.gap_history))
        ],
    )
    y_max = float(w.P.max())
    y_min = float(w.P.min())
    print(
        f"iterations={report.iterations} converged={report.converged} "
        f"stop_reason={report.stop_reason} "
        f"P_range=[{_fmt(y_min)}, {_fmt(y_max)}] "
        f"final_gap={_fmt(float(np.linalg.norm(w.Y - w.P)))} "
        f"factor_nnz={','.join(f'{k}:{v}' for k, v in report.factor_nnz.items())}"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parasplit",
        description="Parabolic optimal control via Crank-Nicolson finite elements "
        "and a corrected parallel splitting method.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("converge", help="convergence study over refinement levels")
    p.add_argument("--example", required=True, choices=["5.1", "5.2"])
    p.add_argument("--levels", required=True, help="comma-separated subdivision counts")
    p.add_argument("--mode", default="oracle", choices=["oracle", "splitting"])
    _add_solver_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("iterate", help="per-iteration error trace")
    p.add_argument("--example", required=True, choices=["5.1", "5.2"])
    p.add_argument("--n", type=int, required=True)
    _add_solver_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_iterate)

    p = sub.add_parser("bench", help="serial-vs-threaded timing at a fixed iteration count")
    p.add_argument("--example", required=True, choices=["5.1", "5.2"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--threads", default="1,2,4,8", help="comma-separated thread counts")
    _add_solver_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("box", help="box-constrained state run")
    p.add_argument("--example", required=True, choices=["5.1", "5.2"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lower", type=float, required=True)
    p.add_argument("--upper", type=float, required=True)
    _add_solver_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_box)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
