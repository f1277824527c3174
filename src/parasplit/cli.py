"""Command-line driver for convergence studies, iteration traces, and timing."""

from __future__ import annotations

import argparse
import csv
import sys as _sys
from dataclasses import astuple, fields, replace

from .experiments import (
    BenchmarkRow,
    ConvergenceRow,
    IterationRecord,
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


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_records(path: str, record_type, records) -> None:
    """One column per field of the dataclass ``record_type``, in field order."""
    _write_csv(path, [f.name for f in fields(record_type)], map(astuple, records))


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _config_from(args, problem) -> SolverConfig:
    # alpha comes from the problem alone, so the solver, the oracle and the
    # manufactured solution all use the one the example was built with.
    return SolverConfig(
        alpha=problem.alpha,
        beta=args.beta if args.beta is not None else problem.beta,
        gamma=args.gamma,
        epsilon=args.eps,
        k_max=args.kmax,
        step=args.step,
    )


def cmd_converge(args, problem, config) -> None:
    rows = convergence_study(problem, _int_list(args.levels), config=config, mode=args.mode)
    _write_records(args.out, ConvergenceRow, rows)
    for r in rows:
        print(
            f"n={r.level} dof={r.dof} err_y={_fmt(r.err_y_final)} err_u={_fmt(r.err_u_spacetime)}"
            + (f" order_y={_fmt(r.order_y)} order_u={_fmt(r.order_u)}" if r.order_y is not None else "")
            + f" solve_s={r.solve_s:.4g}"
        )


def cmd_iterate(args, problem, config) -> None:
    records = iteration_history(problem, config, args.n)
    _write_records(args.out, IterationRecord, records)
    print(f"wrote {len(records)} iteration records to {args.out}")


def cmd_bench(args, problem, config) -> None:
    rows = benchmark(problem, config, args.n, _int_list(args.threads), k=args.k)
    _write_records(args.out, BenchmarkRow, rows)
    for r in rows:
        print(f"threads={r.threads} total={_fmt(r.seconds_total)}s psf={_fmt(r.psf)}")


def cmd_box(args, problem, config) -> None:
    system = build_level(problem, args.n)
    w, report = solve(system, replace(config, bounds=(args.lower, args.upper)))
    _write_csv(
        args.out,
        ["k", "hnorm_increment_sq", "y_minus_p_norm", "step"],
        [
            [i + 1, float(inc), float(gap), float(step)]
            for i, (inc, gap, step) in enumerate(
                zip(report.increment_history, report.gap_history, report.step_history))
        ],
    )
    y_max = float(w.P.max())
    y_min = float(w.P.min())
    print(
        f"iterations={report.iterations} converged={report.converged} "
        f"stop_reason={report.stop_reason} "
        f"P_range=[{_fmt(y_min)}, {_fmt(y_max)}] "
        f"final_gap={_fmt(float(report.gap_history[-1]))} "
        f"seconds_predict={_fmt(report.seconds_predict)} seconds_correct={_fmt(report.seconds_correct)} "
        f"factor_nnz={','.join(f'{k}:{v}' for k, v in report.factor_nnz.items())}"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parasplit",
        description="Parabolic optimal control via Crank-Nicolson finite elements "
        "and a corrected parallel splitting method.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--example", required=True, choices=["5.1", "5.2"])
    common.add_argument("--alpha", type=float, default=None, help="regularization weight")
    common.add_argument("--beta", type=float, default=None, help="penalty parameter")
    common.add_argument(
        "--gamma", type=float, default=SolverConfig.gamma, help="correction relaxation in (0,2)"
    )
    common.add_argument(
        "--eps", type=float, default=SolverConfig.epsilon, help="squared-increment stop tolerance"
    )
    common.add_argument("--kmax", type=int, default=SolverConfig.k_max, help="iteration cap")
    common.add_argument(
        "--step", default=SolverConfig.step, choices=["dynamic", "constant"],
        help="correction step: the per-iteration dynamic one, or the paper's constant one",
    )
    common.add_argument("--out", required=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("converge", parents=[common], help="convergence study over refinement levels")
    p.add_argument("--levels", required=True, help="comma-separated subdivision counts")
    p.add_argument("--mode", default="oracle", choices=["oracle", "splitting"])
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("iterate", parents=[common], help="per-iteration error trace")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_iterate)

    p = sub.add_parser(
        "bench", parents=[common], help="serial-vs-threaded timing at a fixed iteration count"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--threads", default="1,2,4,8", help="comma-separated thread counts, 1 included")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("box", parents=[common], help="box-constrained state run")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lower", type=float, required=True)
    p.add_argument("--upper", type=float, required=True)
    p.set_defaults(func=cmd_box)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        problem = get_example(args.example, alpha=args.alpha)
        args.func(args, problem, _config_from(args, problem))
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
