"""Manufactured problems, error norms, convergence studies, and benchmarks."""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

from .discretization import DiscreteSystem, TimeGrid, build_system
from .fem_assembly import FemSpace, l2_error, make_space
from .kkt_oracle import solve_kkt
from .mesh import DIRICHLET, NEUMANN, uniform_unit_square
from .splitting_solver import (
    Iterate,
    SolverConfig,
    h_norm_sq,
    iterate_diff,
    solve,
)


@dataclass(frozen=True)
class ManufacturedProblem:
    """Problem instance with callable data and, optionally, exact solutions.

    All space-time callables take (x1, x2, t) with array-valued coordinates
    and a scalar or array t that broadcasts against them, so that one call
    evaluates many time levels (as ``fem_assembly.load_vector`` and
    ``l2_error`` make it); ``y0`` takes (x1, x2).  The *_dt / *_lap
    companions are the analytic time derivatives and Laplacians used by the
    consistency checks.
    """

    name: str
    T: float
    bc: str
    f: object
    y_d: object
    y0: object
    alpha: float
    beta: float
    y_star: object = None
    u_star: object = None
    y_star_dt: object = None
    y_star_lap: object = None
    u_star_dt: object = None
    u_star_lap: object = None


def pde_residual(problem: ManufacturedProblem, x1, x2, t):
    """Residual of the state equation at the exact solution: y_t - lap(y) - f - u."""
    if problem.y_star is None:
        raise ValueError(f"problem {problem.name!r} has no exact solution")
    return (
        problem.y_star_dt(x1, x2, t)
        - problem.y_star_lap(x1, x2, t)
        - problem.f(x1, x2, t)
        - problem.u_star(x1, x2, t)
    )


def adjoint_residual(problem: ManufacturedProblem, x1, x2, t):
    """Residual of the adjoint equation at p = alpha * u: p_t + lap(p) - (y - y_d)."""
    a = problem.alpha
    return (
        a * problem.u_star_dt(x1, x2, t)
        + a * problem.u_star_lap(x1, x2, t)
        - problem.y_star(x1, x2, t)
        + problem.y_d(x1, x2, t)
    )


def example_5_1(alpha: float = 1e-2, beta: float = 10.0) -> ManufacturedProblem:
    """Dirichlet test problem on [0,2] with sine-product exact solutions.

    The source term carries the spatial factor sin(pi x1) sin(pi x2); this
    is required for the state equation to hold at the stated solutions.
    """
    pi = math.pi

    def S(x1, x2):
        return np.sin(pi * x1) * np.sin(pi * x2)

    return ManufacturedProblem(
        name="5.1",
        T=2.0,
        bc=DIRICHLET,
        alpha=alpha,
        beta=beta,
        f=lambda x1, x2, t: (
            2 * pi**2 * np.cos(pi * t) - pi * np.sin(pi * t) - np.sin(pi * t)
        )
        * S(x1, x2),
        y_d=lambda x1, x2, t: (
            np.cos(pi * t) - alpha * pi * np.cos(pi * t) + 2 * alpha * pi**2 * np.sin(pi * t)
        )
        * S(x1, x2),
        y0=lambda x1, x2: S(x1, x2),
        y_star=lambda x1, x2, t: np.cos(pi * t) * S(x1, x2),
        u_star=lambda x1, x2, t: np.sin(pi * t) * S(x1, x2),
        y_star_dt=lambda x1, x2, t: -pi * np.sin(pi * t) * S(x1, x2),
        y_star_lap=lambda x1, x2, t: -2 * pi**2 * np.cos(pi * t) * S(x1, x2),
        u_star_dt=lambda x1, x2, t: pi * np.cos(pi * t) * S(x1, x2),
        u_star_lap=lambda x1, x2, t: -2 * pi**2 * np.sin(pi * t) * S(x1, x2),
    )


def example_5_2_coefficients(alpha: float) -> dict[str, float]:
    """Closed-form coefficients of the Neumann test problem."""
    pi = math.pi
    a = pi**2 / 3.0
    ea, eia = math.exp(a), math.exp(-a)
    c = {}
    c["c1"] = -5.0 * (5.0 * eia - 6.0) / (-6.0 + 7.0 * ea)
    c["c2"] = 5.0
    c["c3"] = (7.0 + 141.0 * ea + 7.0 * ea**2 - 6.0 - 106.0 * eia) / (4.0 * (6.0 - 7.0 * ea))
    c["c4"] = c["c5"] = c["c6"] = 0.25
    c["c7"] = 5.0 * (9.0 + 35.0 * alpha * pi**4) * (5.0 * eia - 6.0) / (9.0 * (6.0 - 7.0 * ea))
    c["c8"] = 5.0 + (175.0 / 9.0) * alpha * pi**4
    c["c10"] = c["c11"] = c["c12"] = 0.25 + alpha * pi**4
    c["c9"] = 4.0 * c["c3"] * c["c10"]
    return c


class _CosineModes:
    """Sum of coef * exp(rate * t) terms times cos(pi x1) cos(pi x2)."""

    def __init__(self, terms):
        self.terms = list(terms)

    def __call__(self, x1, x2, t):
        amp = sum(coef * np.exp(rate * t) for coef, rate in self.terms)
        return amp * (np.cos(math.pi * x1) * np.cos(math.pi * x2))

    def dt(self) -> "_CosineModes":
        return _CosineModes([(coef * rate, rate) for coef, rate in self.terms])

    def lap(self) -> "_CosineModes":
        return _CosineModes([(-2.0 * math.pi**2 * coef, rate) for coef, rate in self.terms])


def example_5_2(alpha: float = 1e-3, beta: float = 100.0) -> ManufacturedProblem:
    """Neumann test problem on [0,1] built from growing/decaying cosine modes.

    The exact control is (pi^2/3)(c1 w_a - c2 w_b) + 2 pi^2 y*; the factor
    2 pi^2 on the state part is what makes the state and adjoint equations
    hold at the tabulated coefficients (checked by the residual tests).
    """
    pi = math.pi
    a = pi**2 / 3.0
    T = 1.0
    c = example_5_2_coefficients(alpha)
    k_star = c["c3"] + c["c4"] + c["c5"] * math.exp(a * T) + c["c6"] * math.exp(-a * T)
    k_des = c["c9"] + c["c10"] + c["c11"] * math.exp(a * T) + c["c12"] * math.exp(-a * T)

    y_star = _CosineModes([(c["c1"], a), (c["c2"], -a), (k_star, 0.0)])
    u_star = _CosineModes(
        [(a * c["c1"] + 2 * pi**2 * c["c1"], a), (-a * c["c2"] + 2 * pi**2 * c["c2"], -a),
         (2 * pi**2 * k_star, 0.0)]
    )
    y_des = _CosineModes([(c["c7"], a), (c["c8"], -a), (k_des, 0.0)])

    return ManufacturedProblem(
        name="5.2",
        T=T,
        bc=NEUMANN,
        alpha=alpha,
        beta=beta,
        f=lambda x1, x2, t: np.zeros(np.broadcast(x1, x2, t).shape),
        y_d=y_des,
        y0=lambda x1, x2: y_star(x1, x2, 0.0),
        y_star=y_star,
        u_star=u_star,
        y_star_dt=y_star.dt(),
        y_star_lap=y_star.lap(),
        u_star_dt=u_star.dt(),
        u_star_lap=u_star.lap(),
    )


def get_example(name: str, alpha: float | None = None) -> ManufacturedProblem:
    """A built-in example by name, with its default alpha unless one is given."""
    if name == "5.1":
        make = example_5_1
    elif name == "5.2":
        make = example_5_2
    else:
        raise ValueError(f"unknown example {name!r} (expected '5.1' or '5.2')")
    return make() if alpha is None else make(alpha=alpha)


def error_y_final(space: FemSpace, Y_M: np.ndarray, problem: ManufacturedProblem) -> float:
    """L2(Omega) distance between the final state column and y*(., T)."""
    if problem.y_star is None:
        raise ValueError(f"problem {problem.name!r} has no exact state")
    return l2_error(space, Y_M, lambda x1, x2: problem.y_star(x1, x2, problem.T))


def _control_interpolation(mids: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The (M, T) weights of the piecewise-linear interpolation of the M
    control snapshots at the time midpoints ``mids``: column i of U @ W is
    the interpolant at times[i].

    On the half-intervals before the first midpoint and after the last one
    the nearest linear segment is extended (extrapolated), which preserves
    second-order accuracy up to the ends.  With a single snapshot the
    interpolant is constant.
    """
    W = np.zeros((len(mids), len(times)))
    if len(mids) == 1:
        W[0] = 1.0
        return W
    j = np.clip(np.searchsorted(mids, times) - 1, 0, len(mids) - 2)
    w = (times - mids[j]) / (mids[j + 1] - mids[j])
    cols = np.arange(len(times))
    W[j, cols] = 1.0 - w
    W[j + 1, cols] = w
    return W


def error_u_spacetime(
    space: FemSpace, grid: TimeGrid, U: np.ndarray, problem: ManufacturedProblem
) -> float:
    """L2(Q_T) distance between the interpolated control and u*.

    The squared spatial error is integrated in time with a 2-point Gauss
    rule on every subinterval of the midpoint grid (plus the two
    extrapolated end pieces): one batched ``l2_error`` over the 2(M + 1)
    Gauss times.
    """
    if problem.u_star is None:
        raise ValueError(f"problem {problem.name!r} has no exact control")
    mids = grid.midpoints
    breaks = np.concatenate([[0.0], mids, [grid.T]])
    lo, width = breaks[:-1], np.diff(breaks)
    gauss = (np.array([-1.0, 1.0]) / math.sqrt(3.0) + 1.0) / 2.0
    times = (lo[:, None] + gauss * width[:, None]).ravel()
    errs = l2_error(space, U @ _control_interpolation(mids, times), problem.u_star, times)
    return math.sqrt(np.repeat(0.5 * width, 2) @ errs**2)


@dataclass
class ConvergenceRow:
    level: int
    h: float
    tau: float
    dof: int
    err_y_final: float
    err_u_spacetime: float
    order_y: float | None
    order_u: float | None
    solve_s: float  # wall time of the level's oracle or splitting solve


def steps_for_level(problem: ManufacturedProblem, n: int) -> int:
    """Time steps matching tau = 1/n, so space and time refine together."""
    M = round(problem.T * n)
    if abs(M - problem.T * n) > 1e-12 or M < 1:
        raise ValueError(f"T * n = {problem.T * n} is not a positive integer")
    return M


def build_level(problem: ManufacturedProblem, n: int) -> DiscreteSystem:
    space = make_space(uniform_unit_square(n), problem.bc)
    grid = TimeGrid(T=problem.T, M=steps_for_level(problem, n))
    return build_system(problem, space, grid)


def _solver_config(problem: ManufacturedProblem, config: SolverConfig | None) -> SolverConfig:
    if config is not None:
        return config
    return SolverConfig(alpha=problem.alpha, beta=problem.beta)


def _oracle_config(problem: ManufacturedProblem, config: SolverConfig | None, caller: str) -> SolverConfig:
    """``_solver_config`` for a study that measures against the oracle,
    which solves the problem without bounds: a config with bounds is
    rejected."""
    config = _solver_config(problem, config)
    if config.bounds is not None:
        raise ValueError(f"{caller} measures against the oracle, which has no bounds; got bounds {config.bounds}")
    return config


def convergence_study(
    problem: ManufacturedProblem,
    levels: list[int],
    config: SolverConfig | None = None,
    mode: str = "oracle",
) -> list[ConvergenceRow]:
    """Error table over nested refinement levels with observed orders.

    ``mode`` selects the trajectory source: the direct saddle-point solve
    ("oracle") or the splitting iteration ("splitting").  Each row records
    the wall time of its level's solve.  The errors are those of the
    problem without bounds, so a config with bounds is rejected.
    """
    if mode not in ("oracle", "splitting"):
        raise ValueError(f"mode must be 'oracle' or 'splitting', got {mode!r}")
    if not levels:
        raise ValueError("levels must name at least one refinement level")
    if any(a >= b for a, b in zip(levels, levels[1:])):
        raise ValueError(f"levels must be strictly ascending, got {list(levels)}")
    config = _oracle_config(problem, config, "convergence_study")
    rows: list[ConvergenceRow] = []
    for n in levels:
        sys = build_level(problem, n)
        t0 = time.perf_counter()
        if mode == "oracle":
            sol = solve_kkt(sys, config.alpha)
            Y, U = sol.Y_star, sol.U_star
        else:
            w, _ = solve(sys, config)
            Y, U = w.Y, w.U
        solve_s = time.perf_counter() - t0
        rows.append(
            ConvergenceRow(
                level=n,
                h=1.0 / n,
                tau=sys.grid.tau,
                dof=sys.ndof,
                err_y_final=error_y_final(sys.space, Y[:, -1], problem),
                err_u_spacetime=error_u_spacetime(sys.space, sys.grid, U, problem),
                order_y=None,
                order_u=None,
                solve_s=solve_s,
            )
        )
    for prev, cur in zip(rows[:-1], rows[1:]):
        ratio = math.log2(cur.level / prev.level)
        cur.order_y = math.log2(prev.err_y_final / cur.err_y_final) / ratio
        cur.order_u = math.log2(prev.err_u_spacetime / cur.err_u_spacetime) / ratio
    return rows


@dataclass
class IterationRecord:
    k: int
    hnorm_to_star: float
    hnorm_increment_sq: float
    step: float


def iteration_history(
    problem: ManufacturedProblem, config: SolverConfig | None, n: int
) -> list[IterationRecord]:
    """Per-iteration distances to the exact solution, squared increments
    and correction steps.  Rejects a config with bounds."""
    config = _oracle_config(problem, config, "iteration_history")
    sys = build_level(problem, n)
    sol = solve_kkt(sys, config.alpha)
    w_star = Iterate.of(sol.U_star, sol.Y_star, sol.lambda_star)

    distances: list[float] = []

    def monitor(k, w):
        distances.append(math.sqrt(h_norm_sq(sys, iterate_diff(w, w_star), config.beta)))

    _, report = solve(sys, config, monitor=monitor)
    return [
        IterationRecord(k=k, hnorm_to_star=dist, hnorm_increment_sq=float(inc), step=float(step))
        for k, (dist, inc, step) in enumerate(
            zip(distances, report.increment_history, report.step_history), start=1)
    ]


@dataclass
class BenchmarkRow:
    threads: int
    seconds_total: float
    seconds_predict: float
    seconds_correct: float
    psf: float


def benchmark(
    problem: ManufacturedProblem,
    config: SolverConfig | None,
    n: int,
    thread_counts: list[int],
    k: int,
) -> list[BenchmarkRow]:
    """Fixed-iteration timing per thread count, with an iterate-equality check.

    Three rounds each run one timed k-iteration solve per thread
    count, in the given order (1, 2, 4, 1, 2, 4, ... for [1, 2, 4]), so a
    slow stretch of a shared host falls on every thread count alike.  A
    row holds the median of its thread count's rounds for each time.  The
    parallel speedup factor is the 1-thread median wall-clock over each
    thread count's, for the identical computation.  Raises ValueError when
    ``thread_counts`` lacks 1, and RuntimeError if, in any round, a thread
    count produces an iterate other than that round's 1-thread run's.
    """
    if 1 not in thread_counts:
        raise ValueError(f"thread counts must include 1, the speedup's baseline; got {thread_counts}")
    base = replace(_solver_config(problem, config), epsilon=0.0)
    sys = build_level(problem, n)
    reports = {threads: [] for threads in thread_counts}
    for _ in range(3):
        runs = [(threads, *solve(sys, replace(base, k_max=k, thread_count=threads))) for threads in thread_counts]
        serial_w = next(w for threads, w, _ in runs if threads == 1)
        for threads, w, report in runs:
            if not np.array_equal(w.z, serial_w.z):
                raise RuntimeError(f"iterate with {threads} threads differs from the 1-thread run")
            reports[threads].append(report)
    median = {threads: {name: statistics.median(getattr(r, name) for r in rounds)
                        for name in ("seconds_total", "seconds_predict", "seconds_correct")}
              for threads, rounds in reports.items()}
    return [BenchmarkRow(threads=threads, **median[threads],
                         psf=median[1]["seconds_total"] / median[threads]["seconds_total"])
            for threads in thread_counts]
