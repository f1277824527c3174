"""Manufactured problems, error norms, convergence studies, and benchmarks."""

from __future__ import annotations

import math
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
    and scalar t; ``y0`` takes (x1, x2).  The *_dt / *_lap companions are the
    analytic time derivatives and Laplacians used by the consistency checks.
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
            2 * pi**2 * math.cos(pi * t) - pi * math.sin(pi * t) - math.sin(pi * t)
        )
        * S(x1, x2),
        y_d=lambda x1, x2, t: (
            math.cos(pi * t) - alpha * pi * math.cos(pi * t) + 2 * alpha * pi**2 * math.sin(pi * t)
        )
        * S(x1, x2),
        y0=lambda x1, x2: S(x1, x2),
        y_star=lambda x1, x2, t: math.cos(pi * t) * S(x1, x2),
        u_star=lambda x1, x2, t: math.sin(pi * t) * S(x1, x2),
        y_star_dt=lambda x1, x2, t: -pi * math.sin(pi * t) * S(x1, x2),
        y_star_lap=lambda x1, x2, t: -2 * pi**2 * math.cos(pi * t) * S(x1, x2),
        u_star_dt=lambda x1, x2, t: pi * math.cos(pi * t) * S(x1, x2),
        u_star_lap=lambda x1, x2, t: -2 * pi**2 * math.sin(pi * t) * S(x1, x2),
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
        amp = sum(coef * math.exp(rate * t) for coef, rate in self.terms)
        return amp * np.cos(math.pi * x1) * np.cos(math.pi * x2)

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
        f=lambda x1, x2, t: np.zeros_like(np.asarray(x1, dtype=float)),
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
    if name in ("5.1", "5_1"):
        make = example_5_1
    elif name in ("5.2", "5_2"):
        make = example_5_2
    else:
        raise ValueError(f"unknown example {name!r} (expected '5.1' or '5.2')")
    return make() if alpha is None else make(alpha=alpha)


def error_y_final(space: FemSpace, Y_M: np.ndarray, problem: ManufacturedProblem) -> float:
    """L2(Omega) distance between the final state column and y*(., T)."""
    if problem.y_star is None:
        raise ValueError(f"problem {problem.name!r} has no exact state")
    return l2_error(space, Y_M, lambda x1, x2: problem.y_star(x1, x2, problem.T))


def _control_interpolant(mids: np.ndarray, U: np.ndarray, t: float) -> np.ndarray:
    """Piecewise-linear interpolation of the control snapshots at the time
    midpoints ``mids``.

    On the half-intervals before the first midpoint and after the last one
    the nearest linear segment is extended (extrapolated), which preserves
    second-order accuracy up to the ends.  With a single snapshot the
    interpolant is constant.
    """
    if len(mids) == 1:
        return U[:, 0]
    j = int(np.clip(np.searchsorted(mids, t) - 1, 0, len(mids) - 2))
    w = (t - mids[j]) / (mids[j + 1] - mids[j])
    return (1.0 - w) * U[:, j] + w * U[:, j + 1]


def error_u_spacetime(
    space: FemSpace, grid: TimeGrid, U: np.ndarray, problem: ManufacturedProblem
) -> float:
    """L2(Q_T) distance between the interpolated control and u*.

    The squared spatial error is integrated in time with a 2-point Gauss
    rule on every subinterval of the midpoint grid (plus the two
    extrapolated end pieces).
    """
    if problem.u_star is None:
        raise ValueError(f"problem {problem.name!r} has no exact control")
    mids = grid.midpoints
    breaks = np.concatenate([[0.0], mids, [grid.T]])
    gauss = (np.array([-1.0, 1.0]) / math.sqrt(3.0) + 1.0) / 2.0
    total = 0.0
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        width = hi - lo
        if width <= 0.0:
            continue
        for gp in gauss:
            t = lo + gp * width
            coeffs = _control_interpolant(mids, U, t)
            err = l2_error(space, coeffs, lambda x1, x2: problem.u_star(x1, x2, t))
            total += 0.5 * width * err**2
    return math.sqrt(total)


@dataclass
class ConvergenceRow:
    level: int
    h: float
    tau: float
    dof: int
    err_y_final: float
    err_u_spacetime: float
    order_y: float | None = None
    order_u: float | None = None


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


def convergence_study(
    problem: ManufacturedProblem,
    levels: list[int],
    config: SolverConfig | None = None,
    mode: str = "oracle",
) -> list[ConvergenceRow]:
    """Error table over nested refinement levels with observed orders.

    ``mode`` selects the trajectory source: the direct saddle-point solve
    ("oracle") or the splitting iteration ("splitting").
    """
    if mode not in ("oracle", "splitting"):
        raise ValueError(f"mode must be 'oracle' or 'splitting', got {mode!r}")
    if any(a >= b for a, b in zip(levels, levels[1:])):
        raise ValueError(f"levels must be strictly ascending, got {list(levels)}")
    config = _solver_config(problem, config)
    rows: list[ConvergenceRow] = []
    for n in levels:
        sys = build_level(problem, n)
        if mode == "oracle":
            sol = solve_kkt(sys, config.alpha)
            Y, U = sol.Y_star, sol.U_star
        else:
            w, _ = solve(sys, config)
            Y, U = w.Y, w.U
        rows.append(
            ConvergenceRow(
                level=n,
                h=1.0 / n,
                tau=sys.grid.tau,
                dof=sys.ndof,
                err_y_final=error_y_final(sys.space, Y[:, -1], problem),
                err_u_spacetime=error_u_spacetime(sys.space, sys.grid, U, problem),
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


def iteration_history(
    problem: ManufacturedProblem, config: SolverConfig | None, n: int
) -> list[IterationRecord]:
    """Per-iteration distances to the exact solution and squared increments."""
    config = _solver_config(problem, config)
    sys = build_level(problem, n)
    sol = solve_kkt(sys, config.alpha)
    w_star = Iterate.of(sol.U_star, sol.Y_star, sol.lambda_star)

    distances: list[float] = []

    def monitor(k, w):
        distances.append(math.sqrt(h_norm_sq(sys, iterate_diff(w, w_star), config.beta)))

    _, report = solve(sys, config, monitor=monitor)
    return [
        IterationRecord(k=k, hnorm_to_star=dist, hnorm_increment_sq=float(inc))
        for k, (dist, inc) in enumerate(zip(distances, report.increment_history), start=1)
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
    k: int = 100,
) -> list[BenchmarkRow]:
    """Fixed-iteration timing per thread count, with an iterate-equality check.

    The parallel speedup factor is serial wall-clock over parallel
    wall-clock for the identical computation.  Raises if any thread count
    produces a different iterate.
    """
    base = _solver_config(problem, config)
    sys = build_level(problem, n)
    rows: list[BenchmarkRow] = []
    reference: Iterate | None = None
    serial_seconds = None
    for threads in thread_counts:
        w, report = solve(sys, replace(base, epsilon=0.0, k_max=k, thread_count=threads))
        if reference is None:
            reference = w
            serial_seconds = report.seconds_total
        elif not np.array_equal(w.z, reference.z):
            raise RuntimeError(f"iterate with {threads} threads differs from the reference run")
        rows.append(
            BenchmarkRow(
                threads=threads,
                seconds_total=report.seconds_total,
                seconds_predict=report.seconds_predict,
                seconds_correct=report.seconds_correct,
                psf=serial_seconds / report.seconds_total,
            )
        )
    return rows
