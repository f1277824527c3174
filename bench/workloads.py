"""The benchmark's workloads: what one repeat runs, and how its output is checked.

All inputs are the paper's manufactured examples at fixed parameters, so
every repeat computes the same thing.  Every call into parasplit goes through a module attribute
(``experiments.build_level``, ``splitting_solver.solve``, ...) so that the
tracer's wrappers see it.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from parasplit import experiments, kkt_oracle, splitting_solver
from parasplit.splitting_solver import SolverConfig

# Observed orders (y, u) at n = 8 and n = 16 recorded by acceptance criterion 1.
RECORDED_ORDERS = {
    ("5.1", 8): (1.995, 1.777),
    ("5.1", 16): (2.000, 1.938),
    ("5.2", 8): (1.236, 1.719),
    ("5.2", 16): (1.464, 1.636),
}
# The recorded orders are printed to three decimals.
ORDER_TOL = 5e-4
# Oracle optimality residuals must be at round-off level.
RESIDUAL_TOL = 1e-10
# At n = 16, stopping at epsilon = 1e-12 on the squared increment leaves the
# iterate within 3e-4 (Y) and 8e-4 (U) of the saddle point (relative,
# Frobenius).  The distance grows on coarser levels (U: 5e-3 at n = 8).
KKT_RTOL = 5e-3
WARM_N = 4  # level of the untimed warm-up solve
LADDER_LEVELS = (4, 8, 16, 24)


@dataclass
class Repeat:
    """One timed execution of a workload, timed step by step.

    Each list holds the wall times of one phase's steps, in an order that is
    the same in every repeat, so a step can be compared across repeats.
    """

    setup: list[float]  # per ``build_level`` call
    # Solver time outside iterations: before the first and after the last
    # iteration; on the ladder, per ``solve_kkt`` call.
    solve: list[float]
    iteration_s: list[float]  # per splitting iteration (none on the ladder)
    norms: list[float]  # per pair of error-norm calls
    steps: int  # iterations per solve; on the ladder, 1 pass
    result: object  # compared bit for bit across repeats and with the traced run

    @property
    def total_s(self) -> float:
        return sum(self.setup) + sum(self.solve) + sum(self.iteration_s) + sum(self.norms)


def same(a, b) -> bool:
    """Exact equality of nested tuples/dicts of arrays and scalars."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _iterate_arrays(w) -> tuple:
    return tuple(x for x in (w.U, w.Y, w.lam, w.P, w.mu) if x is not None)


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def kkt_reference(sys, alpha):
    sol = kkt_oracle.solve_kkt(sys, alpha)
    return sol.Y_star, sol.U_star


class Iteration:
    """What the two splitting-iteration workloads share."""

    box = False

    def __init__(self, problem, n: int, config: SolverConfig):
        self.problem = problem
        self.n = n
        self.config = config

    def setup(self) -> list[float]:
        t0 = time.perf_counter()
        experiments.build_level(self.problem, self.n)
        return [time.perf_counter() - t0]

    def _solve(self, sys, config, monitor=None):
        entry = splitting_solver.solve_box if self.box else splitting_solver.solve
        return entry(sys, config, monitor=monitor)

    def warm_up(self) -> None:
        sys = experiments.build_level(self.problem, WARM_N)
        self._solve(sys, replace(self.config, k_max=5))

    def run(self, tracer=None) -> Repeat:
        stamps: list[float] = []
        with tracer.root("bench.repeat", f"{self.problem.name}-n{self.n}") if tracer else nullcontext():
            t0 = time.perf_counter()
            sys = experiments.build_level(self.problem, self.n)
            t1 = time.perf_counter()
            w, report = self._solve(sys, self.config, monitor=lambda k, w: stamps.append(time.perf_counter()))
            t2 = time.perf_counter()
            experiments.error_y_final(sys.space, w.Y[:, -1], self.problem)
            experiments.error_u_spacetime(sys.space, sys.grid, w.U, self.problem)
            t3 = time.perf_counter()
        self.last = (sys, w, report)
        return Repeat(
            setup=[t1 - t0],
            solve=[stamps[0] - t1, t2 - stamps[-1]],
            iteration_s=np.diff(stamps).tolist(),
            norms=[t3 - t2],
            steps=report.iterations,
            result=(report.iterations,) + _iterate_arrays(w),
        )

    def check(self, repeats: list[Repeat]) -> dict[str, bool]:
        first = repeats[0].result
        arrays = first[1:]
        return {
            "finite": all(np.isfinite(a).all() for a in arrays),
            "repeatable": all(same(r.result, first) for r in repeats[1:]),
            **self.reference_checks(),
        }


class TimeToTolerance(Iteration):
    def __init__(self, n=16, reference=kkt_reference, rtol=KKT_RTOL):
        problem = experiments.example_5_1()
        super().__init__(problem, n, SolverConfig(alpha=problem.alpha, beta=problem.beta))
        self.reference = reference
        self.rtol = rtol

    def reference_checks(self) -> dict[str, bool]:
        sys, w, report = self.last
        Y_ref, U_ref = self.reference(sys, self.config.alpha)
        return {
            "converged": report.converged,
            "kkt_agreement_y": _rel(w.Y, Y_ref) <= self.rtol,
            "kkt_agreement_u": _rel(w.U, U_ref) <= self.rtol,
        }


class BoxFixedIterations(Iteration):
    box = True

    def __init__(self, n=32, iterations=100):
        problem = experiments.example_5_1()
        config = SolverConfig(alpha=problem.alpha, beta=0.3, gamma=1.5, epsilon=0.0,
                              k_max=iterations, bounds=(0.0, 0.8), thread_count=2)
        super().__init__(problem, n, config)

    def reference_checks(self) -> dict[str, bool]:
        sys, w, report = self.last
        lo, hi = self.config.bounds
        serial = replace(self.config, thread_count=1)
        w1, report1 = self._solve(sys, serial)
        return {
            "fixed_budget": report.iterations == self.config.k_max,
            "bounds": bool(w.P.min() >= lo and w.P.max() <= hi),
            "thread_count_identical": same(_iterate_arrays(w), _iterate_arrays(w1)),
        }


class OracleLadder:
    def __init__(self, levels=LADDER_LEVELS, orders=RECORDED_ORDERS):
        self.problems = [experiments.example_5_1(), experiments.example_5_2()]
        self.levels = levels
        self.orders = orders
        self.rungs = [(p, n) for p in self.problems for n in levels]

    def setup(self) -> list[float]:
        out = []
        for p, n in self.rungs:
            t0 = time.perf_counter()
            experiments.build_level(p, n)
            out.append(time.perf_counter() - t0)
        return out

    def warm_up(self) -> None:
        for p in self.problems:
            kkt_oracle.solve_kkt(experiments.build_level(p, WARM_N), p.alpha)

    def run(self, tracer=None) -> Repeat:
        setup, solve, norms = [], [], []
        result = {}
        for p, n in self.rungs:
            with tracer.root("bench.rung", f"{p.name}-n{n}") if tracer else nullcontext():
                ta = time.perf_counter()
                sys = experiments.build_level(p, n)
                tb = time.perf_counter()
                sol = kkt_oracle.solve_kkt(sys, p.alpha)
                tc = time.perf_counter()
                ey = experiments.error_y_final(sys.space, sol.Y_star[:, -1], p)
                eu = experiments.error_u_spacetime(sys.space, sys.grid, sol.U_star, p)
                td = time.perf_counter()
            setup.append(tb - ta)
            solve.append(tc - tb)
            norms.append(td - tc)
            result[(p.name, n)] = (sol.Y_star, sol.U_star, sol.lambda_star,
                                   sol.stationarity_residual, sol.feasibility_residual, ey, eu)
        return Repeat(setup=setup, solve=solve, iteration_s=[], norms=norms, steps=1, result=result)

    def observed_orders(self, result) -> dict:
        out = {}
        for p in self.problems:
            for lo, hi in zip(self.levels[:-1], self.levels[1:]):
                ey0, eu0 = result[(p.name, lo)][5:]
                ey1, eu1 = result[(p.name, hi)][5:]
                r = math.log2(hi / lo)
                out[(p.name, hi)] = (math.log2(ey0 / ey1) / r, math.log2(eu0 / eu1) / r)
        return out

    def check(self, repeats: list[Repeat]) -> dict[str, bool]:
        first = repeats[0].result
        checks = {"repeatable": all(same(r.result, first) for r in repeats[1:])}
        for (name, n), (Y, U, lam, stat, feas, ey, eu) in sorted(first.items()):
            checks[f"{name}-n{n}.stationarity"] = stat <= RESIDUAL_TOL
            checks[f"{name}-n{n}.feasibility"] = feas <= RESIDUAL_TOL
        observed = self.observed_orders(first)
        for key, recorded in self.orders.items():
            if key not in observed:
                continue
            for tag, got, want in zip("yu", observed[key], recorded):
                checks[f"{key[0]}-n{key[1]}.order_{tag}"] = abs(got - want) <= ORDER_TOL
        return checks


WORKLOADS = {
    "tol-5.1-n16": TimeToTolerance,
    "box-5.1-n32-t2": BoxFixedIterations,
    "oracle-ladder": OracleLadder,
}
