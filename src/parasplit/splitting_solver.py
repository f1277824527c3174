"""Corrected full-Jacobian-decomposition augmented Lagrangian solver.

One iteration: compute the shifted residual q once, solve all control and
state subproblems in closed form against shared factorizations (prediction),
update the multiplier, then apply the constant-step correction
w^{k+1} = w^k - nu (w^k - w~^k).  Monitoring uses the weighted norm under
which the corrected iteration contracts.

The constraint map is linear, so the loop carries the products it needs
beside the iterate (``Products``: A U, step_plus Y, step_minus Y[:, :-1] and
the constraint map Cz built from them) and corrects them with the same convex
combination as the iterate.  An iteration then forms five sparse products:
three for the predicted iterate's products and two for the state right-hand
sides.  q, the multiplier update and the H-norm increment (nu times the
difference of the two iterates' products) need none of their own.  The
control solves use the mass shift alpha I + beta tau A, the control normal
matrix alpha tau A + beta tau^2 A A with its SPD factor tau A cancelled.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .discretization import (  # noqa: F401  constraint_linear_map: bench/tracing.py patches it here
    DiscreteSystem,
    constraint_linear_map,
    constraint_map_from_products,
    constraint_products,
    constraint_residual,
)
from .sparse_linalg import CholFactor, factorize, solve_multi

import scipy.sparse as sp


@dataclass
class Products:
    """Constraint products of a trajectory pair (U, Y).

    ``AU = A U``, ``PY = step_plus Y``, ``MY = step_minus Y[:, :-1]`` and the
    homogeneous constraint map ``Cz`` assembled from them; the constraint
    residual is ``Cz - rhs``.  All four are linear in (U, Y), so the products
    of a combination of iterates are the same combination of their products.
    """

    AU: np.ndarray
    PY: np.ndarray
    MY: np.ndarray
    Cz: np.ndarray

    @staticmethod
    def of(sys: DiscreteSystem, Y: np.ndarray, U: np.ndarray) -> "Products":
        AU, PY, MY = constraint_products(sys, Y, U)
        return Products(AU=AU, PY=PY, MY=MY, Cz=constraint_map_from_products(sys, AU, PY, MY))


@dataclass
class Iterate:
    """Full splitting iterate: M control columns, M state columns, and the
    multiplier block; box-constrained runs carry the auxiliary state copies
    and their multiplier as well.  ``products`` holds the constraint products
    of (U, Y) while the solver carries them, and is None elsewhere (``copy``
    leaves them out)."""

    U: np.ndarray
    Y: np.ndarray
    lam: np.ndarray
    P: np.ndarray | None = None
    mu: np.ndarray | None = None
    products: Products | None = None

    @property
    def is_box(self) -> bool:
        return self.P is not None

    def copy(self) -> "Iterate":
        return Iterate(
            U=self.U.copy(),
            Y=self.Y.copy(),
            lam=self.lam.copy(),
            P=None if self.P is None else self.P.copy(),
            mu=None if self.mu is None else self.mu.copy(),
        )

    @staticmethod
    def zeros(ndof: int, M: int, box: bool = False) -> "Iterate":
        z = lambda: np.zeros((ndof, M))
        if box:
            return Iterate(U=z(), Y=z(), lam=z(), P=z(), mu=z())
        return Iterate(U=z(), Y=z(), lam=z())


@dataclass(frozen=True)
class SolverConfig:
    alpha: float
    beta: float
    gamma: float = 1.0
    epsilon: float = 1e-12
    k_max: int = 20000
    bounds: tuple[float, float] | None = None
    thread_count: int = 1

    def __post_init__(self):
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not 0.0 < self.beta < math.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if not 0.0 < self.gamma < 2.0:
            raise ValueError(f"gamma must lie in (0, 2), got {self.gamma}")
        if not self.epsilon >= 0.0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")
        if self.bounds is not None and not self.bounds[0] < self.bounds[1]:
            raise ValueError(f"lower bound must be below upper bound, got {self.bounds}")
        if self.thread_count < 1:
            raise ValueError(f"thread_count must be >= 1, got {self.thread_count}")


@dataclass
class SolveReport:
    """What a solve did.

    ``stop_reason`` is "converged" (the increment reached the tolerance),
    "k_max" (the iteration cap was hit) or "non_finite" (the increment was
    NaN or infinite; the loop stops at the first such one).  ``residual_drift`` is
    the gap between the carried constraint residual and the one recomputed
    from the final iterate, relative to max(1, ||rhs||).
    """

    iterations: int
    converged: bool
    stop_reason: str
    increment_history: np.ndarray
    final_constraint_norm: float
    residual_drift: float
    seconds_total: float
    seconds_predict: float
    seconds_correct: float
    gap_history: np.ndarray | None = None  # box runs: ||Y - P|| per iteration


def correction_factor(M: int, gamma: float, blocks_per_step: int = 2) -> float:
    """Constant correction step: gamma * (1 - sqrt(L/(L+1))) with L the
    number of separable primal blocks (2M, or 3M in the box variant)."""
    if M < 1:
        raise ValueError(f"step count must be >= 1, got {M}")
    if not 0.0 < gamma < 2.0:
        raise ValueError(f"gamma must lie in (0, 2), got {gamma}")
    L = blocks_per_step * M
    return gamma * (1.0 - np.sqrt(L / (L + 1.0)))


def _products(sys: DiscreteSystem, w: Iterate) -> Products:
    """The products w carries, or else formed from scratch."""
    return w.products if w.products is not None else Products.of(sys, w.Y, w.U)


def compute_q(sys: DiscreteSystem, w: Iterate, beta: float) -> np.ndarray:
    """Shifted constraint residual Cz - rhs - lam / beta, one column per step."""
    return _products(sys, w).Cz - sys.rhs - w.lam / beta


@dataclass(frozen=True)
class PredictionFactors:
    """One-time factorizations reused every iteration."""

    control: CholFactor
    state: CholFactor | None  # interior steps; None when M == 1
    terminal: CholFactor

    @staticmethod
    def build(sys: DiscreteSystem, config: SolverConfig) -> "PredictionFactors":
        tau = sys.grid.tau
        alpha, beta = config.alpha, config.beta
        shift = 0.0
        if config.bounds is not None:
            shift = beta  # extra beta * I from the state-copy constraint row
        eye = sp.identity(sys.ndof, format="csr")
        control = factorize(alpha * eye + (beta * tau) * sys.mass)
        state = None
        if sys.grid.M > 1:
            state = factorize(tau * sys.mass + beta * sys.state_gram + shift * eye)
        terminal = factorize((tau / 2.0) * sys.mass + beta * sys.terminal_gram + shift * eye)
        return PredictionFactors(control=control, state=state, terminal=terminal)


def predict_controls(
    sys: DiscreteSystem,
    w: Iterate,
    q: np.ndarray,
    config: SolverConfig,
    factors: PredictionFactors,
) -> np.ndarray:
    """Closed-form control subproblem solves, all M columns at once.

    The first-order conditions of the odd-index subproblems read
    (alpha*tau*A + beta*tau^2*A*A) U~ = beta*(tau^2*A*A U + tau*A q).  Both
    sides carry the SPD factor tau*A, so U~ solves the mass shift
    (alpha*I + beta*tau*A) U~ = beta*(tau*A U + q).  (The sign of the q term
    follows from the subproblem optimality conditions; the constraint
    carries the control with a negative block.)
    """
    rhs = config.beta * (sys.grid.tau * _products(sys, w).AU + q)
    return solve_multi(factors.control, rhs, config.thread_count)


def _state_rhs(sys: DiscreteSystem, w: Iterate, q: np.ndarray, config: SolverConfig):
    """Right-hand sides of the state subproblems.

    Block m is tau*kappa_m*d_m + beta*[step_plus (step_plus Y_m - q_m)
    + step_minus (step_minus Y_m + q_{m+1})], without the step_minus term at
    the terminal step.  Since state_gram = step_plus^2 + step_minus^2 and
    terminal_gram = step_plus^2, this is the normal-equation right-hand side;
    the inner products step_plus Y and step_minus Y come from w's products.
    """
    p = _products(sys, w)
    coupled = sys.step_plus @ (p.PY - q)
    coupled[:, :-1] += sys.step_minus @ (p.MY + q[:, 1:])
    rhs = (sys.grid.tau * sys.kappa) * sys.desired_loads + config.beta * coupled
    if config.bounds is not None:
        rhs += config.beta * w.P + w.mu
    return rhs


def predict_states(
    sys: DiscreteSystem,
    w: Iterate,
    q: np.ndarray,
    config: SolverConfig,
    factors: PredictionFactors,
) -> np.ndarray:
    """Closed-form state subproblem solves: one multi-RHS batch for the
    interior steps and a separate solve for the terminal step."""
    rhs = _state_rhs(sys, w, q, config)
    out = np.empty_like(rhs)
    if sys.grid.M > 1:
        out[:, :-1] = solve_multi(factors.state, rhs[:, :-1], config.thread_count)
    out[:, -1] = factors.terminal.solve(rhs[:, -1])
    return out


def predict_multiplier(
    sys: DiscreteSystem, w: Iterate, products_tilde: Products, beta: float
) -> np.ndarray:
    """lam~ = lam - beta * (C z~ - rhs), from the predicted pair's products."""
    return w.lam - beta * (products_tilde.Cz - sys.rhs)


def predict(
    sys: DiscreteSystem, w: Iterate, config: SolverConfig, factors: PredictionFactors
) -> Iterate:
    """One full prediction sweep; all subproblems read the same w and q.

    Uses the products w carries, forming them first when it carries none.
    The predicted iterate is returned with its own products.
    """
    if w.products is None:
        w = replace(w, products=Products.of(sys, w.Y, w.U))
    beta = config.beta
    q = compute_q(sys, w, beta)
    U_t = predict_controls(sys, w, q, config, factors)
    Y_t = predict_states(sys, w, q, config, factors)
    products_t = Products.of(sys, Y_t, U_t)
    lam_t = predict_multiplier(sys, w, products_t, beta)
    w_t = Iterate(U=U_t, Y=Y_t, lam=lam_t, products=products_t)
    if config.bounds is not None:
        ya, yb = config.bounds
        w_t.P = np.clip(w.Y - w.mu / beta, ya, yb)
        w_t.mu = w.mu - beta * (Y_t - w_t.P)
    return w_t


def _combine(a: Iterate, b: Iterate, f) -> Iterate:
    """f applied blockwise to two iterates, and to their products when both
    carry them."""
    out = Iterate(U=f(a.U, b.U), Y=f(a.Y, b.Y), lam=f(a.lam, b.lam))
    if a.is_box and b.is_box:
        out.P = f(a.P, b.P)
        out.mu = f(a.mu, b.mu)
    pa, pb = a.products, b.products
    if pa is not None and pb is not None:
        out.products = Products(
            AU=f(pa.AU, pb.AU), PY=f(pa.PY, pb.PY), MY=f(pa.MY, pb.MY), Cz=f(pa.Cz, pb.Cz)
        )
    return out


def correct(w: Iterate, w_tilde: Iterate, nu: float) -> Iterate:
    """Constant-step correction applied componentwise to every block (and to
    the carried products)."""
    return _combine(w, w_tilde, lambda a, b: a - nu * (a - b))


def iterate_diff(a: Iterate, b: Iterate) -> Iterate:
    return _combine(a, b, lambda x, y: x - y)


def h_norm_sq(sys: DiscreteSystem, v: Iterate, beta: float) -> float:
    """v^T H v without materializing H.

    Uses the identity v^T H v = beta * [ sum_l ||M_l v_l||^2
    + ||sum_l M_l v_l||^2 ] + (1/beta) ||v_lam||^2, where M_l are the block
    columns of the constraint matrix.  Box iterates extend the columns with
    the identity rows of the state-copy constraint.  The block products
    M_l v_l and their sum are v's products (formed when v carries none).
    """
    p = _products(sys, v)
    sq = lambda x: np.vdot(x, x)
    per_block = sys.grid.tau**2 * sq(p.AU) + sq(p.PY) + sq(p.MY)
    total_sum = sq(p.Cz)
    mult = sq(v.lam)
    if v.is_box:
        per_block += sq(v.Y) + sq(v.P)
        total_sum += sq(v.Y - v.P)
        mult += sq(v.mu)
    return float(beta * (per_block + total_sum) + mult / beta)


def _run(sys: DiscreteSystem, config: SolverConfig, monitor=None) -> tuple[Iterate, SolveReport]:
    if config.alpha != sys.alpha:
        raise ValueError(f"config alpha {config.alpha} does not match the system's alpha {sys.alpha}")
    box = config.bounds is not None
    blocks = 3 if box else 2
    nu = correction_factor(sys.grid.M, config.gamma, blocks_per_step=blocks)
    factors = PredictionFactors.build(sys, config)

    w = Iterate.zeros(sys.ndof, sys.grid.M, box=box)
    if box:
        w.P = np.clip(w.P, config.bounds[0], config.bounds[1])
    w.products = Products.of(sys, w.Y, w.U)

    increments: list[float] = []
    gaps: list[float] = [] if box else None
    stop_reason = "k_max"
    t_predict = 0.0
    t_correct = 0.0
    t0 = time.perf_counter()
    k = 0
    while k < config.k_max:
        k += 1
        if monitor is not None:
            monitor(k, w)
        t1 = time.perf_counter()
        w_tilde = predict(sys, w, config, factors)
        t2 = time.perf_counter()
        # w - w_next = nu (w - w~), and the H-norm is quadratic.
        inc = nu * nu * h_norm_sq(sys, iterate_diff(w, w_tilde), config.beta)
        w_next = correct(w, w_tilde, nu)
        t3 = time.perf_counter()
        t_predict += t2 - t1
        t_correct += t3 - t2
        increments.append(inc)
        if box:
            gaps.append(float(np.linalg.norm(w_next.Y - w_next.P)))
        w = w_next
        if not math.isfinite(inc):
            stop_reason = "non_finite"
            break
        if inc <= config.epsilon:
            stop_reason = "converged"
            break

    residual = constraint_residual(sys, w.Y, w.U)
    drift = np.linalg.norm(w.products.Cz - sys.rhs - residual) / max(1.0, np.linalg.norm(sys.rhs))
    w.products = None  # the caller may change w; carried products would go stale
    report = SolveReport(
        iterations=k,
        converged=stop_reason == "converged",
        stop_reason=stop_reason,
        increment_history=np.asarray(increments),
        final_constraint_norm=float(np.linalg.norm(residual)),
        residual_drift=float(drift),
        seconds_total=time.perf_counter() - t0,
        seconds_predict=t_predict,
        seconds_correct=t_correct,
        gap_history=None if gaps is None else np.asarray(gaps),
    )
    return w, report


def solve(sys: DiscreteSystem, config: SolverConfig, monitor=None) -> tuple[Iterate, SolveReport]:
    """Run the corrected splitting iteration from the all-zeros iterate.

    Stops when the squared increment in the contraction norm drops to the
    configured tolerance, or at the iteration cap (reported, not raised).
    ``monitor(k, w)`` is called with each iterate before it is advanced.
    """
    if config.bounds is not None:
        raise ValueError("config has bounds set; use solve_box")
    return _run(sys, config, monitor)


def solve_box(sys: DiscreteSystem, config: SolverConfig, monitor=None) -> tuple[Iterate, SolveReport]:
    """Box-constrained variant: auxiliary state copies are projected onto
    the bounds each iteration, and the correction step uses the extended
    block count (3 blocks per time step)."""
    if config.bounds is None:
        raise ValueError("solve_box requires bounds in the config")
    return _run(sys, config, monitor)
