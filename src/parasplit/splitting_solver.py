"""Corrected full-Jacobian-decomposition augmented Lagrangian solver.

One iteration: compute the shifted residual q once, solve all control and
state subproblems in closed form against shared factorizations (prediction),
update the multiplier, then apply the constant-step correction
w^{k+1} = w^k - nu (w^k - w~^k).  Monitoring uses the weighted norm under
which the corrected iteration contracts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .discretization import DiscreteSystem, constraint_linear_map, constraint_residual
from .sparse_linalg import CholFactor, SparseSpd, factorize, solve_multi

import scipy.sparse as sp


@dataclass
class Iterate:
    """Full splitting iterate: M control columns, M state columns, and the
    multiplier block; box-constrained runs carry the auxiliary state copies
    and their multiplier as well."""

    U: np.ndarray
    Y: np.ndarray
    lam: np.ndarray
    P: np.ndarray | None = None
    mu: np.ndarray | None = None

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
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not 0.0 < self.gamma < 2.0:
            raise ValueError(f"gamma must lie in (0, 2), got {self.gamma}")
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")
        if self.bounds is not None and self.bounds[0] >= self.bounds[1]:
            raise ValueError(f"lower bound must be below upper bound, got {self.bounds}")
        if self.thread_count < 1:
            raise ValueError(f"thread_count must be >= 1, got {self.thread_count}")


@dataclass
class SolveReport:
    iterations: int
    converged: bool
    increment_history: np.ndarray
    final_constraint_norm: float
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


def compute_q(sys: DiscreteSystem, w: Iterate, beta: float) -> np.ndarray:
    """Shifted constraint residual, with a trailing zero block appended
    so that the state solves can index block m+1 uniformly."""
    q = constraint_residual(sys, w.Y, w.U) - w.lam / beta
    return np.concatenate([q, np.zeros((sys.ndof, 1))], axis=1)


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
        eye = SparseSpd(sp.identity(sys.ndof, format="csr"))
        control = factorize(alpha * sys.control_mass + beta * sys.control_gram)
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

    Solves (alpha*tau*A + beta*tau^2*A*A) U~ = beta*(tau^2*A*A U + tau*A q),
    the first-order conditions of the odd-index subproblems.  (The sign of
    the q term follows from the subproblem optimality conditions; the
    constraint carries the control with a negative block.)
    """
    beta = config.beta
    rhs = beta * (sys.control_gram @ w.U + sys.control_mass @ q[:, : sys.grid.M])
    return solve_multi(factors.control, rhs, config.thread_count)


def _state_rhs(sys: DiscreteSystem, w: Iterate, q: np.ndarray, config: SolverConfig):
    """Right-hand sides of the state subproblems, split interior/terminal."""
    tau = sys.grid.tau
    beta = config.beta
    M = sys.grid.M
    coupled = sys.step_plus @ q[:, :M] - sys.step_minus @ q[:, 1 : M + 1]
    rhs = -beta * coupled
    rhs[:, :-1] += tau * sys.desired_loads[:, :-1] + beta * (sys.state_gram @ w.Y[:, :-1])
    rhs[:, -1] += (tau / 2.0) * sys.desired_loads[:, -1] + beta * (sys.terminal_gram @ w.Y[:, -1])
    if config.bounds is not None:
        rhs += beta * w.P + w.mu
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
    sys: DiscreteSystem, w: Iterate, U_tilde: np.ndarray, Y_tilde: np.ndarray, beta: float
) -> np.ndarray:
    return w.lam - beta * constraint_residual(sys, Y_tilde, U_tilde)


def predict(
    sys: DiscreteSystem, w: Iterate, config: SolverConfig, factors: PredictionFactors
) -> Iterate:
    """One full prediction sweep; all subproblems read the same w and q."""
    beta = config.beta
    q = compute_q(sys, w, beta)
    U_t = predict_controls(sys, w, q, config, factors)
    Y_t = predict_states(sys, w, q, config, factors)
    lam_t = predict_multiplier(sys, w, U_t, Y_t, beta)
    if config.bounds is None:
        return Iterate(U=U_t, Y=Y_t, lam=lam_t)
    ya, yb = config.bounds
    P_t = np.clip(w.Y - w.mu / beta, ya, yb)
    mu_t = w.mu - beta * (Y_t - P_t)
    return Iterate(U=U_t, Y=Y_t, lam=lam_t, P=P_t, mu=mu_t)


def correct(w: Iterate, w_tilde: Iterate, nu: float) -> Iterate:
    """Constant-step correction applied componentwise to every block."""
    out = Iterate(
        U=w.U - nu * (w.U - w_tilde.U),
        Y=w.Y - nu * (w.Y - w_tilde.Y),
        lam=w.lam - nu * (w.lam - w_tilde.lam),
    )
    if w.is_box:
        out.P = w.P - nu * (w.P - w_tilde.P)
        out.mu = w.mu - nu * (w.mu - w_tilde.mu)
    return out


def iterate_diff(a: Iterate, b: Iterate) -> Iterate:
    d = Iterate(U=a.U - b.U, Y=a.Y - b.Y, lam=a.lam - b.lam)
    if a.is_box and b.is_box:
        d.P = a.P - b.P
        d.mu = a.mu - b.mu
    return d


def h_norm_sq(sys: DiscreteSystem, v: Iterate, beta: float) -> float:
    """v^T H v without materializing H.

    Uses the identity v^T H v = beta * [ sum_l ||M_l v_l||^2
    + ||sum_l M_l v_l||^2 ] + (1/beta) ||v_lam||^2, where M_l are the block
    columns of the constraint matrix.  Box iterates extend the columns with
    the identity rows of the state-copy constraint.
    """
    tau = sys.grid.tau
    AU = tau * (sys.mass @ v.U)
    CpY = sys.step_plus @ v.Y
    CmY = sys.step_minus @ v.Y[:, :-1]
    per_block = (AU**2).sum() + (CpY**2).sum() + (CmY**2).sum()
    combined = constraint_linear_map(sys, v.Y, v.U)
    mult = (v.lam**2).sum()
    if v.is_box:
        per_block += (v.Y**2).sum() + (v.P**2).sum()
        gap = v.Y - v.P
        total_sum = (combined**2).sum() + (gap**2).sum()
        mult += (v.mu**2).sum()
    else:
        total_sum = (combined**2).sum()
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

    increments: list[float] = []
    gaps: list[float] = [] if box else None
    converged = False
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
        w_next = correct(w, w_tilde, nu)
        inc = h_norm_sq(sys, iterate_diff(w, w_next), config.beta)
        t3 = time.perf_counter()
        t_predict += t2 - t1
        t_correct += t3 - t2
        increments.append(inc)
        if box:
            gaps.append(float(np.linalg.norm(w_next.Y - w_next.P)))
        w = w_next
        if inc <= config.epsilon:
            converged = True
            break

    report = SolveReport(
        iterations=k,
        converged=converged,
        increment_history=np.asarray(increments),
        final_constraint_norm=float(np.linalg.norm(constraint_residual(sys, w.Y, w.U))),
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
