"""Corrected full-Jacobian-decomposition augmented Lagrangian solver.

One iteration: compute the shifted residual q once, solve all control and
state subproblems in closed form against shared factorizations (prediction),
update the multiplier, then apply the constant-step correction
w^{k+1} = w^k - nu (w^k - w~^k).  Monitoring uses the weighted norm under
which the corrected iteration contracts.

``solve`` is the one entry point: it runs the box variant (projected state
copies) exactly when the config has bounds.  ``PredictionFactors.build``
forms and factors the subproblems' normal matrices from the system's mass,
stiffness and step matrices; the discretization holds none of them.

An iterate is one stacked array: the slabs U, Y, lam and, in the box
variant, P and mu.  The constraint map is linear, so the loop carries the
iterate's constraint products (A U, step_plus Y, step_minus Y and the
constraint map Cz, stacked as ``constraint_products`` returns them) beside
it.  Each iteration forms the difference d = w - w~ once, over the iterate
and its products together: the H-norm increment nu^2 ||d||_H^2 reads d's
products, and ``correct(w, d, nu)`` = w - nu d is the corrected iterate with
its products.  An iteration then forms five sparse products: three for the
predicted iterate's products and two for the state right-hand sides.  The
control solves use the mass shift alpha I + beta tau A, the control normal
matrix alpha tau A + beta tau^2 A A with its SPD factor tau A cancelled.

``thread_count`` sets the workers of one thread pool opened per solve,
capped at the CPUs the process may run on; a single thread runs every solve
inline.  Each iteration hands its control, interior-state and terminal solves
to the pool as one batch, split into column chunks fixed by M alone, so the
iterates are bit-identical for every thread count.
"""

from __future__ import annotations

import math
import operator
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .discretization import (  # noqa: F401  constraint_linear_map: bench/tracing.py patches it here
    DiscreteSystem,
    constraint_linear_map,
    constraint_products,
    constraint_residual,
)
from .sparse_linalg import CholFactor, factorize, solve_multi

import scipy.sparse as sp


@dataclass
class Iterate:
    """Full splitting iterate, stored as the slabs of one array ``z``.

    ``z`` has shape (3, ndof, M): the M control columns U, the M state
    columns Y and the multiplier block lam.  Box-constrained runs add the
    auxiliary state copies P and their multiplier mu, for shape
    (5, ndof, M); elsewhere ``P`` and ``mu`` are None.  ``products`` holds
    the constraint products of (U, Y) while the solver carries them, and is
    None elsewhere (``copy`` leaves them out).
    """

    z: np.ndarray
    products: np.ndarray | None = None

    U = property(lambda self: self.z[0])
    Y = property(lambda self: self.z[1])
    lam = property(lambda self: self.z[2])
    P = property(lambda self: self.z[3] if self.is_box else None)
    mu = property(lambda self: self.z[4] if self.is_box else None)

    @property
    def is_box(self) -> bool:
        return len(self.z) == 5

    def copy(self) -> "Iterate":
        return Iterate(self.z.copy())

    @staticmethod
    def of(U, Y, lam, P=None, mu=None) -> "Iterate":
        """The iterate with the given blocks (P and mu for a box iterate)."""
        return Iterate(np.stack((U, Y, lam) if P is None else (U, Y, lam, P, mu)))

    @staticmethod
    def zeros(ndof: int, M: int, box: bool = False) -> "Iterate":
        return Iterate(np.zeros((5 if box else 3, ndof, M)))


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
        for name in ("k_max", "thread_count"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
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
    from the final iterate, relative to max(1, ||rhs||).  ``factor_nnz`` maps
    each prediction factor ("control", "state" unless M == 1, "terminal") to
    its nnz(L) + nnz(U).
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
    factor_nnz: dict[str, int]
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


def _products(sys: DiscreteSystem, w: Iterate) -> np.ndarray:
    """The products w carries, or else formed from scratch."""
    return w.products if w.products is not None else constraint_products(sys, w.Y, w.U)


def compute_q(sys: DiscreteSystem, w: Iterate, beta: float) -> np.ndarray:
    """Shifted constraint residual Cz - rhs - lam / beta, one column per step."""
    return _products(sys, w)[3] - sys.rhs - w.lam / beta


def _gram(a: sp.csr_matrix, b: sp.csr_matrix) -> sp.csr_matrix:
    """Symmetrized product a^T b + b^T a, halved."""
    prod = a.T @ b
    return sp.csr_matrix(0.5 * (prod + prod.T))


@dataclass(frozen=True)
class PredictionFactors:
    """One-time factorizations reused every iteration."""

    control: CholFactor
    state: CholFactor | None  # interior steps; None when M == 1
    terminal: CholFactor

    @staticmethod
    def build(sys: DiscreteSystem, config: SolverConfig) -> "PredictionFactors":
        """Factor the control mass shift and the state normal matrices
        tau A + beta (step_plus^2 + step_minus^2) = tau A + beta (2 A A
        + tau^2/2 B B) and (tau/2) A + beta step_plus^2, each plus beta I
        from the state-copy constraint row in the box variant."""
        tau = sys.grid.tau
        alpha, beta = config.alpha, config.beta
        shift = 0.0
        if config.bounds is not None:
            shift = beta  # extra beta * I from the state-copy constraint row
        eye = sp.identity(sys.ndof, format="csr")
        control = factorize(alpha * eye + (beta * tau) * sys.mass)
        state = None
        if sys.grid.M > 1:
            mass2, stiff2 = _gram(sys.mass, sys.mass), _gram(sys.stiffness, sys.stiffness)
            state_gram = 2.0 * mass2 + (tau * tau / 2.0) * stiff2
            state = factorize(tau * sys.mass + beta * state_gram + shift * eye)
        terminal_gram = _gram(sys.step_plus, sys.step_plus)
        terminal = factorize((tau / 2.0) * sys.mass + beta * terminal_gram + shift * eye)
        return PredictionFactors(control=control, state=state, terminal=terminal)


def predict_controls(
    sys: DiscreteSystem,
    w: Iterate,
    q: np.ndarray,
    config: SolverConfig,
    factors: PredictionFactors,
    out: np.ndarray,
) -> list:
    """The control subproblem solves, all M columns as one ``solve_multi`` job into ``out``.

    The first-order conditions of the odd-index subproblems read
    (alpha*tau*A + beta*tau^2*A*A) U~ = beta*(tau^2*A*A U + tau*A q).  Both
    sides carry the SPD factor tau*A, so U~ solves the mass shift
    (alpha*I + beta*tau*A) U~ = beta*(tau*A U + q).  (The sign of the q term
    follows from the subproblem optimality conditions; the constraint
    carries the control with a negative block.)
    """
    rhs = config.beta * (sys.grid.tau * _products(sys, w)[0] + q)
    return [(factors.control, rhs, out)]


def _state_rhs(sys: DiscreteSystem, w: Iterate, q: np.ndarray, config: SolverConfig):
    """Right-hand sides of the state subproblems.

    Block m is tau*kappa_m*d_m + beta*[step_plus (step_plus Y_m - q_m)
    + step_minus (step_minus Y_m + q_{m+1})], without the step_minus term at
    the terminal step.  The normal matrices ``PredictionFactors`` factors
    carry step_plus^2 + step_minus^2 (interior) and step_plus^2 (terminal),
    so this is the normal-equation right-hand side; the inner products
    step_plus Y and step_minus Y come from w's products.
    """
    _, PY, MY, _ = _products(sys, w)
    coupled = sys.step_plus @ (PY - q)
    coupled[:, :-1] += sys.step_minus @ (MY[:, :-1] + q[:, 1:])
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
    out: np.ndarray,
) -> list:
    """The state subproblem solves as ``solve_multi`` jobs into ``out``: one
    multi-RHS job for the interior steps and one for the terminal step."""
    rhs = _state_rhs(sys, w, q, config)
    jobs = [(factors.state, rhs[:, :-1], out[:, :-1])] if sys.grid.M > 1 else []
    return jobs + [(factors.terminal, rhs[:, -1], out[:, -1])]


def predict_multiplier(
    sys: DiscreteSystem, w: Iterate, products_tilde: np.ndarray, beta: float
) -> np.ndarray:
    """lam~ = lam - beta * (C z~ - rhs), from the predicted pair's products."""
    return w.lam - beta * (products_tilde[3] - sys.rhs)


def predict(
    sys: DiscreteSystem,
    w: Iterate,
    config: SolverConfig,
    factors: PredictionFactors,
    pool=None,
) -> Iterate:
    """One full prediction sweep; all subproblems read the same w and q.

    The control and state solves run as one ``solve_multi`` batch on
    ``pool`` (None: inline).  Uses the products w carries, forming them
    first when it carries none.  The predicted iterate is returned with its
    own products.
    """
    if w.products is None:
        w = Iterate(w.z, constraint_products(sys, w.Y, w.U))
    beta = config.beta
    q = compute_q(sys, w, beta)
    box = config.bounds is not None
    z_t = np.empty((5 if box else 3,) + w.U.shape)
    jobs = predict_controls(sys, w, q, config, factors, z_t[0])
    jobs += predict_states(sys, w, q, config, factors, z_t[1])
    solve_multi(jobs, pool)
    products_t = constraint_products(sys, z_t[1], z_t[0])
    z_t[2] = predict_multiplier(sys, w, products_t, beta)
    if box:
        np.clip(w.Y - w.mu / beta, *config.bounds, out=z_t[3])
        z_t[4] = w.mu - beta * (z_t[1] - z_t[3])
    return Iterate(z_t, products_t)


def iterate_diff(a: Iterate, b: Iterate, out: Iterate | None = None) -> Iterate:
    """a - b, with the difference of the products when both carry them.

    With ``out`` (which may be a or b itself) the difference is written into
    out's arrays; without it, a and b are left unchanged.
    """
    z = np.subtract(a.z, b.z, out=None if out is None else out.z)
    if a.products is None or b.products is None:
        return Iterate(z)
    return Iterate(z, np.subtract(a.products, b.products, out=None if out is None else out.products))


def correct(w: Iterate, d: Iterate, nu: float) -> Iterate:
    """The corrected iterate w - nu d from the difference d = w - w~.

    The result takes d's storage (d is used up); w is left unchanged.  It
    carries products when both w and d do.  Since d is the very difference
    w - w~, this is w - nu (w - w~) to the last bit.
    """
    d.z *= nu
    np.subtract(w.z, d.z, out=d.z)
    if w.products is None or d.products is None:
        return Iterate(d.z)
    d.products *= nu
    np.subtract(w.products, d.products, out=d.products)
    return d


def h_norm_sq(sys: DiscreteSystem, v: Iterate, beta: float) -> float:
    """v^T H v without materializing H.

    Uses the identity v^T H v = beta * [ sum_l ||M_l v_l||^2
    + ||sum_l M_l v_l||^2 ] + (1/beta) ||v_lam||^2, where M_l are the block
    columns of the constraint matrix.  Box iterates extend the columns with
    the identity rows of the state-copy constraint.  The block products
    M_l v_l and their sum are v's products (formed when v carries none).
    """
    AU, PY, MY, Cz = _products(sys, v)
    sq = lambda x: np.vdot(x, x)
    per_block = sys.grid.tau**2 * sq(AU) + sq(PY) + sq(MY[:, :-1])
    total_sum = sq(Cz)
    mult = sq(v.lam)
    if v.is_box:
        per_block += sq(v.Y) + sq(v.P)
        total_sum += sq(v.Y - v.P)
        mult += sq(v.mu)
    return float(beta * (per_block + total_sum) + mult / beta)


def _worker_pool(thread_count: int):
    """One executor for a whole solve, with at most one worker per usable
    CPU; a null context (inline solves) for a single thread."""
    if thread_count == 1:
        return nullcontext()
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return ThreadPoolExecutor(min(thread_count, cpus))


def solve(sys: DiscreteSystem, config: SolverConfig, monitor=None) -> tuple[Iterate, SolveReport]:
    """Run the corrected splitting iteration from the all-zeros iterate.

    Without ``config.bounds`` the iterate is (U, Y, lam) and the correction
    step counts 2 blocks per time step.  With bounds it is the box variant:
    auxiliary state copies P, projected onto the bounds each iteration, and
    their multiplier mu join the iterate, and the step counts 3 blocks per
    time step.  Stops when the squared increment in the contraction norm
    drops to the configured tolerance, at the iteration cap, or at the
    first non-finite increment (reported, not raised).  ``monitor(k, w)`` is
    called with each iterate before it is advanced.
    """
    if config.alpha != sys.alpha:
        raise ValueError(f"config alpha {config.alpha} does not match the system's alpha {sys.alpha}")
    box = config.bounds is not None
    blocks = 3 if box else 2
    nu = correction_factor(sys.grid.M, config.gamma, blocks_per_step=blocks)
    factors = PredictionFactors.build(sys, config)

    w = Iterate.zeros(sys.ndof, sys.grid.M, box=box)
    if box:
        np.clip(w.P, *config.bounds, out=w.P)
    w.products = constraint_products(sys, w.Y, w.U)

    increments: list[float] = []
    gaps: list[float] = [] if box else None
    stop_reason = "k_max"
    t_predict = 0.0
    t_correct = 0.0
    t0 = time.perf_counter()
    k = 0
    with _worker_pool(config.thread_count) as pool:
        while k < config.k_max:
            k += 1
            if monitor is not None:
                monitor(k, w)
            t1 = time.perf_counter()
            w_tilde = predict(sys, w, config, factors, pool)
            t2 = time.perf_counter()
            d = iterate_diff(w, w_tilde, out=w_tilde)  # the prediction is not read again
            # w - w_next = nu d, and the H-norm is quadratic.
            inc = nu * nu * h_norm_sq(sys, d, config.beta)
            w = correct(w, d, nu)
            t3 = time.perf_counter()
            t_predict += t2 - t1
            t_correct += t3 - t2
            increments.append(inc)
            if box:
                gaps.append(float(np.linalg.norm(w.Y - w.P)))
            if not math.isfinite(inc):
                stop_reason = "non_finite"
                break
            if inc <= config.epsilon:
                stop_reason = "converged"
                break

    residual = constraint_residual(sys, w.Y, w.U)
    drift = np.linalg.norm(w.products[3] - sys.rhs - residual) / max(1.0, np.linalg.norm(sys.rhs))
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
        factor_nnz={name: f.nnz for name, f in vars(factors).items() if f is not None},
        gap_history=None if gaps is None else np.asarray(gaps),
    )
    return w, report


solve_box = solve  # the box variant's former entry name, which bench/ still calls and traces
