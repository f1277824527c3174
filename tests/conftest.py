"""Shared dense oracles for the test suite.

Everything here is built independently of the solver's fast paths: block
matrices are materialized explicitly with numpy kron, so the sparse and
matrix-free implementations can be checked against plain dense algebra.
Two references reuse solver pieces: ``reference_loop`` rebuilds the
iteration from the solver's one-step pieces with no carried products, and
``full_pencil_solution`` runs the oracle's modal sweep on one plain
eigendecomposition of the whole pencil.
"""

import dataclasses
import os
from types import SimpleNamespace

# One BLAS thread, set before numpy loads the library, as bench/run.py and
# tools/sweep_common.py do.  Unpinned, OpenBLAS wakes its worker threads for
# long vector products and SuperLU's BLAS calls, and they compete with the
# solver's own threads for the CPUs.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
os.environ.update({k: "1" for k in THREAD_ENV})

import numpy as np
import scipy.linalg

from parasplit.discretization import DiscreteSystem, TimeGrid, build_system, constraint_linear_map
from parasplit.fem_assembly import make_space
from parasplit.kkt_oracle import modal_sweep
from parasplit.mesh import NEUMANN, uniform_unit_square
from parasplit.splitting_solver import (
    Iterate,
    PredictionFactors,
    correct,
    correction_factor,
    h_norm_sq,
    iterate_diff,
    predict,
)

_ACCEPTANCE_RESULTS: list[str] = []


def record_acceptance(line: str) -> None:
    """Collect a criterion verdict line for the terminal summary."""
    _ACCEPTANCE_RESULTS.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)


def toy_problem(bc: str, alpha: float = 1e-2) -> SimpleNamespace:
    """Minimal problem object with zero data, for synthetic systems."""
    zero = lambda x1, x2, t=None: np.zeros_like(np.asarray(x1, dtype=float))
    return SimpleNamespace(
        bc=bc,
        alpha=alpha,
        f=zero,
        y_d=zero,
        y0=lambda x1, x2: np.zeros_like(np.asarray(x1, dtype=float)),
    )


def random_system(seed: int, n: int, M: int, bc: str = NEUMANN, T: float = 1.0) -> DiscreteSystem:
    """Discrete system with randomized right-hand data and alpha."""
    rng = np.random.default_rng(seed)
    alpha = 10.0 ** rng.uniform(-3, 0)
    space = make_space(uniform_unit_square(n), bc)
    grid = TimeGrid(T=T, M=M)
    sys = build_system(toy_problem(bc, alpha), space, grid)
    return dataclasses.replace(
        sys,
        rhs=rng.standard_normal((space.ndof, M)),
        desired_loads=rng.standard_normal((space.ndof, M)),
        y0_nodal=rng.standard_normal(space.ndof),
    )


def random_iterate(seed: int, sys: DiscreteSystem, box: bool = False) -> Iterate:
    rng = np.random.default_rng(seed)
    return Iterate(rng.standard_normal((5 if box else 3, sys.ndof, sys.grid.M)))


def flat(X: np.ndarray) -> np.ndarray:
    """Stack trajectory columns: (ndof, M) -> (ndof * M,), block m first."""
    return np.asarray(X).T.ravel()


def dense_constraint(sys: DiscreteSystem):
    """Explicit dense block constraint matrices and right-hand side."""
    N, M = sys.ndof, sys.grid.M
    cp = sys.step_plus.toarray()
    cm = sys.step_minus.toarray()
    A_cal = np.kron(np.eye(M), cp) - np.kron(np.eye(M, k=-1), cm)
    B_cal = np.kron(np.eye(M), -sys.grid.tau * sys.mass.toarray())
    return A_cal, B_cal, flat(sys.rhs)


def dense_kkt_solution(sys: DiscreteSystem):
    """Dense LU solve of the assembled KKT system, returned as (Y, U, lambda).

    Unknowns are ordered (U stacked, Y stacked, lambda stacked); the rows are
    the control and state stationarity conditions followed by the constraint.
    """
    N, M = sys.ndof, sys.grid.M
    tau = sys.grid.tau
    A_cal, B_cal, F = dense_constraint(sys)
    C = np.hstack([B_cal, A_cal])
    A = sys.mass.toarray()
    Q = scipy.linalg.block_diag(
        np.kron(np.eye(M), sys.alpha * tau * A), np.kron(np.diag(sys.kappa * tau), A)
    )
    kkt = np.block([[Q, -C.T], [C, np.zeros((N * M, N * M))]])
    rhs = np.concatenate([np.zeros(N * M), flat(sys.desired_loads * (sys.kappa * tau)), F])
    sol = scipy.linalg.solve(kkt, rhs)
    U, Y, lam = (sol[i * N * M : (i + 1) * N * M].reshape(M, N).T for i in range(3))
    return Y, U, lam


def full_pencil_solution(sys: DiscreteSystem):
    """The oracle's modal sweep on the whole pencil, returned as (Y, U, lambda).

    One plain dense generalised eigendecomposition of (stiffness, mass), with
    no mirror blocks: the reference the blocked oracle must reproduce.
    """
    mu, V = scipy.linalg.eigh(sys.stiffness.toarray(), sys.mass.toarray())
    return modal_sweep(sys, mu, lambda X: V.T @ X, lambda x: V @ x)


def dense_block_columns(sys: DiscreteSystem):
    """The 2M block columns of the constraint matrix, as dense arrays.

    Returns (controls, states): controls[m] and states[m] each have shape
    (ndof * M, ndof) and correspond to U_{m+1/2} and Y_{m+1} respectively.
    """
    N, M = sys.ndof, sys.grid.M
    cp = sys.step_plus.toarray()
    cm = sys.step_minus.toarray()
    tauA = sys.grid.tau * sys.mass.toarray()
    controls, states = [], []
    for m in range(M):
        col = np.zeros((N * M, N))
        col[m * N : (m + 1) * N] = -tauA
        controls.append(col)
        col = np.zeros((N * M, N))
        col[m * N : (m + 1) * N] = cp
        if m + 1 < M:
            col[(m + 1) * N : (m + 2) * N] = -cm
        states.append(col)
    return controls, states


def interleaved_columns(sys: DiscreteSystem):
    """Block columns in the solver's ordering: (U_1, Y_1, U_2, Y_2, ...)."""
    controls, states = dense_block_columns(sys)
    cols = []
    for m in range(sys.grid.M):
        cols.append(controls[m])
        cols.append(states[m])
    return cols


def dense_h_matrix(sys: DiscreteSystem, beta: float) -> np.ndarray:
    """Explicit contraction-norm matrix over (z_1..z_{2M}, lambda)."""
    cols = interleaved_columns(sys)
    N, M = sys.ndof, sys.grid.M
    full = np.hstack(cols)
    Hzz = full.T @ full
    for l, col in enumerate(cols):
        sl = slice(l * N, (l + 1) * N)
        Hzz[sl, sl] += col.T @ col
    return scipy.linalg.block_diag(beta * Hzz, np.eye(N * M) / beta)


def flatten_for_h(sys: DiscreteSystem, v: Iterate) -> np.ndarray:
    """Flatten an iterate difference to match dense_h_matrix's ordering."""
    N, M = sys.ndof, sys.grid.M
    z = np.empty(2 * N * M)
    for m in range(M):
        z[2 * m * N : (2 * m + 1) * N] = v.U[:, m]
        z[(2 * m + 1) * N : (2 * m + 2) * N] = v.Y[:, m]
    return np.concatenate([z, flat(v.lam)])


def dense_box_columns(sys: DiscreteSystem):
    """Extended block columns for the box variant.

    The constraint rows double: the original M blocks on top, then the M
    state-copy rows Y_m - P_m below.  Returns (controls, states, copies).
    """
    N, M = sys.ndof, sys.grid.M
    controls, states = dense_block_columns(sys)
    top = N * M
    ext_controls = [np.vstack([c, np.zeros((top, N))]) for c in controls]
    ext_states, copies = [], []
    for m in range(M):
        sl = np.zeros((2 * top, N))
        sl[:top] = states[m]
        sl[top + m * N : top + (m + 1) * N] = np.eye(N)
        ext_states.append(sl)
        cp = np.zeros((2 * top, N))
        cp[top + m * N : top + (m + 1) * N] = -np.eye(N)
        copies.append(cp)
    return ext_controls, ext_states, copies


def dense_box_h_matrix(sys: DiscreteSystem, beta: float) -> np.ndarray:
    """Contraction-norm matrix for the extended iterate (U, Y, P, lam, mu)."""
    N, M = sys.ndof, sys.grid.M
    controls, states, copies = dense_box_columns(sys)
    cols = []
    for m in range(M):
        cols.extend([controls[m], states[m], copies[m]])
    full = np.hstack(cols)
    Hzz = full.T @ full
    for l, col in enumerate(cols):
        sl = slice(l * N, (l + 1) * N)
        Hzz[sl, sl] += col.T @ col
    return scipy.linalg.block_diag(beta * Hzz, np.eye(2 * N * M) / beta)


def flatten_for_box_h(sys: DiscreteSystem, v: Iterate) -> np.ndarray:
    N, M = sys.ndof, sys.grid.M
    z = np.empty(3 * N * M)
    for m in range(M):
        z[3 * m * N : (3 * m + 1) * N] = v.U[:, m]
        z[(3 * m + 1) * N : (3 * m + 2) * N] = v.Y[:, m]
        z[(3 * m + 2) * N : (3 * m + 3) * N] = v.P[:, m]
    return np.concatenate([z, flat(v.lam), flat(v.mu)])


def dense_q(sys: DiscreteSystem, w: Iterate, beta: float) -> np.ndarray:
    A_cal, B_cal, F = dense_constraint(sys)
    return A_cal @ flat(w.Y) + B_cal @ flat(w.U) - F - flat(w.lam) / beta


def prediction_row_residuals(sys: DiscreteSystem, w: Iterate, w_tilde: Iterate, alpha: float, beta: float):
    """Relative residuals of the 2M subproblem optimality rows.

    Each subproblem minimizes theta_l(chi) - lam^T M_l chi
    + (beta/2) ||M_l(chi - chi^k) + r^k||^2 with r^k the full constraint
    residual at w^k; its optimality row reads
    theta_l'(chi~) + beta M_l^T (M_l (chi~ - chi^k) + q) = 0 with the
    shifted residual q = r^k - lam^k / beta.  For a box iterate the state
    subproblems also carry the copy constraint Y - P = 0 with multiplier mu,
    which adds beta (Y~ - P^k) - mu^k to their rows.
    """
    N, M = sys.ndof, sys.grid.M
    tau = sys.grid.tau
    A = sys.mass.toarray()
    controls, states = dense_block_columns(sys)
    q = dense_q(sys, w, beta)
    out = []
    for m in range(M):
        Bm = controls[m]
        terms = [
            alpha * tau * (A @ w_tilde.U[:, m]),
            beta * (Bm.T @ (Bm @ (w_tilde.U[:, m] - w.U[:, m]) + q)),
        ]
        res = terms[0] + terms[1]
        scale = max(1.0, max(np.linalg.norm(t) for t in terms))
        out.append(np.linalg.norm(res) / scale)
        Sm = states[m]
        kappa = 0.5 if m == M - 1 else 1.0
        terms = [
            kappa * tau * (A @ w_tilde.Y[:, m] - sys.desired_loads[:, m]),
            beta * (Sm.T @ (Sm @ (w_tilde.Y[:, m] - w.Y[:, m]) + q)),
        ]
        if w.is_box:
            terms.append(beta * (w_tilde.Y[:, m] - w.P[:, m]) - w.mu[:, m])
        res = sum(terms)
        scale = max(1.0, max(np.linalg.norm(t) for t in terms))
        out.append(np.linalg.norm(res) / scale)
    return np.asarray(out)


def reference_step(sys: DiscreteSystem, config, nu: float, d: Iterate) -> float:
    """The correction step of ``config.step`` for the difference d = w - w~
    (no carried products): nu, or gamma (||d||_H^2 + 2 <C d, e>) / ||d||_H^2
    with C d formed from scratch (``constraint_linear_map``) and e = d's
    multiplier slab, plus 2 <d_Y - d_P, d_mu> and capped at 1 in the box
    variant; nu where ||d||_H^2 is 0."""
    h = h_norm_sq(sys, d, config.beta)
    if config.step == "constant" or h == 0.0:
        return nu
    cross = np.vdot(constraint_linear_map(sys, d.Y, d.U), d.lam)
    if d.is_box:
        cross += np.vdot(d.Y - d.P, d.mu)
    step = config.gamma * (h + 2.0 * cross) / h
    return min(step, 1.0) if d.is_box else step


def reference_loop(sys: DiscreteSystem, config, K: int):
    """K splitting iterations built from the one-step pieces alone.

    No constraint products are carried (w never carries any, so neither do
    the differences): every prediction, step (``reference_step``) and
    H-norm increment forms its products from the iterate itself.  Returns
    the final iterate and the K squared increments ||w^k - w^{k+1}||_H^2.
    """
    box = config.bounds is not None
    nu = correction_factor(sys.grid.M, config.gamma, blocks_per_step=3 if box else 2)
    factors = PredictionFactors.build(sys, config)
    w = Iterate.zeros(sys.ndof, sys.grid.M, box=box)
    if box:
        np.clip(w.P, *config.bounds, out=w.P)
    increments = []
    for _ in range(K):
        d = iterate_diff(w, predict(sys, w, config, factors))
        w_next = correct(w, d, reference_step(sys, config, nu, d))
        increments.append(h_norm_sq(sys, iterate_diff(w, w_next), config.beta))
        w = w_next
    return w, np.asarray(increments)
