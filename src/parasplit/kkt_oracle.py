"""Exact reference solver for the saddle-point system of the discrete QP.

Provides ground-truth trajectories and multipliers for convergence and
contraction tests of the iterative solver.  The solve is modal (fast
diagonalisation): one generalised eigendecomposition of the stiffness-mass
pencil turns the reduced state system into independent scalar tridiagonal
systems in time, one per mode.  Its memory is the dense ndof x ndof pencil,
so the number of spatial degrees of freedom is capped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .discretization import DiscreteSystem, constraint_adjoint, constraint_residual

# Admits n = 64 (ndof 4225: a convergence study to n = 64 peaked at 0.96 GB),
# rejects n = 128 (ndof 16 641, about 9 GB).
MAX_NDOF = 5_000


@dataclass(frozen=True)
class KktSolution:
    Y_star: np.ndarray
    U_star: np.ndarray
    lambda_star: np.ndarray
    stationarity_residual: float
    feasibility_residual: float


def constraint_blocks(sys: DiscreteSystem) -> tuple[sp.spmatrix, sp.spmatrix]:
    """Assembled block constraint matrices (state part, control part).

    Nothing in the package calls this: ``solve_kkt`` forms C^T lambda with
    ``discretization.constraint_adjoint``.  The benchmark tracer
    (``bench/tracing.py``) still patches the name.
    """
    M = sys.grid.M
    eye = sp.identity(M, format="csr")
    sub = sp.eye(M, M, k=-1, format="csr")
    state_part = sp.kron(eye, sys.step_plus) - sp.kron(sub, sys.step_minus)
    control_part = sp.kron(eye, -sys.grid.tau * sys.mass)
    return state_part.tocsr(), control_part.tocsr()


def _solve_modal(sys: DiscreteSystem):
    """Exact solve in the eigenbasis of the pencil (stiffness, mass).

    With V^T A V = I and V^T B V = diag(mu), the step matrices become the
    diagonals a = 1 + tau mu / 2 and b = 1 - tau mu / 2.  The control rows give
    U_m = -lambda_m / alpha and the constraint rows give
    lambda_m = rho A^-1 (f_m - C+ Y_m + C- Y_{m-1}) with rho = alpha / tau.  What
    remains in modal coordinates is one tridiagonal system in time per mode,
    with diagonal kappa_m tau + rho a^2 + [m < M] rho b^2 and off-diagonal
    -rho a b.  Since mu >= 0 gives a >= |b|, each system is strictly
    diagonally dominant and a Thomas sweep without pivoting solves them all.
    """
    M, tau, alpha = sys.grid.M, sys.grid.tau, sys.alpha
    rho = alpha / tau
    mu, V = scipy.linalg.eigh(sys.stiffness.toarray(), sys.mass.toarray())
    a = 1.0 + 0.5 * tau * mu
    b = 1.0 - 0.5 * tau * mu
    f = V.T @ sys.rhs
    kt = sys.kappa * tau

    diag = kt[:, None] + rho * a * a + rho * b * b
    diag[-1] -= rho * b * b
    off = -rho * a * b  # couples steps m-1 and m
    r = (V.T @ sys.tracking_loads).T + rho * a * f.T
    r[:-1] -= rho * b * f[:, 1:].T

    # Forward elimination and back substitution, all modes at once.
    piv = np.empty_like(diag)
    piv[0] = diag[0]
    for m in range(1, M):
        piv[m] = diag[m] - off * off / piv[m - 1]
        r[m] -= off / piv[m - 1] * r[m - 1]
    y = np.empty_like(r)
    y[-1] = r[-1] / piv[-1]
    for m in range(M - 2, -1, -1):
        y[m] = (r[m] - off * y[m + 1]) / piv[m]

    y = y.T
    lam_hat = rho * (f - a[:, None] * y)
    lam_hat[:, 1:] += rho * b[:, None] * y[:, :-1]
    Y = V @ y
    lam = V @ lam_hat
    return Y, -lam / alpha, lam


def solve_kkt(sys: DiscreteSystem, alpha: float) -> KktSolution:
    """Solve the stationarity system of the equality-constrained QP directly.

    ``alpha`` must equal ``sys.alpha``, the weight the system was built
    with.  The solution comes from the modal solve.  Its residuals are then
    measured from sparse products, without assembling any block matrix:
    Q z from two mass products, C^T lambda from three (the control part
    -tau A lambda; the state part step_plus lambda_m - step_minus
    lambda_{m+1}), and the constraint residual from the step products.
    """
    if alpha != sys.alpha:
        raise ValueError(f"alpha {alpha} does not match the system's alpha {sys.alpha}")
    ndof, tau = sys.ndof, sys.grid.tau
    if ndof > MAX_NDOF:
        raise ValueError(f"ndof {ndof} exceeds the oracle's cap {MAX_NDOF} (dense ndof x ndof pencil)")

    Y, U, lam = _solve_modal(sys)

    b = sys.tracking_loads
    # Q z - b - C^T lambda, control rows then state rows
    grad = constraint_adjoint(sys, lam)
    np.subtract(alpha * tau * (sys.mass @ U), grad[0], out=grad[0])
    np.subtract((sys.kappa * tau) * (sys.mass @ Y) - b, grad[1], out=grad[1])
    fvec = sys.rhs.T.ravel()

    stat = np.linalg.norm(grad) / (1.0 + np.linalg.norm(b))
    feas = np.linalg.norm(constraint_residual(sys, Y, U)) / (1.0 + np.linalg.norm(fvec))
    return KktSolution(
        Y_star=Y,
        U_star=U,
        lambda_star=lam,
        stationarity_residual=float(stat),
        feasibility_residual=float(feas),
    )
