"""Exact reference solver for the saddle-point system of the discrete QP.

Provides ground-truth trajectories and multipliers for convergence and
contraction tests of the iterative solver.  The solve is modal (fast
diagonalisation): generalised eigendecompositions of the stiffness-mass
pencil turn the reduced state system into independent scalar tridiagonal
systems in time, one per mode.  The pencil is first split by the mesh's
mirror symmetries (see ``mirrors``): on the uniform meshes the point
reflection through the centre and the swap of the coordinates map the
operators onto themselves.  The oracle changes the system into the
symmetry-adapted basis once (``DiscreteSystem.in_mirror_basis``, as the
splitting solver does), where the pencil is block diagonal with four
blocks of about ndof / 4 each, and solves one dense eigenproblem per block
(``block_eigh``).  Memory is the dense blocks and their eigenvectors,
about a quarter of one dense ndof x ndof matrix, so the number of spatial
degrees of freedom is still capped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .discretization import DiscreteSystem, constraint_adjoint, constraint_residual
from .sparse_linalg import block_rows, dense_block

# Admits n = 64 (ndof 4225: a convergence study over n = 16, 32, 64 took
# 2.6 s and peaked at 0.19 GB RSS), rejects n = 128 (ndof 16 641: scaled by
# the square and the cube of ndof, about 2 GB and 90 s per solve).
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


def block_eigh(sys: DiscreteSystem) -> list[tuple[np.ndarray, np.ndarray]]:
    """The generalised eigenpairs (mu_c, W_c) of each diagonal block of the
    pencil (stiffness, mass) of a system in its mirror basis
    (``DiscreteSystem.in_mirror_basis``), or of the whole pencil in node
    coordinates, with W_c^T mass_c W_c = I: one dense ``eigh`` per block."""
    return [
        scipy.linalg.eigh(dense_block(sys.stiffness, rows), dense_block(sys.mass, rows))
        for rows in block_rows(sys.block_sizes)
    ]


def _solve_modal(sys: DiscreteSystem):
    """The modal solve with the pencil split by the system's mirror basis.

    The system is changed into its basis Q once, where its operators are
    block diagonal; a system without a mirror gets the one-block basis,
    Q = I, and one eigenproblem of the whole pencil.  The eigenvectors are
    V = Q diag(W_c), one generalised eigenproblem per block
    (``block_eigh``): the modal coordinates of a block are W_c^T applied to
    its contiguous rows, and neither V nor the dense pencil is formed.  Y
    and lambda come back to node coordinates with one ``expand_stacked``
    each.
    """
    sys = sys.in_mirror_basis()
    eig = block_eigh(sys)
    rows = block_rows(sys.block_sizes)

    def to_modes(X):
        return np.concatenate([W.T @ X[r] for (_, W), r in zip(eig, rows)])

    def from_modes(x):
        out = np.concatenate([W @ x[r] for (_, W), r in zip(eig, rows)])
        return sys.basis.expand_stacked(out, out=out)

    return modal_sweep(sys, np.concatenate([mu for mu, _ in eig]), to_modes, from_modes)


def modal_sweep(sys: DiscreteSystem, mu: np.ndarray, to_modes, from_modes):
    """Exact solve in the eigenbasis V of the pencil (stiffness, mass).

    ``mu`` holds the eigenvalues; ``to_modes`` applies V^T and ``from_modes``
    applies V to an (ndof, M) array.  With V^T A V = I and V^T B V =
    diag(mu), the step matrices become the diagonals a = 1 + tau mu / 2 and
    b = 1 - tau mu / 2.  The control rows give U_m = -lambda_m / alpha and
    the constraint rows give lambda_m = rho A^-1 (f_m - C+ Y_m + C- Y_{m-1})
    with rho = alpha / tau.  What remains in modal coordinates is one
    tridiagonal system in time per mode, with diagonal kappa_m tau + rho a^2
    + [m < M] rho b^2 and off-diagonal -rho a b.  Since mu >= 0 gives
    a >= |b|, each system is strictly diagonally dominant and a Thomas sweep
    without pivoting solves them all.  Returns (Y, U, lambda).
    """
    M, tau, alpha = sys.grid.M, sys.grid.tau, sys.alpha
    rho = alpha / tau
    a = 1.0 + 0.5 * tau * mu
    b = 1.0 - 0.5 * tau * mu
    f = to_modes(sys.rhs)
    kt = sys.kappa * tau

    diag = kt[:, None] + rho * a * a + rho * b * b
    diag[-1] -= rho * b * b
    off = -rho * a * b  # couples steps m-1 and m
    r = to_modes(sys.tracking_loads).T + rho * a * f.T
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
    Y = from_modes(y)
    lam = from_modes(lam_hat)
    return Y, -lam / alpha, lam


def solve_kkt(sys: DiscreteSystem, alpha: float) -> KktSolution:
    """Solve the stationarity system of the equality-constrained QP directly.

    ``alpha`` must be positive and finite (the QP is then strictly convex)
    and equal ``sys.alpha``, the weight the system was built with, and
    ``sys`` must be in node coordinates (``in_mirror_basis``).  The
    solution comes from the modal solve.  Its residuals are then
    measured from sparse products, without assembling any block matrix:
    Q z from two mass products, C^T lambda from three (the control part
    -tau A lambda; the state part step_plus lambda_m - step_minus
    lambda_{m+1}), and the constraint residual from the step products.
    """
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if alpha != sys.alpha:
        raise ValueError(f"alpha {alpha} does not match the system's alpha {sys.alpha}")
    ndof, tau = sys.ndof, sys.grid.tau
    if ndof > MAX_NDOF:
        raise ValueError(f"ndof {ndof} exceeds the oracle's cap {MAX_NDOF} (dense eigenproblems per block)")

    Y, U, lam = _solve_modal(sys)

    b = sys.tracking_loads
    # Q z - b - C^T lambda, control rows then state rows
    grad = constraint_adjoint(sys, lam)
    np.subtract(alpha * tau * (sys.mass @ U), grad[0], out=grad[0])
    np.subtract((sys.kappa * tau) * (sys.mass @ Y) - b, grad[1], out=grad[1])

    stat = np.linalg.norm(grad) / (1.0 + np.linalg.norm(b))
    feas = np.linalg.norm(constraint_residual(sys, Y, U)) / (1.0 + np.linalg.norm(sys.rhs))
    return KktSolution(
        Y_star=Y,
        U_star=U,
        lambda_star=lam,
        stationarity_residual=float(stat),
        feasibility_residual=float(feas),
    )
