"""Crank-Nicolson block discretization of the tracking-type control problem.

Time step m (m = 1..M) advances the state from t_{m-1} to t_m; source and
control are evaluated at the midpoint t_{m-1/2}.  Trajectories are stored as
(ndof, M) arrays, one column per time slice.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fem_assembly import (
    FemSpace,
    assemble_mass,
    assemble_stiffness,
    interpolate_nodal,
    l2_error,
    l2_norm_of,
    load_vector,
)


@dataclass(frozen=True)
class TimeGrid:
    """Equidistant partition of [0, T] into M steps."""

    T: float
    M: int

    def __post_init__(self):
        try:
            operator.index(self.M)
        except TypeError:
            raise ValueError(f"step count must be an integer, got M={self.M!r}") from None
        if self.M < 1:
            raise ValueError(f"need at least one time step, got M={self.M}")
        if not 0.0 < self.T < np.inf:
            raise ValueError(f"final time must be positive and finite, got T={self.T}")

    @property
    def tau(self) -> float:
        return self.T / self.M

    @property
    def times(self) -> np.ndarray:
        """t_0 .. t_M."""
        return np.linspace(0.0, self.T, self.M + 1)

    @property
    def midpoints(self) -> np.ndarray:
        """t_{1/2} .. t_{M-1/2}."""
        return (np.arange(self.M) + 0.5) * self.tau


@dataclass(frozen=True)
class DiscreteSystem:
    """Everything frozen after discretization.

    ``rhs`` holds the M constraint right-hand blocks (the first block
    already includes the step_minus @ y0 contribution), ``desired_loads``
    the M load vectors of the desired state.  The operators are CSR
    matrices.
    """

    space: FemSpace
    grid: TimeGrid
    mass: sp.csr_matrix
    stiffness: sp.csr_matrix
    step_plus: sp.csr_matrix
    step_minus: sp.csr_matrix
    rhs: np.ndarray
    desired_loads: np.ndarray
    y0_nodal: np.ndarray
    alpha: float
    desired_state: object  # callable (x1, x2, t) -> values

    @property
    def ndof(self) -> int:
        return self.space.ndof

    @property
    def kappa(self) -> np.ndarray:
        """Trapezoidal state weights: 1 for m < M, 1/2 for m = M."""
        k = np.ones(self.grid.M)
        k[-1] = 0.5
        return k


def build_system(problem, space: FemSpace, grid: TimeGrid) -> DiscreteSystem:
    """Assemble the full Crank-Nicolson block system for a problem instance.

    ``problem`` provides callables f(x1, x2, t), y_d(x1, x2, t), y0(x1, x2)
    and a boundary mode that must match the space's.
    """
    if problem.bc != space.bc:
        raise ValueError(f"problem boundary mode {problem.bc!r} does not match space {space.bc!r}")
    tau = grid.tau
    mass = assemble_mass(space)
    stiffness = assemble_stiffness(space)
    step_plus = mass + (tau / 2.0) * stiffness
    step_minus = mass - (tau / 2.0) * stiffness

    y0_nodal = interpolate_nodal(space, problem.y0)

    M = grid.M
    mids, times = grid.midpoints, grid.times
    rhs = np.empty((space.ndof, M))
    desired = np.empty((space.ndof, M))
    for m in range(M):
        t_mid = mids[m]
        t_node = times[m + 1]
        rhs[:, m] = tau * load_vector(space, lambda x1, x2: problem.f(x1, x2, t_mid))
        desired[:, m] = load_vector(space, lambda x1, x2: problem.y_d(x1, x2, t_node))
    rhs[:, 0] += step_minus @ y0_nodal

    return DiscreteSystem(
        space=space,
        grid=grid,
        mass=mass,
        stiffness=stiffness,
        step_plus=step_plus,
        step_minus=step_minus,
        rhs=rhs,
        desired_loads=desired,
        y0_nodal=y0_nodal,
        alpha=problem.alpha,
        desired_state=problem.y_d,
    )


def _check_trajectory(sys: DiscreteSystem, arr: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if arr.shape != (sys.ndof, sys.grid.M):
        raise ValueError(f"{name} must have shape {(sys.ndof, sys.grid.M)}, got {arr.shape}")
    return arr


def constraint_products(sys: DiscreteSystem, Y: np.ndarray, U: np.ndarray) -> np.ndarray:
    """The constraint map and its sparse products, stacked: shape (4, ndof, M).

    The slabs are A U, step_plus Y, step_minus Y and the homogeneous
    constraint map Cz, whose block m is step_plus Y_m - tau A U_m
    - step_minus Y_{m-1} (no step_minus term for m = 1); the last column of
    step_minus Y enters no block.  All four are linear in (U, Y), so the
    products of a combination of trajectories are the same combination of
    their products.
    """
    out = np.empty((4,) + U.shape)
    out[0] = sys.mass @ U
    out[1] = sys.step_plus @ Y
    out[2] = sys.step_minus @ Y
    np.subtract(out[1], sys.grid.tau * out[0], out=out[3])
    out[3, :, 1:] -= out[2, :, :-1]
    return out


def constraint_adjoint(sys: DiscreteSystem, lam: np.ndarray) -> np.ndarray:
    """The transpose of the constraint map applied to lam: shape (2, ndof, M).

    Slab 0 is the control part -tau A lam_m, slab 1 the state part
    step_plus lam_m - step_minus lam_{m+1} (no step_minus term for m = M).
    The operators are symmetric, so this is the adjoint of
    ``constraint_products``' slab Cz: <Cz, lam> = <U, out[0]> + <Y, out[1]>.
    """
    out = np.empty((2,) + lam.shape)
    out[0] = -sys.grid.tau * (sys.mass @ lam)
    out[1] = sys.step_plus @ lam
    out[1, :, :-1] -= sys.step_minus @ lam[:, 1:]
    return out


def constraint_linear_map(sys: DiscreteSystem, Y: np.ndarray, U: np.ndarray) -> np.ndarray:
    """The homogeneous constraint map: block column sums without the rhs."""
    return constraint_products(sys, Y, U)[3]


def constraint_residual(sys: DiscreteSystem, Y: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Block residual of the Crank-Nicolson constraint, shape (ndof, M)."""
    Y = _check_trajectory(sys, Y, "Y")
    U = _check_trajectory(sys, U, "U")
    return constraint_linear_map(sys, Y, U) - sys.rhs


def objective_vec(sys: DiscreteSystem, Y: np.ndarray, U: np.ndarray) -> float:
    """Discrete objective in vector form (constant desired-state term dropped)."""
    Y = _check_trajectory(sys, Y, "Y")
    U = _check_trajectory(sys, U, "U")
    tau = sys.grid.tau
    AY = sys.mass @ Y
    state_terms = np.einsum("im,im->m", Y, AY) - 2.0 * np.einsum("im,im->m", sys.desired_loads, Y)
    value = (tau / 2.0) * (sys.kappa * state_terms).sum()
    AU = sys.mass @ U
    value += (sys.alpha * tau / 2.0) * np.einsum("im,im->", U, AU)
    return float(value)


def objective_quadrature(sys: DiscreteSystem, Y: np.ndarray, U: np.ndarray) -> float:
    """Discrete objective in quadrature form, including the t = 0 state term.

    State misfits are L2(Omega) norms against the continuous desired state,
    evaluated with the element quadrature rule; the state trajectory at
    t = 0 is the basis expansion of the initial nodal vector.
    """
    Y = _check_trajectory(sys, Y, "Y")
    U = _check_trajectory(sys, U, "U")
    tau = sys.grid.tau
    y_d = sys.desired_state
    times = sys.grid.times

    def misfit_sq(coeffs, t):
        return l2_error(sys.space, coeffs, lambda x1, x2: y_d(x1, x2, t)) ** 2

    total = 0.5 * tau * misfit_sq(sys.y0_nodal, times[0])
    for m in range(1, sys.grid.M + 1):
        w = 0.5 if m == sys.grid.M else 1.0
        total += w * tau * misfit_sq(Y[:, m - 1], times[m])
    total *= 0.5

    for m in range(sys.grid.M):
        total += (sys.alpha * tau / 2.0) * l2_error(sys.space, U[:, m], lambda x1, x2: 0.0) ** 2
    return float(total)


def objective_constant_terms(sys: DiscreteSystem) -> float:
    """Constant terms dropped by the vector objective form.

    Adding these to objective_vec reproduces objective_quadrature.
    """
    tau = sys.grid.tau
    y_d = sys.desired_state
    times = sys.grid.times
    total = (tau / 4.0) * l2_error(
        sys.space, sys.y0_nodal, lambda x1, x2: y_d(x1, x2, times[0])
    ) ** 2
    for m in range(1, sys.grid.M + 1):
        w = 0.25 if m == sys.grid.M else 0.5
        t = times[m]
        total += w * tau * l2_norm_of(sys.space, lambda x1, x2: y_d(x1, x2, t)) ** 2
    return float(total)
