"""Crank-Nicolson block discretization of the tracking-type control problem.

Time step m (m = 1..M) advances the state from t_{m-1} to t_m; source and
control are evaluated at the midpoint t_{m-1/2}.  Trajectories are stored as
(ndof, M) arrays, one column per time slice.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import mirrors
from .fem_assembly import (
    FemSpace,
    assemble_mass,
    assemble_stiffness,
    interpolate_nodal,
    l2_error,
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
    the M load vectors of the desired state, and ``tracking_loads`` those
    loads weighted by tau * kappa_m: the linear term of the objective.  The
    operators are CSR matrices.  The Crank-Nicolson step matrices
    ``step_plus`` and ``step_minus``, their stack ``step_stack``,
    ``tracking_loads`` and ``mirror_basis`` are derived from
    the fields on first use, so ``dataclasses.replace`` makes a copy that
    derives its own.

    ``basis`` is None for a system in node coordinates, as ``build_system``
    makes it.  ``in_mirror_basis`` gives the same system in the stacked
    block coordinates of its mirror basis, with that basis here.
    """

    space: FemSpace
    grid: TimeGrid
    mass: sp.csr_matrix
    stiffness: sp.csr_matrix
    rhs: np.ndarray
    desired_loads: np.ndarray
    y0_nodal: np.ndarray
    alpha: float
    desired_state: object  # callable (x1, x2, t) -> values
    basis: mirrors.MirrorBasis | None = None  # the coordinates of the operators and vectors

    @property
    def ndof(self) -> int:
        return self.space.ndof

    @property
    def block_sizes(self) -> list[int]:
        """The contiguous diagonal blocks of the operators: the basis's
        blocks, or in node coordinates one block of every unknown."""
        return [self.ndof] if self.basis is None else self.basis.sizes

    @property
    def kappa(self) -> np.ndarray:
        """Trapezoidal state weights: 1 for m < M, 1/2 for m = M."""
        k = np.ones(self.grid.M)
        k[-1] = 0.5
        return k

    @cached_property
    def step_plus(self) -> sp.csr_matrix:
        """The Crank-Nicolson step matrix of the new state Y_m."""
        return self.mass + (self.grid.tau / 2.0) * self.stiffness

    @cached_property
    def step_minus(self) -> sp.csr_matrix:
        """The Crank-Nicolson step matrix of the previous state Y_{m-1}."""
        return self.mass - (self.grid.tau / 2.0) * self.stiffness

    @cached_property
    def step_stack(self) -> sp.csr_matrix:
        """[step_plus; step_minus], shape (2 ndof, ndof): one sparse product
        of it applies both step matrices to the same trajectory, the two
        results stacked by rows.  Each row holds the entries of its step
        matrix's row in their order, so the product equals the two separate
        ones bit for bit."""
        return sp.vstack([self.step_plus, self.step_minus], format="csr")

    @cached_property
    def tracking_loads(self) -> np.ndarray:
        """The trapezoid-weighted desired loads (tau * kappa_m) d_m, formed on
        first use; ``dataclasses.replace`` makes a copy that forms its own."""
        return (self.grid.tau * self.kappa) * self.desired_loads

    @cached_property
    def mirror_basis(self) -> mirrors.MirrorBasis:
        """The symmetry-adapted basis of the mirrors that map stiffness and
        mass onto themselves (``mirrors.mirror_basis``), formed on first use
        and shared by the oracle and the splitting solver
        (``in_mirror_basis``)."""
        return mirrors.mirror_basis(self)

    def in_mirror_basis(self) -> DiscreteSystem:
        """This system in the stacked block coordinates of its mirror basis
        Q (``mirrors``).  Mass and stiffness become block-diagonal CSR
        matrices, their blocks Q_c^T A Q_c in row order, from which the
        step matrices are derived.  ``rhs`` and ``desired_loads`` are
        projected (Q^T).  Q is orthogonal, so every Euclidean inner product
        is kept.  ``space``, ``y0_nodal`` and ``desired_state`` stay in node
        terms.  A system without a mirror gets the one-block basis, Q = I,
        whose change of basis copies every entry unchanged.  A system
        already in its basis is rejected."""
        if self.basis is not None:
            raise ValueError("in_mirror_basis takes a system in node coordinates, not one in its basis")
        basis = self.mirror_basis
        return replace(
            self,
            mass=basis.block_diagonal(self.mass),
            stiffness=basis.block_diagonal(self.stiffness),
            rhs=basis.project_stacked(self.rhs),
            desired_loads=basis.project_stacked(self.desired_loads),
            basis=basis,
        )


def build_system(problem, space: FemSpace, grid: TimeGrid) -> DiscreteSystem:
    """Assemble the full Crank-Nicolson block system for a problem instance.

    ``problem`` provides callables f(x1, x2, t), y_d(x1, x2, t), y0(x1, x2)
    and a boundary mode that must match the space's.  f and y_d take an
    array of time levels (``load_vector``): f is evaluated once over the M
    midpoints t_{m-1/2} and y_d once over the M nodes t_1..t_M.
    """
    if problem.bc != space.bc:
        raise ValueError(f"problem boundary mode {problem.bc!r} does not match space {space.bc!r}")
    if space.ndof == 0:
        raise ValueError(f"the {space.bc} space has no unknowns: every mesh node is a boundary node")
    y0_nodal = interpolate_nodal(space, problem.y0)
    rhs = load_vector(space, problem.f, grid.midpoints)
    rhs *= grid.tau
    desired = load_vector(space, problem.y_d, grid.times[1:])

    sys = DiscreteSystem(
        space=space,
        grid=grid,
        mass=assemble_mass(space),
        stiffness=assemble_stiffness(space),
        rhs=rhs,
        desired_loads=desired,
        y0_nodal=y0_nodal,
        alpha=problem.alpha,
        desired_state=problem.y_d,
    )
    rhs[:, 0] += sys.step_minus @ y0_nodal  # rhs is the system's array
    return sys


def _check_trajectory(sys: DiscreteSystem, arr: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if arr.shape != (sys.ndof, sys.grid.M):
        raise ValueError(f"{name} must have shape {(sys.ndof, sys.grid.M)}, got {arr.shape}")
    return arr


def constraint_products(sys: DiscreteSystem, Y: np.ndarray, U: np.ndarray) -> np.ndarray:
    """The constraint map and its sparse products by block row, stacked:
    shape (4, ndof, M).

    Block m of the homogeneous constraint map Cz is step_plus Y_m
    - tau A U_m - step_minus Y_{m-1}, and the slabs are its terms in the
    block row they enter: tau A U (the control term, which the row
    subtracts), step_plus Y, step_minus Y shifted one step (column m holds
    step_minus Y_{m-1}; column 0 is zero, as block 1 has no step_minus
    term) and Cz.  All four are linear in (U, Y), so the products of a
    combination of trajectories, such as the difference of two, are the
    same combination of their products.  Slabs 1-2 come from
    ``write_products``.
    """
    out = np.zeros((4,) + U.shape)
    np.multiply(sys.grid.tau, sys.mass @ U, out=out[0])
    write_products(sys.step_stack, Y, out)
    return fill_constraint_map(out)


def one_step_on(behind: np.ndarray, *ahead: np.ndarray) -> tuple[np.ndarray, ...]:
    """Flat views pairing step m of ``behind`` with step m + 1 of each array
    in ``ahead``: C-contiguous arrays of one shape (n, M), one column per
    time step.

    The views are the runs behind.ravel()[:-1] and x.ravel()[1:], so one
    ufunc call runs over contiguous memory.  The last column of each row of
    ``behind`` pairs with column 0 of the next row of ``ahead``; the caller
    re-zeroes the one of the two it wrote.  An array that is not
    C-contiguous, whose flat view would be a copy, raises ValueError.
    """
    return (behind.reshape(-1, copy=False)[:-1], *(x.reshape(-1, copy=False)[1:] for x in ahead))


def write_products(step_stack: sp.csr_matrix, Y: np.ndarray, products: np.ndarray) -> None:
    """Write the state slabs 1-2 of a ``constraint_products`` array from
    the trajectory Y, both from one sparse product of ``step_stack`` =
    [step_plus; step_minus] (``DiscreteSystem.step_stack``): step_plus Y,
    and step_minus Y one column on, into the block row it enters
    (``one_step_on``).  The last step's step_minus product enters no block
    row and is dropped; column 0 of slab 2 is zeroed.  Each slab of
    ``products`` is C-contiguous.  ``step_stack`` may also be the diagonal
    block of a group of a block-diagonal system's rows
    (``splitting_solver.Group``), with Y and ``products`` those rows.
    """
    n = Y.shape[0]
    stacked = step_stack @ Y
    products[1] = stacked[:n]
    MY, ahead = one_step_on(stacked[n:], products[2])
    ahead[...] = MY
    products[2][:, 0] = 0.0


def fill_constraint_map(products: np.ndarray) -> np.ndarray:
    """Write slab 3 (Cz) of a ``constraint_products`` array from its slabs
    0-2: Cz = step_plus Y - slab 0 - slab 2, elementwise, since slab 0
    holds tau A U and slab 2 each block row's step_minus term.
    ``products`` may be any block of rows and columns of a larger array,
    and the products of any trajectory, such as the difference of two
    iterates.  Works in place.  Returns ``products``.
    """
    Cz = products[3]
    np.subtract(products[1], products[0], out=Cz)
    np.subtract(Cz, products[2], out=Cz)
    return products


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
    value = (tau / 2.0) * np.einsum("m,im,im->", sys.kappa, Y, AY)
    value -= np.einsum("im,im->", sys.tracking_loads, Y)
    AU = sys.mass @ U
    value += (sys.alpha * tau / 2.0) * np.einsum("im,im->", U, AU)
    return float(value)


def objective_quadrature(sys: DiscreteSystem, Y: np.ndarray, U: np.ndarray) -> float:
    """Discrete objective in quadrature form, including the t = 0 state term.

    State misfits are L2(Omega) norms against the continuous desired state,
    evaluated with the element quadrature rule; the state trajectory at
    t = 0 is the basis expansion of the initial nodal vector.  The M + 1
    misfits and the M control norms are one batched ``l2_error`` call each.
    """
    Y = _check_trajectory(sys, Y, "Y")
    U = _check_trajectory(sys, U, "U")
    tau = sys.grid.tau
    states = np.column_stack([sys.y0_nodal, Y])
    misfits = l2_error(sys.space, states, sys.desired_state, sys.grid.times) ** 2
    trapezoid = tau * np.concatenate([[0.5], sys.kappa])
    controls = l2_error(sys.space, U, lambda x1, x2, t: 0.0, sys.grid.midpoints) ** 2
    return float(0.5 * (trapezoid @ misfits) + (sys.alpha * tau / 2.0) * controls.sum())


def objective_constant_terms(sys: DiscreteSystem) -> float:
    """Constant terms dropped by the vector objective form.

    Adding these to objective_vec reproduces objective_quadrature.  Since
    objective_vec vanishes at the zero trajectory, they are the quadrature
    objective there: the t = 0 misfit and tau-weighted ||y_d(., t_m)||^2.
    """
    Z = np.zeros((sys.ndof, sys.grid.M))
    return objective_quadrature(sys, Z, Z)
