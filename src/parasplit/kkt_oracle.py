"""Exact reference solver for the saddle-point system of the discrete QP.

Provides ground-truth trajectories and multipliers for convergence and
contraction tests of the iterative solver.  The solve is modal (fast
diagonalisation): generalised eigendecompositions of the stiffness-mass
pencil turn the reduced state system into independent scalar tridiagonal
systems in time, one per mode.  The pencil is first split by the mesh's
mirror symmetries (``mirror_basis``): on the uniform meshes the point
reflection through the centre and the swap of the coordinates map the
operators onto themselves, and the symmetry-adapted basis splits the pencil
into four diagonal blocks of about ndof / 4 each, one dense eigenproblem
per block.  Memory is the dense blocks and their eigenvectors, about a
quarter of one dense ndof x ndof matrix, so the number of spatial degrees
of freedom is still capped.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .discretization import DiscreteSystem, constraint_adjoint, constraint_residual

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


# Assembled entries of mirror-image elements agree to round-off, not bit for
# bit, so a mirror is kept when it maps each operator onto itself within this
# tolerance relative to the operator's largest entry.
MIRROR_RTOL = 1e-12


@dataclass(frozen=True)
class MirrorBasis:
    """Orthonormal symmetry-adapted basis of the DOF space.

    The group is generated by the kept mirrors, commuting involutions on the
    DOFs; element g applies mirror j when bit j of g is set.  ``orbits[g, o]``
    is the DOF that g maps orbit o's representative to.  Row c of
    ``characters`` is a character of the group (+-1 on each element), one per
    non-empty block.  An orbit carries one basis vector of character c,
    sum_g chi_c(g) e_{orbits[g, o]} normalised, exactly when chi_c is 1 on
    the orbit's stabiliser (``present[c, o]``); its entries are
    +-``scale[o]`` = 1/sqrt(orbit size).  Block c holds these vectors in
    orbit order, and the blocks together are the columns of an orthogonal Q.
    With no mirror kept, Q is the identity and there is one block.
    """

    orbits: np.ndarray
    characters: np.ndarray
    present: np.ndarray
    scale: np.ndarray

    @property
    def sizes(self) -> list[int]:
        return [int(k) for k in self.present.sum(axis=1)]

    def project(self, X: np.ndarray) -> list[np.ndarray]:
        """Q_c^T X for each block c, X of shape (ndof, k)."""
        group = self.orbits.shape[0]
        H = np.tensordot(self.characters, X[self.orbits], axes=1)
        # each DOF of an orbit recurs |stabiliser| = group * scale**2 times
        H /= (group * self.scale)[:, None]
        return [h[keep] for h, keep in zip(H, self.present)]

    def expand(self, blocks: list[np.ndarray]) -> np.ndarray:
        """sum_c Q_c x_c, the inverse of ``project``."""
        coeffs = np.zeros(self.present.shape + blocks[0].shape[1:])
        for c, x in enumerate(blocks):
            coeffs[c, self.present[c]] = x
        values = np.tensordot(self.characters.T, coeffs, axes=1)
        values *= self.scale[:, None]
        X = np.empty((self.orbits.max() + 1,) + values.shape[2:])
        X[self.orbits] = values  # the repeats of a DOF carry equal values
        return X

    @cached_property
    def _dof_phases(self) -> tuple[np.ndarray, np.ndarray]:
        """Each DOF's orbit, and its entry in each block's vector of that orbit
        (0 where the block has none)."""
        group, n_orb = self.orbits.shape
        ndof = self.orbits.max() + 1
        orbit = np.empty(ndof, dtype=np.intp)
        element = np.empty(ndof, dtype=np.intp)
        orbit[self.orbits] = np.arange(n_orb)
        element[self.orbits] = np.arange(group)[:, None]  # any g reaching the DOF
        return orbit, self.characters[:, element] * (self.scale * self.present)[:, orbit]

    def blocks(self, mat: sp.csr_matrix) -> Iterator[np.ndarray]:
        """The dense diagonal blocks Q_c^T mat Q_c, one at a time; the rest of
        Q^T mat Q is round-off for an operator the kept mirrors map onto
        itself."""
        orbit, phase = self._dof_phases
        n_orb = self.orbits.shape[1]
        rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
        cols = mat.indices
        pairs = orbit[rows] * n_orb + orbit[cols]
        for ph, keep in zip(phase, self.present):
            full = np.bincount(pairs, ph[rows] * ph[cols] * mat.data, minlength=n_orb * n_orb)
            yield full.reshape(n_orb, n_orb)[np.ix_(keep, keep)]


def _matching(X: np.ndarray, image: np.ndarray) -> np.ndarray | None:
    """The permutation p with X[p] = image to round-off, or None.  Points
    that round apart at the ninth decimal only cost the mirror, never the
    result: the match is checked on the unrounded coordinates."""
    p = np.empty(len(X), dtype=np.intp)
    p[np.lexsort(np.round(image, 9).T)] = np.lexsort(np.round(X, 9).T)
    return p if np.abs(X[p] - image).max() <= 1e-12 else None


def _maps_onto_itself(mat: sp.csr_matrix, p: np.ndarray) -> bool:
    """Whether mat[p][:, p] equals mat to MIRROR_RTOL."""
    n = mat.shape[0]
    rows = np.repeat(np.arange(n), np.diff(mat.indptr))
    keys = rows * n + mat.indices
    order = np.argsort(keys)
    image = p[rows] * n + p[mat.indices]
    at = order[np.searchsorted(keys, image, sorter=order).clip(max=len(keys) - 1)]
    return bool(
        np.array_equal(keys[at], image)
        and np.abs(mat.data[at] - mat.data).max() <= MIRROR_RTOL * np.abs(mat.data).max()
    )


def mirror_basis(sys: DiscreteSystem) -> MirrorBasis:
    """The symmetry-adapted basis of the mirrors that map the pencil onto itself.

    The candidates are sigma_1 (x1, x2) -> (1 - x1, 1 - x2) and sigma_2
    (x1, x2) -> (x2, x1).  On a mesh whose cells all split along the same
    diagonal both map the mesh, and with it the DOF set, stiffness and mass,
    onto itself.  A mirror is kept when the DOF nodes' images are DOF nodes
    and both operators are invariant under the DOF permutation.  The orbits
    and characters come from index arithmetic on the kept permutations.
    """
    X = sys.space.mesh.nodes[sys.space.dof_nodes]
    ndof = len(X)
    group = [np.arange(ndof)]
    for image in (1.0 - X, X[:, ::-1]):
        p = _matching(X, image)
        if p is not None and _maps_onto_itself(sys.stiffness, p) and _maps_onto_itself(sys.mass, p):
            group += [p[g] for g in group]
    g = np.arange(len(group))
    characters = (-1.0) ** np.bitwise_count(g[:, None] & g)  # chi_c(g), Walsh order
    table = np.stack(group)
    reps = np.flatnonzero(table.min(axis=0) == np.arange(ndof))
    orbits = table[:, reps]
    fixes = orbits == reps  # g fixes the orbit's representative
    present = ~((characters[:, :, None] < 0) & fixes).any(axis=1)
    nonempty = present.any(axis=1)
    return MirrorBasis(
        orbits=orbits,
        characters=characters[nonempty],
        present=present[nonempty],
        scale=np.sqrt(fixes.sum(axis=0) / len(group)),
    )


def _solve_modal(sys: DiscreteSystem):
    """The modal solve with the pencil split by ``mirror_basis``.

    The eigenvectors are block diagonal in the mirror basis, V = Q diag(W_c),
    one generalised eigenproblem (Q_c^T B Q_c, Q_c^T A Q_c) per block, so
    neither V nor the dense pencil is formed, and a block's pencil is freed
    once its eigenproblem is solved.
    """
    basis = mirror_basis(sys)
    eig = [scipy.linalg.eigh(k, m) for k, m in zip(basis.blocks(sys.stiffness), basis.blocks(sys.mass))]
    splits = np.cumsum(basis.sizes)[:-1]

    def to_modes(X):
        return np.concatenate([W.T @ x for (_, W), x in zip(eig, basis.project(X))])

    def from_modes(x):
        return basis.expand([W @ part for (_, W), part in zip(eig, np.split(x, splits))])

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
    and equal ``sys.alpha``, the weight the system was built with.  The
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
