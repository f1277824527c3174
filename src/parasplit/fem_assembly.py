"""Linear-element assembly on triangles: mass/stiffness matrices, loads, norms.

Quadrature for load vectors and L2 errors is the 3-point edge-midpoint rule
(degree 2, exact for products of linear functions).  Element coordinates,
areas and quadrature points come from the mesh's ``geometry``, computed once
per mesh, so a load vector or an error norm costs one function evaluation
and one scatter or sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import TriMesh, _check_bc, node_classification


@dataclass(frozen=True)
class FemSpace:
    """Piecewise-linear finite element space with a fixed DOF ordering.

    ``dof_nodes[k]`` is the mesh node carrying DOF k.
    """

    mesh: TriMesh
    bc: str
    dof_nodes: np.ndarray

    @property
    def ndof(self) -> int:
        return self.dof_nodes.shape[0]


def make_space(mesh: TriMesh, bc: str) -> FemSpace:
    _check_bc(bc)
    return FemSpace(mesh=mesh, bc=bc, dof_nodes=node_classification(mesh, bc))


def _p1_gradients(xy: np.ndarray, area: np.ndarray) -> np.ndarray:
    """Constant gradients of the three local basis functions, (ne, 3, 2)."""
    grads = np.empty((xy.shape[0], 3, 2))
    for k in range(3):
        a, b = xy[:, (k + 1) % 3], xy[:, (k + 2) % 3]
        # rotate the opposite edge by 90 degrees
        grads[:, k, 0] = a[:, 1] - b[:, 1]
        grads[:, k, 1] = b[:, 0] - a[:, 0]
    grads /= (2.0 * area)[:, None, None]
    return grads


def _restrict(global_mat: sp.csr_matrix, space: FemSpace) -> sp.csr_matrix:
    """The DOF rows and columns in canonical CSR form.  Neumann DOFs are not
    in node order, so the column indices must be sorted again."""
    idx = space.dof_nodes
    mat = global_mat[np.ix_(idx, idx)]
    mat.sort_indices()
    return mat


def _assemble_global(mesh: TriMesh, local: np.ndarray) -> sp.csr_matrix:
    ne = mesh.num_elements
    rows = np.repeat(mesh.elements, 3, axis=1).ravel()
    cols = np.tile(mesh.elements, (1, 3)).ravel()
    mat = sp.coo_matrix(
        (local.reshape(ne, 9).ravel(), (rows, cols)),
        shape=(mesh.num_nodes, mesh.num_nodes),
    )
    return mat.tocsr()


def assemble_mass(space: FemSpace) -> sp.csr_matrix:
    """Gram matrix of the nodal basis under the L2 inner product."""
    area = space.mesh.geometry.areas
    base = (np.ones((3, 3)) + np.eye(3)) / 12.0
    local = area[:, None, None] * base[None, :, :]
    return _restrict(_assemble_global(space.mesh, local), space)


def assemble_stiffness(space: FemSpace) -> sp.csr_matrix:
    """Gram matrix of the nodal basis gradients (H1 seminorm)."""
    geo = space.mesh.geometry
    area = geo.areas
    grads = _p1_gradients(geo.xy, area)
    local = np.einsum("eid,ejd,e->eij", grads, grads, area)
    return _restrict(_assemble_global(space.mesh, local), space)


def _eval_checked(g, points: np.ndarray) -> np.ndarray:
    vals = np.asarray(g(points[..., 0], points[..., 1]), dtype=float)
    vals = np.broadcast_to(vals, points.shape[:-1])
    if not np.all(np.isfinite(vals)):
        bad = np.unravel_index(np.argmin(np.isfinite(vals)), vals.shape)
        raise ValueError(f"non-finite function value at point {points[bad]}")
    return vals


def load_vector(space: FemSpace, g) -> np.ndarray:
    """DOF vector with entries integral of g * basis_k.

    ``g`` is called as g(x1, x2) on arrays of coordinates.
    """
    mesh = space.mesh
    geo = mesh.geometry
    area = geo.areas
    gvals = _eval_checked(g, geo.midpoints)
    # basis k is 1/2 at the two adjacent midpoints, 0 at the opposite one
    contrib = (area / 3.0)[:, None] * 0.5 * (gvals.sum(axis=1, keepdims=True) - gvals)
    out = np.zeros(mesh.num_nodes)
    np.add.at(out, mesh.elements.ravel(), contrib.ravel())
    return out[space.dof_nodes]


def interpolate_nodal(space: FemSpace, g) -> np.ndarray:
    """Nodal interpolant: g evaluated at the DOF nodes."""
    return _eval_checked(g, space.mesh.nodes[space.dof_nodes]).copy()


def _nodal_values(space: FemSpace, coeffs: np.ndarray) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape[0] != space.ndof:
        raise ValueError(f"coefficient length {coeffs.shape[0]} != ndof {space.ndof}")
    full = np.zeros(space.mesh.num_nodes)
    full[space.dof_nodes] = coeffs
    return full


def l2_error(space: FemSpace, coeffs: np.ndarray, g) -> float:
    """L2(Omega) norm of (basis expansion of coeffs) - g.

    In Dirichlet mode the expansion is zero on the boundary nodes.
    """
    mesh = space.mesh
    geo = mesh.geometry
    area = geo.areas
    gvals = _eval_checked(g, geo.midpoints)
    nodal = _nodal_values(space, coeffs)[mesh.elements]
    # u_h at the midpoint opposite vertex k is the mean of the other two values
    uh = 0.5 * (nodal.sum(axis=1, keepdims=True) - nodal)
    sq = ((uh - gvals) ** 2 * (area / 3.0)[:, None]).sum()
    return float(np.sqrt(sq))


def l2_norm_of(space: FemSpace, g) -> float:
    """Quadrature L2(Omega) norm of a plain function."""
    return l2_error(space, np.zeros(space.ndof), g)
