"""Linear-element assembly on triangles: mass/stiffness matrices, loads, norms.

Quadrature for load vectors and L2 errors is the 3-point edge-midpoint rule
(degree 2, exact for products of linear functions).  Element coordinates,
areas and quadrature points come from the mesh's ``geometry``, computed once
per mesh.  A load vector or an error norm takes an optional trailing axis of
time levels: the function is then evaluated once per block of at most
``TIME_BLOCK`` levels, so all of a refinement level's loads, or all of its
errors, cost one function evaluation and one sparse product per block, with
temporaries that do not grow with the number of time levels.  Every
node-to-DOF conversion goes through the space's ``element_dofs`` table: the
matrices are assembled on the unknowns directly, and loads are scattered
and vertex values gathered by its 0/1 matrix ``vertex_gather``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .mesh import TriMesh, node_classification

# Time levels per function evaluation in load_vector and l2_error: their
# temporaries hold 3 ne x TIME_BLOCK values, whatever the number of levels.
TIME_BLOCK = 16


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

    @cached_property
    def element_dofs(self) -> np.ndarray:
        """The DOF of each element vertex, (ne, 3), read-only; ``ndof`` where
        the vertex carries none (a Dirichlet boundary node).  Formed on first
        use."""
        dof_of_node = np.full(self.mesh.num_nodes, self.ndof, dtype=np.int64)
        dof_of_node[self.dof_nodes] = np.arange(self.ndof)
        table = dof_of_node[self.mesh.elements]
        table.flags.writeable = False
        return table

    @cached_property
    def vertex_gather(self) -> sp.csr_matrix:
        """The (3 ne, ndof) 0/1 matrix that maps DOF values onto the element
        vertices in ``element_dofs`` order, 0 at a vertex without a DOF.  Its
        transpose adds vertex entries into their DOFs, each DOF's in vertex
        order, as ``np.bincount`` would.  Formed on first use."""
        dofs = self.element_dofs.ravel()
        has_dof = dofs < self.ndof
        indptr = np.concatenate([[0], np.cumsum(has_dof)])
        return sp.csr_matrix((np.ones(indptr[-1]), dofs[has_dof], indptr), shape=(dofs.size, self.ndof))


def make_space(mesh: TriMesh, bc: str) -> FemSpace:
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


def _assemble(space: FemSpace, local: np.ndarray) -> sp.csr_matrix:
    """The DOF matrix, in canonical CSR form, from the element matrices
    ``local`` (ne, 3, 3): the entries whose row and column are both DOFs."""
    dofs, n = space.element_dofs, space.ndof
    rows = np.repeat(dofs, 3, axis=1).ravel()
    cols = np.tile(dofs, (1, 3)).ravel()
    keep = (rows < n) & (cols < n)
    return sp.coo_matrix((local.ravel()[keep], (rows[keep], cols[keep])), shape=(n, n)).tocsr()


def assemble_mass(space: FemSpace) -> sp.csr_matrix:
    """Gram matrix of the nodal basis under the L2 inner product."""
    area = space.mesh.geometry.areas
    base = (np.ones((3, 3)) + np.eye(3)) / 12.0
    local = area[:, None, None] * base[None, :, :]
    return _assemble(space, local)


def assemble_stiffness(space: FemSpace) -> sp.csr_matrix:
    """Gram matrix of the nodal basis gradients (H1 seminorm)."""
    geo = space.mesh.geometry
    area = geo.areas
    grads = _p1_gradients(geo.xy, area)
    local = np.einsum("eid,ejd,e->eij", grads, grads, area)
    return _assemble(space, local)


def _eval_checked(g, points: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """g at ``points`` (..., 2): g(x1, x2), or given a 1-D array ``t`` of time
    levels g(x1, x2, t) with the coordinates on a trailing axis, values
    (..., len(t)).  A non-finite value raises ValueError naming its point
    (and time)."""
    x1, x2 = points[..., 0], points[..., 1]
    if t is None:
        vals, shape = g(x1, x2), x1.shape
    else:
        vals, shape = g(x1[..., None], x2[..., None], t), x1.shape + t.shape
    vals = np.broadcast_to(np.asarray(vals, dtype=float), shape)
    if not np.all(np.isfinite(vals)):
        bad = np.unravel_index(np.argmin(np.isfinite(vals)), shape)
        at = "" if t is None else f", time {t[bad[-1]]}"
        raise ValueError(f"non-finite function value at point {points[bad[: x1.ndim]]}{at}")
    return vals


def _time_blocks(g, points: np.ndarray, t):
    """(columns, values) per block of at most ``TIME_BLOCK`` time levels: g
    at the element ``points`` (ne, 3, 2) as (ne, 3, block) values.  Without
    ``t``, g(x1, x2) is one block of one level."""
    if t is None:
        yield slice(0, 1), _eval_checked(g, points)[..., None]
        return
    for lo in range(0, len(t), TIME_BLOCK):
        cols = slice(lo, lo + TIME_BLOCK)
        yield cols, _eval_checked(g, points, t[cols])


def _time_levels(t) -> np.ndarray | None:
    if t is None:
        return None
    t = np.asarray(t, dtype=float)
    if t.ndim != 1:
        raise ValueError(f"time levels must be a 1-D array, got shape {t.shape}")
    return t


def _other_two(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per element (axis 0) and vertex k (axis 1), the sum of the entries of
    the two other vertices; ``out`` may be ``v``."""
    return np.subtract((v[:, 0] + v[:, 1] + v[:, 2])[:, None], v, out=out)


def load_vector(space: FemSpace, g, t=None) -> np.ndarray:
    """DOF vector with entries integral of g * basis_k.

    ``g`` is called as g(x1, x2) on arrays of coordinates.  Given a 1-D array
    ``t`` of T time levels, it is called as g(x1, x2, t) with the coordinates
    on a trailing axis of length one, once per block of at most
    ``TIME_BLOCK`` levels, and the result is (ndof, T): one load vector per
    time level.
    """
    t = _time_levels(t)
    geo = space.mesh.geometry
    weight = (geo.areas / 3.0 * 0.5)[:, None, None]
    scatter = space.vertex_gather.T
    out = np.empty((space.ndof, 1 if t is None else len(t)))
    for cols, gvals in _time_blocks(g, geo.midpoints, t):
        # basis k is 1/2 at the two adjacent midpoints, 0 at the opposite one
        contrib = _other_two(gvals)
        contrib *= weight
        out[:, cols] = scatter @ contrib.reshape(-1, contrib.shape[-1])
    return out[:, 0] if t is None else out


def interpolate_nodal(space: FemSpace, g) -> np.ndarray:
    """Nodal interpolant: g evaluated at the DOF nodes."""
    return _eval_checked(g, space.mesh.nodes[space.dof_nodes]).copy()


def l2_error(space: FemSpace, coeffs: np.ndarray, g, t=None) -> float | np.ndarray:
    """L2(Omega) norm of (basis expansion of coeffs) - g.

    In Dirichlet mode the expansion is zero on the boundary nodes.  With a
    1-D array ``t`` of T time levels, ``coeffs`` is (ndof, T), g is called
    as in ``load_vector`` and the result is the T norms, one per level;
    without it, ``coeffs`` is (ndof,) and the result one float.
    """
    t = _time_levels(t)
    coeffs = np.asarray(coeffs, dtype=float)
    want = (space.ndof,) if t is None else (space.ndof, len(t))
    if coeffs.shape != want:
        raise ValueError(f"coefficient shape {coeffs.shape} != {'(ndof,)' if t is None else '(ndof, T)'} = {want}")
    coeffs = coeffs.reshape(space.ndof, -1)
    geo = space.mesh.geometry
    weight = np.repeat(geo.areas / 3.0, 3)
    sq = np.empty(coeffs.shape[1])
    for cols, gvals in _time_blocks(g, geo.midpoints, t):
        nodal = (space.vertex_gather @ coeffs[:, cols]).reshape(gvals.shape)
        # u_h at the midpoint opposite vertex k is the mean of the other two values
        diff = _other_two(nodal, out=nodal)
        diff *= 0.5
        diff -= gvals
        diff *= diff
        sq[cols] = weight @ diff.reshape(weight.size, -1)
    norms = np.sqrt(sq)
    return float(norms[0]) if t is None else norms
