"""Structured triangulations of the unit square and their element geometry."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

DIRICHLET = "dirichlet"
NEUMANN = "neumann"

_BOUNDARY_TOL = 1e-14


def _check_bc(bc: str) -> str:
    if bc not in (DIRICHLET, NEUMANN):
        raise ValueError(f"unknown boundary-condition mode: {bc!r}")
    return bc


@dataclass(frozen=True)
class TriMesh:
    """Conforming triangulation of [0,1]^2 with boundary/interior node sets.

    Nodes are 2D coordinates, elements are counterclockwise vertex-index
    triples.  ``h`` is the maximum element diameter.  ``geometry`` (vertex
    coordinates, signed areas, edge-midpoint quadrature points) is computed
    on first use and kept for the mesh's lifetime.
    """

    nodes: np.ndarray
    elements: np.ndarray
    boundary_nodes: np.ndarray
    interior_nodes: np.ndarray
    h: float

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.ascontiguousarray(self.nodes, dtype=float))
        object.__setattr__(self, "elements", np.ascontiguousarray(self.elements, dtype=np.int64))

    @property
    def num_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def num_elements(self) -> int:
        return self.elements.shape[0]

    @cached_property
    def geometry(self) -> ElementGeometry:
        """The element geometry, computed on first use."""
        xy = self.nodes[self.elements]
        mids = np.empty_like(xy)
        for k in range(3):
            mids[:, k] = 0.5 * (xy[:, (k + 1) % 3] + xy[:, (k + 2) % 3])
        return ElementGeometry(xy=xy, areas=triangle_areas(xy), midpoints=mids)


@dataclass(frozen=True)
class ElementGeometry:
    """Per-element geometry of a mesh, read-only.

    ``xy`` holds the vertex coordinates (ne, 3, 2), ``areas`` the signed
    areas (ne,), and ``midpoints`` the quadrature points (ne, 3, 2):
    ``midpoints[:, k]`` is the midpoint of the edge opposite vertex k.
    """

    xy: np.ndarray
    areas: np.ndarray
    midpoints: np.ndarray

    def __post_init__(self):
        for arr in (self.xy, self.areas, self.midpoints):
            arr.flags.writeable = False


def triangle_areas(xy: np.ndarray) -> np.ndarray:
    """Signed areas of triangles from their vertex coordinates, shape (ne, 3, 2)."""
    e1 = xy[:, 1] - xy[:, 0]
    e2 = xy[:, 2] - xy[:, 0]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def uniform_unit_square(n: int) -> TriMesh:
    """Criss-cross mesh: n x n grid cells, each split along the same diagonal.

    Nodes are ordered lexicographically by (x2, x1) so runs are reproducible
    across refinement levels.
    """
    if n < 1:
        raise ValueError(f"subdivision count must be >= 1, got {n}")
    grid = np.linspace(0.0, 1.0, n + 1)
    x1, x2 = np.meshgrid(grid, grid, indexing="xy")
    nodes = np.column_stack([x1.ravel(), x2.ravel()])

    # lower-left node of cell (i, j), cells in row-major order (j outer)
    v00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    v10, v01 = v00 + 1, v00 + (n + 1)
    v11 = v01 + 1
    # each cell splits along the (v00, v11) diagonal into two counterclockwise triangles
    elements = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)

    on_boundary = (
        (np.abs(nodes[:, 0]) < _BOUNDARY_TOL)
        | (np.abs(nodes[:, 0] - 1.0) < _BOUNDARY_TOL)
        | (np.abs(nodes[:, 1]) < _BOUNDARY_TOL)
        | (np.abs(nodes[:, 1] - 1.0) < _BOUNDARY_TOL)
    )
    boundary = np.flatnonzero(on_boundary)
    interior = np.flatnonzero(~on_boundary)
    return TriMesh(
        nodes=nodes,
        elements=elements,
        boundary_nodes=boundary,
        interior_nodes=interior,
        h=np.sqrt(2.0) / n,
    )


def node_classification(mesh: TriMesh, bc: str) -> np.ndarray:
    """Ordered degree-of-freedom map: node indices in DOF order.

    Dirichlet mode keeps the interior nodes only; Neumann mode lists the
    interior nodes first and the boundary nodes after them, matching the
    interior/boundary block ordering of the assembled matrices.
    """
    _check_bc(bc)
    if bc == DIRICHLET:
        return mesh.interior_nodes.copy()
    return np.concatenate([mesh.interior_nodes, mesh.boundary_nodes])
