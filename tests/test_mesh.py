import numpy as np
import pytest
from hypothesis import given, strategies as st

from parasplit.experiments import build_level, example_5_1
from parasplit.mesh import (
    DIRICHLET,
    NEUMANN,
    node_classification,
    triangle_areas,
    uniform_unit_square,
)


def test_single_cell():
    mesh = uniform_unit_square(1)
    assert mesh.num_nodes == 4
    assert mesh.num_elements == 2
    assert len(mesh.boundary_nodes) == 4
    assert len(mesh.interior_nodes) == 0


def test_n2_counts():
    mesh = uniform_unit_square(2)
    assert mesh.num_nodes == 9
    assert mesh.num_elements == 8
    assert len(mesh.boundary_nodes) == 8
    assert len(mesh.interior_nodes) == 1


def test_total_area():
    mesh = uniform_unit_square(4)
    assert mesh.geometry.areas.sum() == pytest.approx(1.0, abs=1e-12)


def test_rejects_zero_subdivisions():
    with pytest.raises(ValueError, match="n=0"):
        uniform_unit_square(0)


@pytest.mark.parametrize("n", [2.5, 2.0, "4", None])
def test_rejects_non_integer_subdivisions(n):
    with pytest.raises(ValueError, match="subdivision count must be an integer") as err:
        uniform_unit_square(n)
    assert f"n={n!r}" in str(err.value) and "\n" not in str(err.value)


def test_build_level_rejects_non_integer_n():
    # T * n = 5 is a whole number of time steps; the mesh size is still no integer
    with pytest.raises(ValueError, match="n=2.5"):
        build_level(example_5_1(), 2.5)


def test_numpy_integer_subdivisions_accepted():
    assert uniform_unit_square(np.int64(3)).num_nodes == 16


@given(st.integers(min_value=1, max_value=12))
def test_counts_and_orientation(n):
    mesh = uniform_unit_square(n)
    assert mesh.num_elements == 2 * n * n
    assert mesh.num_nodes == (n + 1) ** 2
    assert len(mesh.interior_nodes) == (n - 1) ** 2
    areas = mesh.geometry.areas
    assert np.all(areas > 0)
    assert areas.sum() == pytest.approx(1.0, abs=1e-12)
    # partition of the node set
    joined = np.sort(np.concatenate([mesh.boundary_nodes, mesh.interior_nodes]))
    assert np.array_equal(joined, np.arange(mesh.num_nodes))
    # distinct in-range vertex indices
    assert mesh.elements.min() >= 0 and mesh.elements.max() < mesh.num_nodes
    for k in range(3):
        assert np.all(mesh.elements[:, k] != mesh.elements[:, (k + 1) % 3])


@given(st.integers(min_value=1, max_value=8))
def test_conforming_interior_edges(n):
    mesh = uniform_unit_square(n)
    edges = {}
    for tri in mesh.elements:
        for k in range(3):
            e = tuple(sorted((tri[k], tri[(k + 1) % 3])))
            edges[e] = edges.get(e, 0) + 1
    counts = np.array(list(edges.values()))
    assert set(counts) <= {1, 2}
    on_b = np.zeros(mesh.num_nodes, bool)
    on_b[mesh.boundary_nodes] = True
    for (a, b), c in edges.items():
        if c == 1:  # boundary edge: both endpoints on the boundary
            assert on_b[a] and on_b[b]


def test_h_halves_when_n_doubles():
    assert uniform_unit_square(4).h == pytest.approx(uniform_unit_square(8).h * 2, rel=1e-15)


def test_classification_dirichlet():
    mesh = uniform_unit_square(2)
    dofs = node_classification(mesh, DIRICHLET)
    assert len(dofs) == 1
    assert np.allclose(mesh.nodes[dofs[0]], [0.5, 0.5])


def test_classification_neumann_interior_first():
    mesh = uniform_unit_square(2)
    dofs = node_classification(mesh, NEUMANN)
    assert len(dofs) == 9
    assert dofs[0] == mesh.interior_nodes[0]
    assert np.array_equal(np.sort(dofs), np.arange(9))


def test_classification_n3_dirichlet():
    assert len(node_classification(uniform_unit_square(3), DIRICHLET)) == 4


def test_classification_rejects_unknown_mode():
    with pytest.raises(ValueError):
        node_classification(uniform_unit_square(2), "robin")


def _loop_elements(n):
    """The element array built cell by cell, the reference for the vectorised builder."""
    elements = []
    for j in range(n):
        for i in range(n):
            v00, v10 = j * (n + 1) + i, j * (n + 1) + i + 1
            v01, v11 = (j + 1) * (n + 1) + i, (j + 1) * (n + 1) + i + 1
            elements.append((v00, v10, v11))
            elements.append((v00, v11, v01))
    return np.asarray(elements, dtype=np.int64)


@pytest.mark.parametrize("n", range(1, 7))
def test_elements_match_loop_reference(n):
    elements = uniform_unit_square(n).elements
    assert elements.dtype == np.int64
    assert np.array_equal(elements, _loop_elements(n))


def test_geometry_kept_and_read_only():
    mesh = uniform_unit_square(3)
    geo = mesh.geometry
    assert mesh.geometry is geo
    assert np.array_equal(geo.xy, mesh.nodes[mesh.elements])
    assert np.array_equal(geo.areas, triangle_areas(geo.xy))
    assert np.allclose(geo.midpoints[:, 0], 0.5 * (geo.xy[:, 1] + geo.xy[:, 2]))
    for arr in (geo.xy, geo.areas, geo.midpoints):
        with pytest.raises(ValueError):
            arr[0] = 0.0
