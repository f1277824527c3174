import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parasplit.fem_assembly import (
    TIME_BLOCK,
    assemble_mass,
    assemble_stiffness,
    interpolate_nodal,
    l2_error,
    load_vector,
    make_space,
)
from parasplit.mesh import DIRICHLET, NEUMANN, TriMesh, uniform_unit_square
from parasplit.sparse_linalg import factorize


def _reference_triangle() -> TriMesh:
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    elements = np.array([[0, 1, 2]])
    return TriMesh(
        nodes=nodes,
        elements=elements,
        boundary_nodes=np.array([0, 1, 2]),
        interior_nodes=np.array([], dtype=np.int64),
        h=np.sqrt(2.0),
    )


def _space(n: int, bc: str):
    return make_space(uniform_unit_square(n), bc)


def test_make_space_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown boundary-condition mode"):
        _space(2, "robin")


class TestElementDofs:
    @pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_table_maps_vertices_to_dofs(self, n, bc):
        space = _space(n, bc)
        mesh = space.mesh
        table = space.element_dofs
        assert table.shape == (mesh.num_elements, 3) and table.dtype == np.int64
        carries = table < space.ndof
        assert np.array_equal(space.dof_nodes[table[carries]], mesh.elements[carries])
        # the vertices without a DOF are the Dirichlet boundary's, marked ndof
        no_dof = np.isin(mesh.elements, mesh.boundary_nodes) if bc == DIRICHLET else False
        assert np.array_equal(~carries, np.broadcast_to(no_dof, table.shape))
        assert np.all(table[~carries] == space.ndof)

    def test_kept_and_read_only(self):
        space = _space(3, DIRICHLET)
        table = space.element_dofs
        assert space.element_dofs is table
        with pytest.raises(ValueError):
            table[0, 0] = 0


class TestReferenceTriangle:
    def test_local_mass(self):
        space = make_space(_reference_triangle(), NEUMANN)
        expected = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 24.0
        assert np.allclose(assemble_mass(space).toarray(), expected, atol=1e-15)

    def test_local_stiffness(self):
        space = make_space(_reference_triangle(), NEUMANN)
        expected = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
        assert np.allclose(assemble_stiffness(space).toarray(), expected, atol=1e-15)


class TestAssembledMatrices:
    def test_mass_total_is_domain_area(self):
        space = _space(2, NEUMANN)
        ones = np.ones(space.ndof)
        assert ones @ (assemble_mass(space) @ ones) == pytest.approx(1.0)

    def test_stiffness_annihilates_constants(self):
        space = _space(2, NEUMANN)
        B = assemble_stiffness(space)
        assert np.allclose(B @ np.ones(space.ndof), 0.0, atol=1e-14)

    def test_dirichlet_n2_stiffness(self):
        space = _space(2, DIRICHLET)
        assert space.ndof == 1
        assert np.allclose(assemble_stiffness(space).toarray(), [[4.0]])

    def test_dirichlet_is_interior_principal_submatrix(self):
        # interior-first DOF ordering makes this a leading principal block
        for n in (2, 3, 4):
            mesh = uniform_unit_square(n)
            neu = make_space(mesh, NEUMANN)
            dir_ = make_space(mesh, DIRICHLET)
            ni = dir_.ndof
            for assemble in (assemble_mass, assemble_stiffness):
                full = assemble(neu).toarray()
                assert np.array_equal(assemble(dir_).toarray(), full[:ni, :ni])

    @pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
    def test_canonical_csr(self, bc):
        # sorted column indices and no duplicates in every row
        space = _space(4, bc)
        for mat in (assemble_mass(space), assemble_stiffness(space)):
            rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
            assert np.all(np.diff(rows * mat.shape[1] + mat.indices) > 0)

    @pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_naive_assembly(self, n, bc):
        space = _space(n, bc)
        mesh = space.mesh
        nn = mesh.num_nodes
        mass = np.zeros((nn, nn))
        stiff = np.zeros((nn, nn))
        for tri in mesh.elements:
            xy = mesh.nodes[tri]
            mat = np.column_stack([np.ones(3), xy])
            area = 0.5 * abs(np.linalg.det(mat))
            grads = np.linalg.inv(mat)[1:].T  # rows of inv give [c; gx; gy]
            for a in range(3):
                for b in range(3):
                    mass[tri[a], tri[b]] += area / 12.0 * (2.0 if a == b else 1.0)
                    stiff[tri[a], tri[b]] += area * grads[a] @ grads[b]
        idx = space.dof_nodes
        assert np.allclose(assemble_mass(space).toarray(), mass[np.ix_(idx, idx)], atol=1e-13)
        assert np.allclose(assemble_stiffness(space).toarray(), stiff[np.ix_(idx, idx)], atol=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=1000))
    def test_mass_positive_definite(self, n, seed):
        space = _space(n, NEUMANN)
        A = assemble_mass(space)
        factorize(A)  # raises if not positive definite
        v = np.random.default_rng(seed).standard_normal(space.ndof)
        if np.linalg.norm(v) > 0:
            assert v @ (A @ v) > 0.0


class TestLoadVector:
    def test_zero_function(self):
        space = _space(3, NEUMANN)
        assert np.array_equal(load_vector(space, lambda x1, x2: 0.0 * x1), np.zeros(space.ndof))

    def test_constant_one_sums_to_area(self):
        space = _space(3, NEUMANN)
        assert load_vector(space, lambda x1, x2: np.ones_like(x1)).sum() == pytest.approx(1.0)

    def test_affine_exactness(self):
        # degree-2 quadrature integrates affine * linear-basis exactly
        space = _space(3, NEUMANN)
        g = lambda x1, x2: 2.0 * x1 - 3.0 * x2 + 0.5
        lhs = load_vector(space, g)
        rhs = assemble_mass(space) @ interpolate_nodal(space, g)
        assert np.allclose(lhs, rhs, atol=1e-14)

    @pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
    def test_equals_the_nodal_scatter_on_the_dofs(self, bc):
        # the same sums, in the same order, as scattering to every mesh node
        # and keeping the DOF nodes' entries
        space = _space(5, bc)
        g = lambda x1, x2: np.exp(x1) * np.cos(3.0 * x2)
        geo = space.mesh.geometry
        gv = g(geo.midpoints[..., 0], geo.midpoints[..., 1])
        contrib = (geo.areas / 3.0)[:, None] * 0.5 * (gv.sum(axis=1, keepdims=True) - gv)
        nodal = np.zeros(space.mesh.num_nodes)
        np.add.at(nodal, space.mesh.elements.ravel(), contrib.ravel())
        assert np.array_equal(load_vector(space, g), nodal[space.dof_nodes])

    def test_nonfinite_reports_point(self):
        space = _space(2, NEUMANN)
        bad = lambda x1, x2: np.where(x1 > 0.9, np.nan, 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            load_vector(space, bad)


class TestInterpolateNodal:
    def test_linear(self):
        space = _space(2, NEUMANN)
        vals = interpolate_nodal(space, lambda x1, x2: x1 + x2)
        pts = space.mesh.nodes[space.dof_nodes]
        assert np.array_equal(vals, pts[:, 0] + pts[:, 1])

    def test_scalar_constant_broadcasts(self):
        space = _space(2, NEUMANN)
        assert np.array_equal(interpolate_nodal(space, lambda x1, x2: 3.0), np.full(space.ndof, 3.0))

    def test_dirichlet_center_node(self):
        space = _space(2, DIRICHLET)
        vals = interpolate_nodal(space, lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2))
        assert vals == pytest.approx([1.0])

    def test_nonfinite_rejected(self):
        space = _space(2, NEUMANN)
        with pytest.raises(ValueError, match="non-finite"):
            interpolate_nodal(space, lambda x1, x2: np.full_like(x1, np.inf))


class TestL2Norms:
    def test_zero_on_own_affine_interpolant(self):
        space = _space(3, NEUMANN)
        g = lambda x1, x2: 1.0 - x1 + 2.0 * x2
        assert l2_error(space, interpolate_nodal(space, g), g) == pytest.approx(0.0, abs=1e-14)

    def test_norm_of_product_sine(self):
        space = _space(32, NEUMANN)
        g = lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2)
        assert l2_error(space, np.zeros(space.ndof), g) == pytest.approx(0.5, abs=2e-3)

    def test_interpolation_error_second_order(self):
        g = lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2)
        errs = []
        for n in (4, 8):
            space = _space(n, NEUMANN)
            errs.append(l2_error(space, interpolate_nodal(space, g), g))
        assert 3.5 < errs[0] / errs[1] < 4.5

    def test_coefficient_length_checked(self):
        space = _space(2, NEUMANN)
        with pytest.raises(ValueError, match="ndof"):
            l2_error(space, np.zeros(space.ndof + 1), lambda x1, x2: 0.0 * x1)
        with pytest.raises(ValueError, match="ndof"):
            l2_error(space, np.zeros((space.ndof, 1)), lambda x1, x2: 0.0 * x1)

    def test_expansion_norm_matches_mass_quadratic_form(self):
        # quadrature is exact for products of linears, so the L2 norm of a
        # basis expansion must equal the mass-matrix quadratic form exactly
        for bc in (NEUMANN, DIRICHLET):
            space = _space(3, bc)
            c = np.random.default_rng(1).standard_normal(space.ndof)
            norm = l2_error(space, c, lambda x1, x2: 0.0 * x1)
            exact = np.sqrt(c @ (assemble_mass(space) @ c))
            assert norm == pytest.approx(exact, rel=1e-12)


def _rel(a, b) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestBatchedQuadrature:
    """A trailing axis of time levels: one call equals a call per level."""

    # not separable in space and time, and more levels than one block holds
    g = staticmethod(lambda x1, x2, t: np.exp(x1 * t) * np.cos(3.0 * x2 - t) + t)
    t = np.linspace(0.0, 2.0, 2 * TIME_BLOCK + 3)

    @pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
    def test_loads_equal_the_per_level_calls(self, bc):
        space = _space(5, bc)
        batched = load_vector(space, self.g, self.t)
        assert batched.shape == (space.ndof, len(self.t))
        per_level = np.column_stack(
            [load_vector(space, lambda x1, x2, tk=tk: self.g(x1, x2, tk)) for tk in self.t]
        )
        assert _rel(batched, per_level) <= 1e-14

    @pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
    def test_errors_equal_the_per_level_calls(self, bc):
        space = _space(5, bc)
        coeffs = np.random.default_rng(2).standard_normal((space.ndof, len(self.t)))
        batched = l2_error(space, coeffs, self.g, self.t)
        assert batched.shape == (len(self.t),)
        per_level = [
            l2_error(space, coeffs[:, k], lambda x1, x2, tk=tk: self.g(x1, x2, tk))
            for k, tk in enumerate(self.t)
        ]
        assert _rel(batched, np.array(per_level)) <= 1e-14

    def test_no_levels(self):
        space = _space(2, NEUMANN)
        assert load_vector(space, self.g, []).shape == (space.ndof, 0)
        assert l2_error(space, np.zeros((space.ndof, 0)), self.g, []).shape == (0,)

    def test_shapes_checked(self):
        space = _space(2, NEUMANN)
        with pytest.raises(ValueError, match="1-D"):
            load_vector(space, self.g, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="ndof"):
            l2_error(space, np.zeros(space.ndof), self.g, self.t)
        with pytest.raises(ValueError, match="ndof"):
            l2_error(space, np.zeros((space.ndof, 2)), self.g, self.t)

    def test_nonfinite_names_point_and_time(self):
        space = _space(2, NEUMANN)
        bad = lambda x1, x2, t: np.where((x1 > 0.9) & (t == self.t[-1]), np.nan, 1.0)
        with pytest.raises(ValueError, match=r"non-finite function value at point \[.*\], time 2\.0") as err:
            load_vector(space, bad, self.t)
        assert "\n" not in str(err.value)
