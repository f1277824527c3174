import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parasplit.fem_assembly import (
    assemble_mass,
    assemble_stiffness,
    interpolate_nodal,
    l2_error,
    l2_norm_of,
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
        assert l2_norm_of(space, g) == pytest.approx(0.5, abs=2e-3)

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

    def test_expansion_norm_matches_mass_quadratic_form(self):
        # quadrature is exact for products of linears, so the L2 norm of a
        # basis expansion must equal the mass-matrix quadratic form exactly
        for bc in (NEUMANN, DIRICHLET):
            space = _space(3, bc)
            c = np.random.default_rng(1).standard_normal(space.ndof)
            norm = l2_error(space, c, lambda x1, x2: 0.0 * x1)
            exact = np.sqrt(c @ (assemble_mass(space) @ c))
            assert norm == pytest.approx(exact, rel=1e-12)
