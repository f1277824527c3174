import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from conftest import dense_kkt_solution, full_pencil_solution, random_system, toy_problem
from parasplit.discretization import TimeGrid, build_system, objective_vec
from parasplit.experiments import build_level, get_example
from parasplit.fem_assembly import make_space
from parasplit import kkt_oracle
from parasplit.kkt_oracle import solve_kkt
from parasplit.mirrors import mirror_basis
from parasplit.mesh import DIRICHLET, NEUMANN, uniform_unit_square
from parasplit.sparse_linalg import block_rows, factorize


class TestSolveKkt:
    def test_zero_data_gives_zero_solution(self):
        space = make_space(uniform_unit_square(2), NEUMANN)
        sys = build_system(toy_problem(NEUMANN), space, TimeGrid(T=1.0, M=3))
        sol = solve_kkt(sys, alpha=1e-2)
        assert np.allclose(sol.Y_star, 0.0, atol=1e-14)
        assert np.allclose(sol.U_star, 0.0, atol=1e-14)
        assert np.allclose(sol.lambda_star, 0.0, atol=1e-14)

    @pytest.mark.parametrize("seed,n,M", [(0, 2, 1), (1, 2, 3), (2, 3, 2), (3, 3, 4)])
    def test_residuals_small(self, seed, n, M):
        sys = random_system(seed, n=n, M=M)
        sol = solve_kkt(sys, sys.alpha)
        assert sol.stationarity_residual <= 1e-9
        assert sol.feasibility_residual <= 1e-9

    def test_control_stationarity_eliminates_multiplier(self):
        sys = random_system(4, n=2, M=3)
        sol = solve_kkt(sys, sys.alpha)
        assert np.allclose(sol.U_star, -sol.lambda_star / sys.alpha, atol=1e-10)

    def test_objective_is_minimal_over_feasible_perturbations(self):
        sys = build_level(get_example("5.1"), 4)
        sol = solve_kkt(sys, sys.alpha)
        base = objective_vec(sys, sol.Y_star, sol.U_star)
        fac = factorize(sys.step_plus)
        rng = np.random.default_rng(0)
        for _ in range(5):
            dU = rng.standard_normal(sol.U_star.shape)
            dY = np.empty_like(dU)
            prev = np.zeros(sys.ndof)
            for m in range(sys.grid.M):
                rhs = sys.grid.tau * (sys.mass @ dU[:, m]) + sys.step_minus @ prev
                dY[:, m] = fac.solve(rhs)
                prev = dY[:, m]
            perturbed = objective_vec(sys, sol.Y_star + dY, sol.U_star + dU)
            assert perturbed >= base - 1e-12 * max(1.0, abs(base))

    def test_solution_is_linear_in_data(self):
        sys = random_system(5, n=2, M=2)
        scaled = dataclasses.replace(sys, rhs=3.0 * sys.rhs, desired_loads=3.0 * sys.desired_loads)
        a = solve_kkt(sys, sys.alpha)
        b = solve_kkt(scaled, sys.alpha)
        scale = max(1.0, np.abs(b.Y_star).max())
        assert np.allclose(b.Y_star, 3.0 * a.Y_star, atol=1e-10 * scale)
        assert np.allclose(b.U_star, 3.0 * a.U_star, atol=1e-10 * scale)
        assert np.allclose(b.lambda_star, 3.0 * a.lambda_star, atol=1e-10 * scale)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([DIRICHLET, NEUMANN]),
        st.integers(min_value=2, max_value=3),
        st.integers(min_value=1, max_value=4),
    )
    def test_matches_dense_kkt(self, seed, bc, n, M):
        sys = random_system(seed, n=n, M=M, bc=bc)
        Y, U, lam = dense_kkt_solution(sys)
        sol = solve_kkt(sys, sys.alpha)
        scale = max(1.0, np.abs(Y).max(), np.abs(lam).max())
        assert np.allclose(sol.Y_star, Y, atol=1e-10 * scale)
        assert np.allclose(sol.U_star, U, atol=1e-10 * scale)
        assert np.allclose(sol.lambda_star, lam, atol=1e-10 * scale)
        assert sol.stationarity_residual <= 1e-9
        assert sol.feasibility_residual <= 1e-9

    @pytest.mark.parametrize("name", ["5.1", "5.2"])
    def test_reduced_path_matches_dense_path(self, name):
        prob = get_example(name)
        space = make_space(uniform_unit_square(3), prob.bc)
        sys = build_system(prob, space, TimeGrid(T=prob.T, M=3))
        Y, U, lam = dense_kkt_solution(sys)
        reduced = solve_kkt(sys, sys.alpha)
        scale = max(1.0, np.abs(Y).max(), np.abs(lam).max())
        assert np.allclose(reduced.Y_star, Y, atol=1e-10 * scale)
        assert np.allclose(reduced.U_star, U, atol=1e-10 * scale)
        assert np.allclose(reduced.lambda_star, lam, atol=1e-10 * scale)
        assert reduced.stationarity_residual <= 1e-9
        assert reduced.feasibility_residual <= 1e-9

    def test_alpha_mismatch_rejected(self):
        sys = random_system(7, n=2, M=2)
        with pytest.raises(ValueError, match="alpha"):
            solve_kkt(sys, 2.0 * sys.alpha)

    @pytest.mark.parametrize("alpha", [0.0, -1e-2, np.nan, np.inf])
    def test_alpha_outside_positive_reals_rejected(self, alpha):
        # at alpha = 0 the modal solve divides by zero; below it the QP is
        # not convex and a stationary point is no minimiser
        sys = dataclasses.replace(build_level(get_example("5.1"), 4), alpha=alpha)
        with pytest.raises(ValueError, match="alpha must be positive and finite") as err:
            solve_kkt(sys, alpha)
        assert "\n" not in str(err.value)

    def test_system_in_mirror_basis_rejected(self):
        sys = build_level(get_example("5.1"), 4)
        with pytest.raises(ValueError, match="takes a system in node coordinates") as err:
            solve_kkt(sys.in_mirror_basis(), sys.alpha)
        assert "\n" not in str(err.value)

    def test_dimension_cap(self, monkeypatch):
        sys = random_system(6, n=2, M=2)
        monkeypatch.setattr(kkt_oracle, "MAX_NDOF", sys.ndof - 1)
        with pytest.raises(ValueError, match="cap"):
            solve_kkt(sys, sys.alpha)
        monkeypatch.setattr(kkt_oracle, "MAX_NDOF", sys.ndof)
        solve_kkt(sys, sys.alpha)

    def test_cap_admits_n64_rejects_n128(self):
        for n, admitted in ((64, True), (128, False)):
            for bc in (NEUMANN, DIRICHLET):
                ndof = make_space(uniform_unit_square(n), bc).ndof
                assert (ndof <= kkt_oracle.MAX_NDOF) == admitted


def _rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def _basis_matrix(basis):
    """Q as a dense matrix, its columns block by block."""
    return basis.expand_stacked(np.eye(basis.ndof))


class TestMirrorBlocks:
    """The mirror-split pencil against the whole one."""

    @pytest.mark.parametrize("n", [8, 9])  # the centre node is a DOF only at even n
    @pytest.mark.parametrize("name", ["5.1", "5.2"])
    def test_basis_orthonormal_and_pencil_block_diagonal(self, name, n):
        sys = build_level(get_example(name), n)
        basis = mirror_basis(sys)
        assert len(basis.sizes) == 4 and sum(basis.sizes) == sys.ndof
        Q = _basis_matrix(basis)
        assert (np.count_nonzero(Q, axis=0) <= 4).all()
        assert np.abs(Q.T @ Q - np.eye(sys.ndof)).max() <= 1e-15
        X = np.random.default_rng(n).standard_normal((sys.ndof, 3))
        assert np.abs(basis.project_stacked(X) - Q.T @ X).max() <= 1e-14
        for mat in (sys.stiffness, sys.mass):
            dense = mat.toarray()
            projected = Q.T @ dense @ Q
            blocked = basis.block_diagonals(mat)[0].toarray()
            scale = np.abs(dense).max()
            for inner in block_rows(basis.sizes):
                assert np.abs(blocked[inner, inner] - projected[inner, inner]).max() <= 1e-14 * scale
                blocked[inner, inner] = projected[inner, inner] = 0.0
            assert not blocked.any()  # block_diagonals keeps the diagonal blocks only
            assert np.abs(projected).max() <= 1e-14 * scale  # what it drops is round-off

    @pytest.mark.parametrize("n", [4, 9, 16])
    @pytest.mark.parametrize("name", ["5.1", "5.2"])
    def test_pair_matches_single_builds(self, name, n):
        # mass and stiffness share one pattern, the stiffness with stored
        # zeros: the pair's blocks are each matrix's own, bit for bit, with
        # its zeros dropped; two matrices of different patterns are built
        # one by one
        sys = build_level(get_example(name), n)
        basis = mirror_basis(sys)
        assert np.array_equal(sys.mass.indices, sys.stiffness.indices)
        assert (sys.stiffness.data == 0.0).any()
        pair = basis.block_diagonals(sys.mass, sys.stiffness)
        for got, mat in zip(pair, (sys.mass, sys.stiffness)):
            [want] = basis.block_diagonals(mat)
            for field in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), field
            assert got.data.all()
        pruned = sp.csr_matrix(sys.stiffness.toarray())
        assert pruned.nnz < sys.stiffness.nnz
        apart = basis.block_diagonals(sys.mass, pruned)
        assert (apart[1] != basis.block_diagonals(pruned)[0]).nnz == 0
        assert (apart[0] != pair[0]).nnz == 0

    @pytest.mark.parametrize("n", [8, 9])
    @pytest.mark.parametrize("name", ["5.1", "5.2"])
    def test_matches_full_pencil(self, name, n):
        sys = build_level(get_example(name), n)
        blocked = np.sort(np.concatenate([mu for mu, _ in kkt_oracle.block_eigh(sys.in_mirror_basis())]))
        full = scipy.linalg.eigh(sys.stiffness.toarray(), sys.mass.toarray(), eigvals_only=True)
        assert np.abs(blocked - full).max() <= 1e-12 * full.max()
        sol = solve_kkt(sys, sys.alpha)
        Y, U, lam = full_pencil_solution(sys)
        assert _rel(sol.Y_star, Y) <= 1e-12
        assert _rel(sol.U_star, U) <= 1e-12
        assert _rel(sol.lambda_star, lam) <= 1e-12

    @pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
    @pytest.mark.parametrize("dof,kept", [(0, 1), (1, 0)])
    def test_broken_mirror_falls_back_to_fewer_blocks(self, bc, dof, kept):
        # At n = 3 the first DOF lies on the diagonal x1 = x2, which the
        # coordinate swap fixes; the second lies on no mirror's fixed set.
        sys = random_system(11, n=3, M=3, bc=bc)
        whole = mirror_basis(sys)
        assert whole.orbits.shape[0] == 4  # both mirrors kept
        bump = sp.csr_matrix(([1e-3 * sys.stiffness[dof, dof]], ([dof], [dof])), shape=sys.stiffness.shape)
        broken = dataclasses.replace(sys, stiffness=sys.stiffness + bump)
        basis = mirror_basis(broken)
        assert basis.orbits.shape[0] == 2**kept
        assert len(basis.sizes) < len(whole.sizes) and sum(basis.sizes) == sys.ndof
        self._assert_matches_dense(broken)

    def test_moved_node_keeps_one_block(self):
        sys = random_system(12, n=3, M=2, bc=DIRICHLET)
        mesh = sys.space.mesh
        nodes = mesh.nodes.copy()
        nodes[sys.space.dof_nodes[0], 0] += 1e-3
        space = dataclasses.replace(sys.space, mesh=dataclasses.replace(mesh, nodes=nodes))
        basis = mirror_basis(dataclasses.replace(sys, space=space))
        assert basis.sizes == [sys.ndof]
        assert np.array_equal(_basis_matrix(basis), np.eye(sys.ndof))

    def test_single_dof(self):
        sys = random_system(13, n=2, M=3, bc=DIRICHLET)
        assert sys.ndof == 1
        basis = mirror_basis(sys)
        assert basis.sizes == [1]
        assert np.array_equal(_basis_matrix(basis), np.ones((1, 1)))
        self._assert_matches_dense(sys)

    @staticmethod
    def _assert_matches_dense(sys):
        Y, U, lam = dense_kkt_solution(sys)
        sol = solve_kkt(sys, sys.alpha)
        scale = max(1.0, np.abs(Y).max(), np.abs(lam).max())
        assert np.allclose(sol.Y_star, Y, atol=1e-10 * scale)
        assert np.allclose(sol.U_star, U, atol=1e-10 * scale)
        assert np.allclose(sol.lambda_star, lam, atol=1e-10 * scale)
        assert sol.stationarity_residual <= 1e-9
        assert sol.feasibility_residual <= 1e-9
