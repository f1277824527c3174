import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dense_block_columns, dense_constraint, flat, random_system, toy_problem
from parasplit.discretization import (
    TimeGrid,
    build_system,
    constraint_adjoint,
    constraint_products,
    constraint_residual,
    objective_constant_terms,
    objective_quadrature,
    objective_vec,
)
from parasplit.experiments import build_level, get_example
from parasplit.fem_assembly import interpolate_nodal, make_space
from parasplit.mesh import DIRICHLET, NEUMANN, uniform_unit_square
from parasplit.sparse_linalg import factorize


class TestTimeGrid:
    def test_basic(self):
        grid = TimeGrid(T=2.0, M=4)
        assert grid.tau == pytest.approx(0.5)
        assert np.allclose(grid.times, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert np.allclose(grid.midpoints, [0.25, 0.75, 1.25, 1.75])

    def test_single_step(self):
        grid = TimeGrid(T=1.0, M=1)
        assert np.allclose(grid.midpoints, [0.5])

    def test_validation(self):
        with pytest.raises(ValueError, match="time step"):
            TimeGrid(T=1.0, M=0)
        for T in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive and finite"):
                TimeGrid(T=T, M=3)
        with pytest.raises(ValueError, match="integer"):
            TimeGrid(T=1.0, M=2.5)
        assert TimeGrid(T=1.0, M=np.int64(4)).times.shape == (5,)


class TestBuildSystem:
    def test_zero_data_zero_blocks(self):
        space = make_space(uniform_unit_square(2), NEUMANN)
        sys = build_system(toy_problem(NEUMANN), space, TimeGrid(T=1.0, M=3))
        assert np.array_equal(sys.rhs, np.zeros((space.ndof, 3)))
        assert np.array_equal(sys.desired_loads, np.zeros((space.ndof, 3)))
        assert np.array_equal(sys.y0_nodal, np.zeros(space.ndof))

    def test_initial_state_enters_first_block(self):
        space = make_space(uniform_unit_square(2), NEUMANN)
        prob = toy_problem(NEUMANN)
        prob.y0 = lambda x1, x2: 1.0 + x1 - x2
        sys = build_system(prob, space, TimeGrid(T=1.0, M=1))
        expected = sys.step_minus @ interpolate_nodal(space, prob.y0)
        assert np.allclose(sys.rhs[:, 0], expected, atol=1e-15)

    def test_bc_mismatch_rejected(self):
        space = make_space(uniform_unit_square(2), NEUMANN)
        with pytest.raises(ValueError, match="boundary"):
            build_system(toy_problem(DIRICHLET), space, TimeGrid(T=1.0, M=1))

    def test_step_matrices(self):
        sys = random_system(0, n=2, M=2)
        tau = sys.grid.tau
        A, B = sys.mass.toarray(), sys.stiffness.toarray()
        assert np.allclose(sys.step_plus.toarray(), A + 0.5 * tau * B, atol=1e-15)
        assert np.allclose(sys.step_minus.toarray(), A - 0.5 * tau * B, atol=1e-15)
        factorize(sys.step_plus)  # must be positive definite

    def test_kappa_weights(self):
        sys = random_system(0, n=1, M=4)
        assert np.array_equal(sys.kappa, [1.0, 1.0, 1.0, 0.5])

    def test_truncation_residual_decays(self):
        # exact-solution samples leave a residual that shrinks by ~2^3 per
        # simultaneous halving of h and tau
        prob = get_example("5.1")
        norms = []
        for n in (4, 8):
            sys = build_level(prob, n)
            Y = np.column_stack(
                [
                    interpolate_nodal(sys.space, lambda x1, x2, t=t: prob.y_star(x1, x2, t))
                    for t in sys.grid.times[1:]
                ]
            )
            U = np.column_stack(
                [
                    interpolate_nodal(sys.space, lambda x1, x2, t=t: prob.u_star(x1, x2, t))
                    for t in sys.grid.midpoints
                ]
            )
            norms.append(np.linalg.norm(constraint_residual(sys, Y, U)))
        assert 6.0 < norms[0] / norms[1] < 14.0


class TestConstraintResidual:
    @pytest.mark.parametrize("seed,n,M", [(0, 2, 1), (1, 2, 3), (2, 3, 2)])
    def test_matches_dense_oracle(self, seed, n, M):
        sys = random_system(seed, n=n, M=M)
        rng = np.random.default_rng(seed + 100)
        Y = rng.standard_normal((sys.ndof, M))
        U = rng.standard_normal((sys.ndof, M))
        A_cal, B_cal, F = dense_constraint(sys)
        expected = A_cal @ flat(Y) + B_cal @ flat(U) - F
        got = flat(constraint_residual(sys, Y, U))
        assert np.allclose(got, expected, atol=1e-12 * max(1.0, np.abs(expected).max()))

    def test_shape_validation(self):
        sys = random_system(0, n=2, M=2)
        good = np.zeros((sys.ndof, 2))
        with pytest.raises(ValueError, match="Y"):
            constraint_residual(sys, np.zeros((sys.ndof, 3)), good)
        with pytest.raises(ValueError, match="U"):
            constraint_residual(sys, good, np.zeros(sys.ndof))

    @pytest.mark.parametrize("seed,n,M", [(3, 2, 2), (4, 3, 3)])
    def test_block_columns_full_rank(self, seed, n, M):
        sys = random_system(seed, n=n, M=M)
        controls, states = dense_block_columns(sys)
        full = np.hstack(controls + states)
        s = np.linalg.svd(full, compute_uv=False)
        assert s.min() > 1e-8


class TestConstraintAdjoint:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([DIRICHLET, NEUMANN]),
        st.integers(min_value=2, max_value=3),
        st.integers(min_value=1, max_value=4),
    )
    def test_transpose_of_dense_constraint(self, seed, bc, n, M):
        sys = random_system(seed, n=n, M=M, bc=bc)
        rng = np.random.default_rng(seed + 1)
        Y, U, lam = (rng.standard_normal((sys.ndof, M)) for _ in range(3))
        A_cal, B_cal, _ = dense_constraint(sys)
        got = constraint_adjoint(sys, lam)
        assert got.shape == (2, sys.ndof, M)
        tol = 1e-12 * max(1.0, np.abs(lam).max())
        assert np.allclose(flat(got[0]), B_cal.T @ flat(lam), rtol=0.0, atol=tol)
        assert np.allclose(flat(got[1]), A_cal.T @ flat(lam), rtol=0.0, atol=tol)
        # adjoint of the forward map: <Cz, lam> = <U, (C^T lam)_U> + <Y, (C^T lam)_Y>
        lhs = np.vdot(constraint_products(sys, Y, U)[3], lam)
        rhs = np.vdot(U, got[0]) + np.vdot(Y, got[1])
        scale = np.linalg.norm(lam) * (np.linalg.norm(U) + np.linalg.norm(Y))
        assert abs(lhs - rhs) <= 1e-12 * scale


class TestObjectives:
    def test_vec_zero(self):
        sys = random_system(0, n=2, M=2)
        assert objective_vec(sys, np.zeros((sys.ndof, 2)), np.zeros((sys.ndof, 2))) == 0.0

    def test_vec_control_only(self):
        sys = random_system(1, n=2, M=2)
        U = np.random.default_rng(5).standard_normal((sys.ndof, 2))
        Z = np.zeros_like(U)
        direct = 0.0
        tau, A = sys.grid.tau, sys.mass.toarray()
        for m in range(2):
            direct += 0.5 * sys.alpha * tau * U[:, m] @ (A @ U[:, m])
        assert objective_vec(sys, Z, U) == pytest.approx(direct, rel=1e-13)

    def test_vec_gradient_by_differences(self):
        sys = random_system(2, n=2, M=2)
        rng = np.random.default_rng(9)
        Y = rng.standard_normal((sys.ndof, 2))
        U = rng.standard_normal((sys.ndof, 2))
        tau, A = sys.grid.tau, sys.mass.toarray()
        grad_y = sys.kappa * tau * (A @ Y - sys.desired_loads)
        grad_u = sys.alpha * tau * (A @ U)
        eps = 1e-6
        for _ in range(5):
            i, m = rng.integers(sys.ndof), rng.integers(2)
            for arr, grad in ((Y, grad_y), (U, grad_u)):
                arr[i, m] += eps
                up = objective_vec(sys, Y, U)
                arr[i, m] -= 2 * eps
                down = objective_vec(sys, Y, U)
                arr[i, m] += eps
                fd = (up - down) / (2 * eps)
                assert fd == pytest.approx(grad[i, m], rel=1e-6, abs=1e-8)

    def test_quadrature_at_zero_equals_constant_terms(self):
        space = make_space(uniform_unit_square(2), NEUMANN)
        prob = toy_problem(NEUMANN)
        prob.y_d = lambda x1, x2, t: (1.0 + t) * np.cos(np.pi * x1)
        sys = build_system(prob, space, TimeGrid(T=1.0, M=3))
        Z = np.zeros((sys.ndof, 3))
        assert objective_quadrature(sys, Z, Z) == pytest.approx(
            objective_constant_terms(sys), rel=1e-13
        )

    def test_quadrature_alpha_scaling(self):
        prob51 = get_example("5.1")
        sys = build_level(prob51, 2)
        rng = np.random.default_rng(3)
        U = rng.standard_normal((sys.ndof, sys.grid.M))
        Z = np.zeros_like(U)
        control_part = objective_quadrature(sys, Z, U) - objective_quadrature(sys, Z, Z)
        tau = sys.grid.tau
        direct = 0.5 * sys.alpha * tau * sum(
            U[:, m] @ (sys.mass @ U[:, m]) for m in range(sys.grid.M)
        )
        assert control_part == pytest.approx(direct, rel=1e-10)

    @pytest.mark.parametrize("seed,n,M", [(0, 2, 1), (1, 2, 3), (2, 3, 2)])
    def test_cross_form_identity(self, seed, n, M):
        prob = get_example("5.1")
        space = make_space(uniform_unit_square(n), prob.bc)
        sys = build_system(prob, space, TimeGrid(T=prob.T, M=M))
        rng = np.random.default_rng(seed + 50)
        Y = rng.standard_normal((sys.ndof, M))
        U = rng.standard_normal((sys.ndof, M))
        quad = objective_quadrature(sys, Y, U)
        vec = objective_vec(sys, Y, U) + objective_constant_terms(sys)
        assert abs(vec - quad) <= 1e-10 * max(1.0, abs(quad))
