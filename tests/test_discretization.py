import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from conftest import dense_block_columns, dense_constraint, flat, random_system, toy_problem
from parasplit.discretization import (
    TimeGrid,
    build_system,
    constraint_adjoint,
    constraint_products,
    constraint_residual,
    fill_constraint_map,
    objective_constant_terms,
    objective_quadrature,
    objective_vec,
    write_products,
)
from parasplit.experiments import build_level, get_example
from parasplit.fem_assembly import TIME_BLOCK, interpolate_nodal, load_vector, make_space
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
        # the source is zero, so the first block is the step_minus product alone
        assert np.array_equal(sys.rhs[:, 0], sys.step_minus @ interpolate_nodal(space, prob.y0))

    @pytest.mark.parametrize("name", ["5.1", "5.2"])
    def test_loads_equal_a_per_step_reference(self, name):
        # one batched evaluation per callable, over more steps than one block
        prob = get_example(name)
        space = make_space(uniform_unit_square(3), prob.bc)
        grid = TimeGrid(T=prob.T, M=2 * TIME_BLOCK + 1)
        sys = build_system(prob, space, grid)
        rhs = np.column_stack(
            [grid.tau * load_vector(space, lambda x1, x2, t=t: prob.f(x1, x2, t)) for t in grid.midpoints]
        )
        rhs[:, 0] += sys.step_minus @ interpolate_nodal(space, prob.y0)
        desired = np.column_stack(
            [load_vector(space, lambda x1, x2, t=t: prob.y_d(x1, x2, t)) for t in grid.times[1:]]
        )
        for got, want in ((sys.rhs, rhs), (sys.desired_loads, desired)):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_nonfinite_source_fails_fast(self):
        space = make_space(uniform_unit_square(2), NEUMANN)
        grid = TimeGrid(T=1.0, M=4)
        prob = toy_problem(NEUMANN)
        bad_t = grid.midpoints[2]
        prob.f = lambda x1, x2, t: np.where(t == bad_t, np.nan, 0.0 * x1)
        with pytest.raises(ValueError, match=rf"non-finite function value at point \[.*\], time {bad_t}") as err:
            build_system(prob, space, grid)
        assert "\n" not in str(err.value)

    def test_no_unknowns_rejected(self):
        # Dirichlet mode at n = 1: every node is on the boundary.
        with pytest.raises(ValueError, match="no unknowns"):
            build_level(get_example("5.1"), 1)

    def test_bc_mismatch_rejected(self):
        space = make_space(uniform_unit_square(2), NEUMANN)
        with pytest.raises(ValueError, match="boundary"):
            build_system(toy_problem(DIRICHLET), space, TimeGrid(T=1.0, M=1))

    @staticmethod
    def _assert_step_matrices(sys, mass, stiffness):
        """The Crank-Nicolson step matrices average to the mass and differ
        by tau times the stiffness."""
        plus, minus = sys.step_plus.toarray(), sys.step_minus.toarray()
        assert np.allclose((plus + minus) / 2.0, mass.toarray(), rtol=0, atol=1e-15)
        assert np.allclose((plus - minus) / sys.grid.tau, stiffness.toarray(), rtol=0, atol=1e-14)

    def test_step_matrices(self):
        sys = random_system(0, n=2, M=2)
        self._assert_step_matrices(sys, sys.mass, sys.stiffness)
        factorize(sys.step_plus)  # must be positive definite

    def test_step_matrices_follow_a_replaced_operator(self):
        # they are derived from the copy's own fields, not carried over from
        # the system it was replaced from (which formed its pair first)
        sys = random_system(0, n=2, M=2)
        sys.step_plus, sys.step_minus
        stiffness = 2.0 * sys.stiffness
        stiffer = dataclasses.replace(sys, stiffness=stiffness)
        self._assert_step_matrices(stiffer, sys.mass, stiffness)
        finer = dataclasses.replace(sys, grid=TimeGrid(T=sys.grid.T, M=4 * sys.grid.M))
        self._assert_step_matrices(finer, sys.mass, sys.stiffness)
        assert not np.allclose(finer.step_plus.toarray(), sys.step_plus.toarray())

    def test_kappa_weights(self):
        sys = random_system(0, n=1, M=4)
        assert np.array_equal(sys.kappa, [1.0, 1.0, 1.0, 0.5])

    def test_tracking_loads(self):
        sys = random_system(0, n=2, M=4)
        expected = (sys.grid.tau * sys.kappa) * sys.desired_loads
        assert np.array_equal(sys.tracking_loads, expected)
        # a copy forms its own loads instead of reading the original's cache
        # (tau * kappa is a power of two here, so tripling commutes exactly)
        tripled = dataclasses.replace(sys, desired_loads=3.0 * sys.desired_loads)
        assert np.array_equal(tripled.tracking_loads, 3.0 * expected)

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
        # Each product sits in the block row it enters: tau A U and step_plus Y
        # block-diagonally, step_minus Y_{m-1} in row m, nothing in row 1.
        tAU, PY, MY, _ = constraint_products(sys, Y, U)
        eye = np.eye(M)
        for slab, blocks, X in ((tAU, np.kron(eye, sys.grid.tau * sys.mass.toarray()), U),
                                (PY, np.kron(eye, sys.step_plus.toarray()), Y),
                                (MY, np.kron(np.eye(M, k=-1), sys.step_minus.toarray()), Y)):
            want = blocks @ flat(X)
            assert np.allclose(flat(slab), want, rtol=0.0, atol=1e-12 * max(1.0, np.abs(want).max()))
        assert not MY[:, 0].any()
        assert np.allclose(flat(PY - MY), A_cal @ flat(Y), rtol=0.0, atol=1e-12 * max(1.0, np.abs(PY).max()))

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

    def test_fill_rows_in_place(self):
        # Cz of a row block, and of a strided column block, equals those
        # entries of the whole array's.
        sys = random_system(5, n=3, M=4)
        rng = np.random.default_rng(5)
        whole = constraint_products(sys, rng.standard_normal((sys.ndof, 4)), rng.standard_normal((sys.ndof, 4)))
        rows = slice(1, sys.ndof - 1)
        for part in ((slice(None), rows), (slice(None), slice(None), slice(1, 3))):
            block = whole.copy()
            block[3] = 0.0
            fill_constraint_map(block[part])
            assert np.array_equal(block[part][3], whole[part][3])
            outside = np.ones(block[3].shape, dtype=bool)
            outside[part[1:]] = False
            assert not block[3][outside].any()  # and nothing outside it is written

    def test_write_products_on_block_rows(self):
        # each mirror block's rows of the state products written from its
        # own rows of Y, with the block's stack of the step matrices, as
        # the solver's group tasks do
        sys = random_system(6, n=3, M=8).in_mirror_basis()
        rng = np.random.default_rng(6)
        Y, U = rng.standard_normal((2, sys.ndof, 8))
        out = np.zeros((4, sys.ndof, 8))
        bounds = np.cumsum([0, *sys.block_sizes])
        assert len(sys.block_sizes) == 4
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            rows = slice(lo, hi)
            stack = sp.vstack([sys.step_plus[rows, rows], sys.step_minus[rows, rows]], format="csr")
            write_products(stack, Y[rows], out[:, rows])
        assert np.array_equal(out[1:3], constraint_products(sys, Y, U)[1:3])
        assert not out[2, :, 0].any()
        assert not out[[0, 3]].any()  # and nothing else is written

    def test_step_stack_products_match_the_separate_ones(self):
        # one product of [step_plus; step_minus] is the two products, bit for bit
        sys = random_system(7, n=4, M=5)
        Y = np.random.default_rng(7).standard_normal((sys.ndof, 5))
        stacked = sys.step_stack @ Y
        assert np.array_equal(stacked[: sys.ndof], sys.step_plus @ Y)
        assert np.array_equal(stacked[sys.ndof :], sys.step_minus @ Y)


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

    @pytest.mark.parametrize("seed,n,M", [(0, 2, 1), (1, 2, 3), (2, 3, 2), (3, 2, 2 * TIME_BLOCK + 1)])
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
