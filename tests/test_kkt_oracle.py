import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dense_kkt_solution, random_system, toy_problem
from parasplit.discretization import TimeGrid, build_system, objective_vec
from parasplit.experiments import build_level, get_example
from parasplit.fem_assembly import make_space
from parasplit.kkt_oracle import solve_kkt
from parasplit.mesh import DIRICHLET, NEUMANN, uniform_unit_square
from parasplit.sparse_linalg import factorize


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

    def test_dimension_cap(self):
        sys = random_system(6, n=2, M=2)
        with pytest.raises(ValueError, match="cap"):
            solve_kkt(sys, sys.alpha, dimension_cap=10)
