import math

import numpy as np
import pytest

from parasplit.experiments import (
    SolverConfig,
    adjoint_residual,
    benchmark,
    build_level,
    convergence_study,
    error_u_spacetime,
    error_y_final,
    example_5_2_coefficients,
    get_example,
    iteration_history,
    pde_residual,
    steps_for_level,
)
from parasplit import experiments, mesh
from parasplit.fem_assembly import interpolate_nodal


def _exact_snapshots(sys, func, times):
    return np.column_stack(
        [interpolate_nodal(sys.space, lambda x1, x2, t=t: func(x1, x2, t)) for t in times]
    )


class TestExamples:
    def test_initial_state_peak(self):
        prob = get_example("5.1")
        assert prob.y_star(0.5, 0.5, 0.0) == pytest.approx(1.0)
        assert prob.y0(0.5, 0.5) == pytest.approx(1.0)

    def test_control_vanishes_at_integer_times(self):
        prob = get_example("5.1")
        for t in (0.0, 1.0, 2.0):
            assert prob.u_star(0.25, 0.75, t) == pytest.approx(0.0, abs=1e-12)

    def test_dirichlet_state_vanishes_on_boundary(self):
        prob = get_example("5.1")
        x = np.linspace(0.0, 1.0, 7)
        for t in (0.3, 1.7):
            assert np.allclose(prob.y_star(x, np.zeros_like(x), t), 0.0, atol=1e-14)
            assert np.allclose(prob.y_star(np.ones_like(x), x, t), 0.0, atol=1e-14)

    def test_neumann_normal_derivative_vanishes(self):
        prob = get_example("5.2")
        eps = 1e-6
        x2 = np.linspace(0.0, 1.0, 5)
        for side in (0.0, 1.0):
            d = (prob.y_star(side + eps, x2, 0.4) - prob.y_star(side - eps, x2, 0.4)) / (2 * eps)
            assert np.allclose(d, 0.0, atol=1e-4)

    @pytest.mark.parametrize("name", ["5.1", "5.2"])
    def test_optimality_system_residuals(self, name):
        prob = get_example(name)
        rng = np.random.default_rng(0)
        x1, x2 = rng.uniform(0, 1, 100), rng.uniform(0, 1, 100)
        for t in rng.uniform(0, prob.T, 5):
            assert np.abs(pde_residual(prob, x1, x2, t)).max() <= 1e-8
            assert np.abs(adjoint_residual(prob, x1, x2, t)).max() <= 1e-8

    def test_coefficients(self):
        c = example_5_2_coefficients(1e-3)
        assert c["c2"] == pytest.approx(5.0)
        assert c["c4"] == pytest.approx(0.25)
        assert c["c10"] == pytest.approx(0.25 + 1e-3 * math.pi**4, rel=1e-12)
        assert c["c10"] == pytest.approx(0.3474091, abs=1e-6)
        assert c["c9"] == pytest.approx(4.0 * c["c3"] * c["c10"], rel=1e-12)

    @pytest.mark.parametrize("name", ["5.1", "5.2"])
    def test_get_example_alpha(self, name):
        assert get_example(name, alpha=0.1).alpha == 0.1
        assert get_example(name).alpha == get_example(name, alpha=None).alpha

    def test_get_example_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown example"):
            get_example("5.3")


class TestErrorNorms:
    def test_final_state_error_of_zero(self):
        prob = get_example("5.1")
        sys = build_level(prob, 16)
        err = error_y_final(sys.space, np.zeros(sys.ndof), prob)
        assert err == pytest.approx(0.5, abs=3e-3)

    def test_final_state_interpolation_second_order(self):
        prob = get_example("5.1")
        errs = []
        for n in (4, 8):
            sys = build_level(prob, n)
            coeffs = interpolate_nodal(
                sys.space, lambda x1, x2: prob.y_star(x1, x2, prob.T)
            )
            errs.append(error_y_final(sys.space, coeffs, prob))
        assert 3.0 < errs[0] / errs[1] < 5.0

    def test_control_error_of_zero(self):
        prob = get_example("5.1")
        sys = build_level(prob, 16)
        err = error_u_spacetime(sys.space, sys.grid, np.zeros((sys.ndof, sys.grid.M)), prob)
        assert err == pytest.approx(0.5, abs=3e-3)

    def test_control_error_of_exact_samples_second_order(self):
        prob = get_example("5.1")
        errs = []
        for n in (4, 8):
            sys = build_level(prob, n)
            U = _exact_snapshots(sys, prob.u_star, sys.grid.midpoints)
            errs.append(error_u_spacetime(sys.space, sys.grid, U, prob))
        assert 3.0 < errs[0] / errs[1] < 5.0

    @pytest.mark.parametrize("name", ["5.1", "5.2"])
    def test_geometry_computed_once_per_mesh(self, monkeypatch, name):
        calls = []
        real = mesh.triangle_areas

        def counted(xy):
            calls.append(xy.shape[0])
            return real(xy)

        monkeypatch.setattr(mesh, "triangle_areas", counted)
        prob = get_example(name)
        sys = build_level(prob, 4)
        error_y_final(sys.space, np.zeros(sys.ndof), prob)
        error_u_spacetime(sys.space, sys.grid, np.zeros((sys.ndof, sys.grid.M)), prob)
        assert calls == [sys.space.mesh.num_elements]

    def test_missing_exact_solution_rejected(self):
        prob = get_example("5.1")
        sys = build_level(prob, 2)
        import dataclasses

        stripped = dataclasses.replace(prob, y_star=None, u_star=None)
        with pytest.raises(ValueError, match="exact"):
            error_y_final(sys.space, np.zeros(sys.ndof), stripped)
        with pytest.raises(ValueError, match="exact"):
            error_u_spacetime(sys.space, sys.grid, np.zeros((sys.ndof, sys.grid.M)), stripped)


class TestConvergenceStudy:
    def test_single_level_has_no_orders(self):
        rows = convergence_study(get_example("5.1"), [4])
        assert len(rows) == 1
        assert rows[0].order_y is None and rows[0].order_u is None
        assert rows[0].h == pytest.approx(0.25)
        assert rows[0].tau == pytest.approx(0.25)

    def test_levels_must_ascend(self):
        for levels in ([8, 4], [4, 4]):
            with pytest.raises(ValueError, match="ascending"):
                convergence_study(get_example("5.1"), levels)

    def test_mode_validated(self):
        with pytest.raises(ValueError, match="mode"):
            convergence_study(get_example("5.1"), [4], mode="exact")

    @pytest.mark.parametrize("mode", ["oracle", "splitting"])
    def test_alpha_mismatch_rejected(self, mode):
        config = SolverConfig(alpha=0.1, beta=1.0)
        with pytest.raises(ValueError, match="alpha"):
            convergence_study(get_example("5.1"), [2], config=config, mode=mode)

    def test_oracle_orders_small_study(self):
        rows = convergence_study(get_example("5.1"), [4, 8, 16])
        for row in rows[1:]:
            assert 1.8 <= row.order_y <= 2.2
            assert 1.7 <= row.order_u <= 2.2
        assert rows[0].err_y_final > rows[-1].err_y_final

    def test_splitting_mode_matches_oracle(self):
        prob = get_example("5.1")
        config = SolverConfig(alpha=prob.alpha, beta=1.0, epsilon=1e-20, k_max=20000)
        oracle = convergence_study(prob, [4], mode="oracle")
        split = convergence_study(prob, [4], config=config, mode="splitting")
        assert split[0].err_y_final == pytest.approx(oracle[0].err_y_final, rel=1e-4)
        assert split[0].err_u_spacetime == pytest.approx(oracle[0].err_u_spacetime, rel=1e-4)


class TestLevelCoupling:
    def test_time_steps_track_final_time(self):
        assert steps_for_level(get_example("5.1"), 4) == 8
        assert steps_for_level(get_example("5.2"), 4) == 4

    def test_non_integer_product_rejected(self):
        import dataclasses

        prob = dataclasses.replace(get_example("5.2"), T=0.3)
        with pytest.raises(ValueError, match="integer"):
            steps_for_level(prob, 2)


class TestIterationHistory:
    def test_distances_decrease(self):
        prob = get_example("5.1")
        config = SolverConfig(alpha=prob.alpha, beta=1.0, epsilon=0.0, k_max=30)
        records = iteration_history(prob, config, 2)
        assert len(records) == 30
        assert [r.k for r in records] == list(range(1, 31))
        dists = np.array([r.hnorm_to_star for r in records])
        assert np.all(np.isfinite(dists))
        assert dists[-1] < dists[0]
        assert np.all(dists[1:] <= dists[:-1] * (1.0 + 1e-12))
        assert all(r.hnorm_increment_sq >= 0.0 for r in records)


class TestBenchmark:
    def test_reference_row_and_speedups(self):
        prob = get_example("5.1")
        config = SolverConfig(alpha=prob.alpha, beta=1.0)
        rows = benchmark(prob, config, 4, [1, 2], k=20)
        assert len(rows) == 2
        assert rows[0].threads == 1
        assert rows[0].psf == pytest.approx(1.0)
        for row in rows:
            assert row.psf > 0.0
            assert row.seconds_total >= row.seconds_predict >= 0.0

    def test_bounds_reach_the_solver(self, monkeypatch):
        configs = []
        real = experiments.solve
        monkeypatch.setattr(experiments, "solve", lambda sys, cfg: configs.append(cfg) or real(sys, cfg))
        prob = get_example("5.1")
        config = SolverConfig(alpha=prob.alpha, beta=1.0, bounds=(0.0, 0.8))
        benchmark(prob, config, 2, [1, 2], k=3)
        assert [c.bounds for c in configs] == [(0.0, 0.8)] * 2
        assert [(c.epsilon, c.k_max, c.thread_count) for c in configs] == [(0.0, 3, 1), (0.0, 3, 2)]
