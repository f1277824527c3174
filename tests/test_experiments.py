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
from parasplit import experiments, kkt_oracle, mesh, splitting_solver
from parasplit.splitting_solver import Iterate, h_norm_sq, iterate_diff
from parasplit.discretization import TimeGrid
from parasplit.fem_assembly import TIME_BLOCK, interpolate_nodal, l2_error, make_space


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

    @pytest.mark.parametrize("name", ["5.1", "5.2"])
    def test_callables_take_a_vector_of_times(self, name):
        # one call over many time levels equals the stack of scalar-t calls
        prob = get_example(name)
        rng = np.random.default_rng(1)
        x1, x2 = rng.uniform(0, 1, 30), rng.uniform(0, 1, 30)
        times = np.linspace(0.0, prob.T, 9)
        for field in ("f", "y_d", "y_star", "u_star", "y_star_dt", "y_star_lap", "u_star_dt", "u_star_lap"):
            func = getattr(prob, field)
            batched = func(x1[:, None], x2[:, None], times)
            stacked = np.column_stack([func(x1, x2, t) for t in times])
            assert batched.shape == stacked.shape, field
            assert np.max(np.abs(batched - stacked)) <= 1e-15 * max(np.max(np.abs(stacked)), 1e-300), field

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
    @pytest.mark.parametrize("M", [1, 2, 2 * TIME_BLOCK])
    def test_control_error_equals_a_per_gauss_time_loop(self, name, M):
        prob = get_example(name)
        space = make_space(mesh.uniform_unit_square(3), prob.bc)
        grid = TimeGrid(T=prob.T, M=M)
        U = np.random.default_rng(M).standard_normal((space.ndof, M))
        mids = grid.midpoints
        breaks = np.concatenate([[0.0], mids, [grid.T]])
        total = 0.0
        for lo, hi in zip(breaks[:-1], breaks[1:]):
            for gp in (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0)):
                t = lo + gp * (hi - lo)
                if M == 1:
                    coeffs = U[:, 0]
                else:
                    j = int(np.clip(np.searchsorted(mids, t) - 1, 0, M - 2))
                    w = (t - mids[j]) / (mids[j + 1] - mids[j])
                    coeffs = (1.0 - w) * U[:, j] + w * U[:, j + 1]
                err = l2_error(space, coeffs, lambda x1, x2: prob.u_star(x1, x2, t))
                total += 0.5 * (hi - lo) * err**2
        want = math.sqrt(total)
        assert error_u_spacetime(space, grid, U, prob) == pytest.approx(want, rel=1e-14, abs=0)

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

    def test_empty_level_list_rejected(self):
        with pytest.raises(ValueError, match="at least one refinement level"):
            convergence_study(get_example("5.1"), [])

    def test_mode_validated(self):
        with pytest.raises(ValueError, match="mode"):
            convergence_study(get_example("5.1"), [4], mode="exact")

    @pytest.mark.parametrize("mode", ["oracle", "splitting"])
    def test_bounds_rejected(self, mode):
        # the errors are those of the problem without bounds, in both modes
        prob = get_example("5.1")
        config = SolverConfig(alpha=prob.alpha, beta=1.0, bounds=(0.0, 0.1))
        with pytest.raises(ValueError, match="bounds") as err:
            convergence_study(prob, [4, 8], config=config, mode=mode)
        assert "\n" not in str(err.value)

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

    @pytest.mark.parametrize("name", ["5.1", "5.2"])
    def test_distances_match_the_monitor_iterates(self, name):
        # the distances of the iterates a monitor copies, in node
        # coordinates, with every product formed from scratch
        prob = get_example(name)
        config = SolverConfig(alpha=prob.alpha, beta=1.0, epsilon=0.0, k_max=25)
        records = iteration_history(prob, config, 3)
        sys = build_level(prob, 3)
        sol = kkt_oracle.solve_kkt(sys, prob.alpha)
        w_star = Iterate.of(sol.U_star, sol.Y_star, sol.lambda_star)
        iterates = []
        splitting_solver.solve(sys, config, monitor=lambda k, w: iterates.append(w.copy()))
        expected = [math.sqrt(h_norm_sq(sys, iterate_diff(w, w_star), config.beta)) for w in iterates]
        got = [r.hnorm_to_star for r in records]
        assert len(got) == 25
        assert np.allclose(got, expected, rtol=1e-12, atol=0.0)

    def test_bounds_rejected(self):
        # box iterates have no distance to the unconstrained oracle's point
        prob = get_example("5.1")
        config = SolverConfig(alpha=prob.alpha, beta=1.0, k_max=5, bounds=(0.0, 0.1))
        with pytest.raises(ValueError, match="bounds") as err:
            iteration_history(prob, config, 2)
        assert "\n" not in str(err.value)


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
        benchmark(prob, config, 2, [1, 2], k=20)
        # three rounds, the thread counts interleaved
        assert [c.bounds for c in configs] == [(0.0, 0.8)] * 6
        assert [(c.epsilon, c.k_max, c.thread_count) for c in configs] == [(0.0, 20, 1), (0.0, 20, 2)] * 3

    def test_every_round_checks_the_iterates(self, monkeypatch):
        # an iterate that differs in the last round only is caught
        calls = []
        real = experiments.solve

        def solve(sys, cfg):
            w, report = real(sys, cfg)
            calls.append(cfg.thread_count)
            if len(calls) == 6:
                w.z[0, 0, 0] += 1.0
            return w, report

        monkeypatch.setattr(experiments, "solve", solve)
        prob = get_example("5.1")
        with pytest.raises(RuntimeError, match="2 threads differs"):
            benchmark(prob, SolverConfig(alpha=prob.alpha, beta=1.0), 2, [1, 2], k=3)
        assert calls == [1, 2] * 3

    def test_speedup_baseline_is_the_serial_run(self):
        prob = get_example("5.1")
        config = SolverConfig(alpha=prob.alpha, beta=1.0)
        rows = benchmark(prob, config, 2, [2, 1], k=3)
        assert [r.threads for r in rows] == [2, 1]
        assert rows[1].psf == 1.0
        assert rows[0].psf == rows[1].seconds_total / rows[0].seconds_total
        for threads in ([2], [], [2, 4]):
            with pytest.raises(ValueError, match="must include 1"):
                benchmark(prob, config, 2, threads, k=3)
