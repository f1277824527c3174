import dataclasses
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    dense_box_h_matrix,
    dense_h_matrix,
    dense_q,
    prediction_row_residuals,
    flat,
    flatten_for_box_h,
    flatten_for_h,
    random_iterate,
    random_system,
    reference_loop,
)
from parasplit.discretization import constraint_products, constraint_residual
from parasplit.experiments import build_level, get_example
from parasplit.kkt_oracle import solve_kkt
from parasplit.mesh import DIRICHLET, NEUMANN
from parasplit import splitting_solver
from parasplit.sparse_linalg import factorize
from parasplit.splitting_solver import (
    Iterate,
    PredictionFactors,
    SolverConfig,
    compute_q,
    correct,
    correction_factor,
    h_norm_sq,
    iterate_diff,
    predict,
    predict_multiplier,
    solve,
)

CASES = [(0, 2, 1), (1, 2, 2), (2, 2, 3), (3, 3, 2)]


def _config(sys, beta=1.0, **kw):
    return SolverConfig(alpha=sys.alpha, beta=beta, **kw)


class TestCorrectionFactor:
    def test_single_step(self):
        assert correction_factor(1, 1.0) == pytest.approx(1.0 - np.sqrt(2.0 / 3.0), rel=1e-12)

    def test_fifty_steps(self):
        nu = correction_factor(50, 1.5)
        assert nu == pytest.approx(1.5 * (1.0 - np.sqrt(100.0 / 101.0)), rel=1e-12)
        assert nu == pytest.approx(0.0074256, rel=5e-3)

    def test_monotone_in_block_count(self):
        values = [correction_factor(M, 1.0) for M in (1, 2, 5, 20, 100)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert correction_factor(4, 1.0, blocks_per_step=3) < correction_factor(4, 1.0)

    def test_range(self):
        for M in (1, 3, 10):
            for gamma in (0.5, 1.0, 1.9):
                nu = correction_factor(M, gamma)
                assert 0.0 < nu < gamma

    def test_validation(self):
        with pytest.raises(ValueError, match="step count"):
            correction_factor(0, 1.0)
        with pytest.raises(ValueError, match="gamma"):
            correction_factor(3, 2.0)
        with pytest.raises(ValueError, match="gamma"):
            correction_factor(3, 0.0)


class TestComputeQ:
    def test_feasible_point_zero_multiplier(self):
        sys = random_system(0, n=2, M=3)
        rng = np.random.default_rng(1)
        U = rng.standard_normal((sys.ndof, 3))
        # march the constraint forward to get a feasible state trajectory
        fac = factorize(sys.step_plus)
        Y = np.empty_like(U)
        prev = np.zeros(sys.ndof)
        for m in range(3):
            rhs = sys.rhs[:, m] + sys.grid.tau * (sys.mass @ U[:, m])
            if m > 0:
                rhs += sys.step_minus @ prev
            Y[:, m] = fac.solve(rhs)
            prev = Y[:, m]
        q = compute_q(sys, Iterate.of(U, Y, np.zeros_like(U)), beta=0.7)
        assert q.shape == (sys.ndof, 3)
        assert np.allclose(q, 0.0, atol=1e-11)

    def test_zero_iterate_zero_data(self):
        sys = random_system(2, n=2, M=2)
        sys = type(sys)(**{**sys.__dict__, "rhs": np.zeros_like(sys.rhs)})
        E = np.ones((sys.ndof, 2))
        w = Iterate.of(np.zeros_like(E), np.zeros_like(E), 0.7 * E)
        q = compute_q(sys, w, beta=0.7)
        assert q.shape == (sys.ndof, 2)
        assert np.allclose(q, -E, atol=1e-15)

    @pytest.mark.parametrize("seed,n,M", CASES)
    def test_matches_dense_oracle(self, seed, n, M):
        sys = random_system(seed, n=n, M=M)
        w = random_iterate(seed + 10, sys)
        beta = 0.3 + 0.1 * seed
        q = compute_q(sys, w, beta)
        assert np.allclose(flat(q), dense_q(sys, w, beta), atol=1e-12)


class TestPrediction:
    def test_zero_everything_stays_zero(self):
        sys = random_system(0, n=2, M=2)
        zeros = np.zeros_like(sys.rhs)
        sys = type(sys)(
            **{
                **sys.__dict__,
                "rhs": zeros,
                "desired_loads": zeros,
                "y0_nodal": np.zeros(sys.ndof),
            }
        )
        config = _config(sys)
        w = Iterate.zeros(sys.ndof, 2)
        w_t = predict(sys, w, config, PredictionFactors.build(sys, config))
        for arr in (w_t.U, w_t.Y, w_t.lam):
            assert np.allclose(arr, 0.0, atol=1e-15)

    @pytest.mark.parametrize("seed,n,M", CASES)
    def test_subproblem_optimality_rows(self, seed, n, M):
        sys = random_system(seed, n=n, M=M)
        w = random_iterate(seed + 20, sys)
        config = _config(sys, beta=10.0 ** np.random.default_rng(seed).uniform(-1, 1))
        w_t = predict(sys, w, config, PredictionFactors.build(sys, config))
        res = prediction_row_residuals(sys, w, w_t, config.alpha, config.beta)
        assert res.max() <= 1e-9

    def test_control_row_direct_substitution(self):
        sys = random_system(5, n=2, M=3)
        w = random_iterate(6, sys)
        config = _config(sys, beta=0.8)
        q = compute_q(sys, w, config.beta)
        U_t = predict(sys, w, config, PredictionFactors.build(sys, config)).U
        A = sys.mass.toarray()
        tau = sys.grid.tau
        lhs = config.alpha * tau * (A @ U_t) + config.beta * tau * tau * (A @ (A @ U_t))
        rhs = config.beta * (tau * tau * (A @ (A @ w.U)) + tau * (A @ q[:, :3]))
        assert np.allclose(lhs, rhs, atol=1e-10 * max(1.0, np.abs(rhs).max()))

    def test_single_step_terminal_state_row(self):
        sys = random_system(7, n=2, M=1)
        w = random_iterate(8, sys)
        config = _config(sys, beta=1.3)
        q = compute_q(sys, w, config.beta)
        Y_t = predict(sys, w, config, PredictionFactors.build(sys, config)).Y
        tau = sys.grid.tau
        A = sys.mass.toarray()
        cp = sys.step_plus.toarray()
        lhs_mat = 0.5 * tau * A + config.beta * (cp.T @ cp)
        rhs = (
            0.5 * tau * sys.desired_loads[:, 0]
            + config.beta * (cp.T @ (cp @ w.Y[:, 0] - q[:, 0]))
        )
        assert np.allclose(lhs_mat @ Y_t[:, 0], rhs, atol=1e-10 * max(1.0, np.abs(rhs).max()))

    def test_factored_normal_matrices(self, monkeypatch):
        factored = []
        real = splitting_solver.factorize
        monkeypatch.setattr(
            splitting_solver, "factorize", lambda mat: factored.append(mat.toarray()) or real(mat)
        )
        for seed, n, M, bc in [(0, 2, 2, NEUMANN), (1, 3, 1, NEUMANN), (2, 2, 3, DIRICHLET)]:
            sys = random_system(seed, n=n, M=M, bc=bc)
            tau, A = sys.grid.tau, sys.mass.toarray()
            cp, cm = sys.step_plus.toarray(), sys.step_minus.toarray()
            for bounds in (None, (0.0, 1.0)):
                config = _config(sys, beta=2.5, bounds=bounds)
                shift = config.beta * np.eye(sys.ndof) if bounds else 0.0
                factored.clear()
                PredictionFactors.build(sys, config)
                *state, terminal = factored[1:]  # factored[0] is the control mass shift
                assert len(state) == (M > 1)
                for mat in state:
                    want = tau * A + config.beta * (cp.T @ cp + cm.T @ cm) + shift
                    assert np.allclose(mat, want, atol=1e-13)
                want = 0.5 * tau * A + config.beta * (cp.T @ cp) + shift
                assert np.allclose(terminal, want, atol=1e-14)

    def test_multiplier_update(self):
        sys = random_system(9, n=2, M=2)
        w = random_iterate(10, sys)
        rng = np.random.default_rng(11)
        U_t = rng.standard_normal((sys.ndof, 2))
        Y_t = rng.standard_normal((sys.ndof, 2))
        beta = 0.4
        expected = w.lam - beta * constraint_residual(sys, Y_t, U_t)
        products_t = constraint_products(sys, Y_t, U_t)
        assert np.allclose(predict_multiplier(sys, w, products_t, beta), expected, atol=1e-13)


class TestCorrect:
    BLOCKS = ("U", "Y", "lam")
    BOX_BLOCKS = ("U", "Y", "lam", "P", "mu")

    def _pair(self, box=False):
        sys = random_system(0, n=2, M=2)
        return sys, random_iterate(1, sys, box), random_iterate(2, sys, box)

    def test_nu_zero_keeps_w(self):
        _, w, w_t = self._pair()
        out = correct(w, iterate_diff(w, w_t), 0.0)
        assert np.array_equal(out.U, w.U) and np.array_equal(out.Y, w.Y)
        assert np.array_equal(out.lam, w.lam)

    def test_nu_one_gives_prediction(self):
        _, w, w_t = self._pair()
        out = correct(w, iterate_diff(w, w_t), 1.0)
        assert np.allclose(out.U, w_t.U) and np.allclose(out.lam, w_t.lam)

    def test_half_step_interpolates(self):
        _, _, w_t = self._pair()
        w = Iterate.of(2.0 * w_t.U, 2.0 * w_t.Y, 2.0 * w_t.lam)
        out = correct(w, iterate_diff(w, w_t), 0.5)
        assert np.allclose(out.U, 1.5 * w_t.U, atol=1e-15)
        assert np.allclose(out.Y, 1.5 * w_t.Y, atol=1e-15)

    def test_blocks_are_slabs(self):
        sys, w, _ = self._pair()
        assert w.z.shape == (3, sys.ndof, 2) and not w.is_box
        assert w.P is None and w.mu is None
        _, b, _ = self._pair(box=True)
        assert b.z.shape == (5, sys.ndof, 2) and b.is_box
        for i, name in enumerate(self.BOX_BLOCKS):
            assert np.shares_memory(getattr(b, name), b.z[i])
        assert np.array_equal(Iterate.of(b.U, b.Y, b.lam, b.P, b.mu).z, b.z)
        assert np.array_equal(Iterate.of(w.U, w.Y, w.lam).z, w.z)

    @pytest.mark.parametrize("box", [False, True])
    def test_every_block_and_product(self, box):
        sys, w, w_t = self._pair(box)
        w.products = constraint_products(sys, w.Y, w.U)
        w_t.products = constraint_products(sys, w_t.Y, w_t.U)
        z0, p0 = w.z.copy(), w.products.copy()
        names = self.BOX_BLOCKS if box else self.BLOCKS
        nu = 0.3
        d = iterate_diff(w, w_t)
        for name in names:
            a, b = getattr(w, name), getattr(w_t, name)
            assert np.array_equal(getattr(d, name), a - b)
        for slab, (a, b) in enumerate(zip(w.products, w_t.products)):
            assert np.array_equal(d.products[slab], a - b)
        out = correct(w, d, nu)
        for name in names:
            a, b = getattr(w, name), getattr(w_t, name)
            assert np.array_equal(getattr(out, name), a - nu * (a - b))
        for slab, (a, b) in enumerate(zip(w.products, w_t.products)):
            assert np.array_equal(out.products[slab], a - nu * (a - b))
        # The corrected products are the products of the corrected iterate.
        np.testing.assert_allclose(
            out.products, constraint_products(sys, out.Y, out.U), rtol=0, atol=1e-12
        )
        assert np.array_equal(w.z, z0) and np.array_equal(w.products, p0)

    @pytest.mark.parametrize("box", [False, True])
    def test_diff_into_second_argument(self, box):
        sys, w, w_t = self._pair(box)
        w.products = constraint_products(sys, w.Y, w.U)
        w_t.products = constraint_products(sys, w_t.Y, w_t.U)
        z0, p0, zt0, pt0 = w.z.copy(), w.products.copy(), w_t.z.copy(), w_t.products.copy()
        fresh = iterate_diff(w, w_t)
        for a, b in ((w.z, z0), (w.products, p0), (w_t.z, zt0), (w_t.products, pt0)):
            assert np.array_equal(a, b)
        d = iterate_diff(w, w_t, out=w_t)
        assert d.z is w_t.z and d.products is w_t.products
        assert np.array_equal(d.z, fresh.z) and np.array_equal(d.products, fresh.products)
        assert np.array_equal(w.z, z0) and np.array_equal(w.products, p0)

    def test_products_only_when_both_carry_them(self):
        sys, w, w_t = self._pair()
        w_t.products = constraint_products(sys, w_t.Y, w_t.U)
        assert iterate_diff(w, w_t).products is None
        assert iterate_diff(w_t, w).products is None
        w.products = constraint_products(sys, w.Y, w.U)
        assert correct(w, iterate_diff(w, Iterate(w_t.z)), 0.5).products is None


class TestHNorm:
    def test_zero(self):
        sys = random_system(0, n=2, M=2)
        assert h_norm_sq(sys, Iterate.zeros(sys.ndof, 2), 0.5) == 0.0

    def test_multiplier_only(self):
        sys = random_system(1, n=2, M=2)
        lam = np.random.default_rng(0).standard_normal((sys.ndof, 2))
        v = Iterate.of(np.zeros_like(lam), np.zeros_like(lam), lam)
        assert h_norm_sq(sys, v, 0.5) == pytest.approx((lam**2).sum() / 0.5, rel=1e-13)

    @pytest.mark.parametrize("seed,n,M", CASES)
    def test_matches_dense_matrix(self, seed, n, M):
        sys = random_system(seed, n=n, M=M)
        beta = 10.0 ** np.random.default_rng(seed).uniform(-1, 1)
        H = dense_h_matrix(sys, beta)
        for trial in range(5):
            v = random_iterate(100 * seed + trial, sys)
            x = flatten_for_h(sys, v)
            dense = float(x @ (H @ x))
            assert h_norm_sq(sys, v, beta) == pytest.approx(dense, rel=1e-11)

    @pytest.mark.parametrize("seed,n,M", [(0, 2, 1), (1, 2, 2), (2, 2, 3)])
    def test_box_matches_dense_matrix(self, seed, n, M):
        sys = random_system(seed, n=n, M=M)
        beta = 0.7
        H = dense_box_h_matrix(sys, beta)
        for trial in range(3):
            v = random_iterate(200 * seed + trial, sys, box=True)
            x = flatten_for_box_h(sys, v)
            dense = float(x @ (H @ x))
            assert h_norm_sq(sys, v, beta) == pytest.approx(dense, rel=1e-11)

    def test_positive_on_nonzero(self):
        sys = random_system(3, n=2, M=2)
        for trial in range(10):
            v = random_iterate(trial, sys)
            assert h_norm_sq(sys, v, 1.0) > 0.0


class TestSolve:
    def test_zero_data_converges_immediately(self):
        sys = random_system(0, n=2, M=2)
        zeros = np.zeros_like(sys.rhs)
        sys = type(sys)(
            **{
                **sys.__dict__,
                "rhs": zeros,
                "desired_loads": zeros,
                "y0_nodal": np.zeros(sys.ndof),
            }
        )
        w, report = solve(sys, _config(sys))
        assert report.converged
        assert report.iterations == 1
        assert np.allclose(w.U, 0.0) and np.allclose(w.Y, 0.0)

    def test_saddle_point_is_fixed(self):
        sys = random_system(1, n=2, M=3)
        config = _config(sys, beta=0.8)
        star = solve_kkt(sys, sys.alpha)
        w_star = Iterate.of(star.U_star, star.Y_star, star.lambda_star)
        w_t = predict(sys, w_star, config, PredictionFactors.build(sys, config))
        scale = max(np.abs(star.U_star).max(), np.abs(star.Y_star).max(), np.abs(star.lambda_star).max())
        assert np.allclose(w_t.U, w_star.U, atol=1e-9 * scale)
        assert np.allclose(w_t.Y, w_star.Y, atol=1e-9 * scale)
        assert np.allclose(w_t.lam, w_star.lam, atol=1e-9 * scale)

    def test_distance_to_solution_contracts(self):
        sys = random_system(2, n=2, M=2)
        config = _config(sys, beta=1.0, epsilon=0.0, k_max=40)
        star = solve_kkt(sys, sys.alpha)
        w_star = Iterate.of(star.U_star, star.Y_star, star.lambda_star)
        dists = []
        solve(sys, config, monitor=lambda k, w: dists.append(
            h_norm_sq(sys, iterate_diff(w, w_star), config.beta)
        ))
        dists = np.asarray(dists)
        assert dists[-1] < dists[0]
        assert np.all(dists[1:] <= dists[:-1] * (1.0 + 1e-12))

    def test_thread_count_is_bitwise_deterministic(self):
        sys = random_system(3, n=2, M=3)
        results = []
        for threads in (1, 4):
            config = _config(sys, beta=0.5, epsilon=0.0, k_max=25, thread_count=threads)
            w, _ = solve(sys, config)
            results.append(w)
        assert np.array_equal(results[0].U, results[1].U)
        assert np.array_equal(results[0].Y, results[1].Y)
        assert np.array_equal(results[0].lam, results[1].lam)

    @pytest.mark.parametrize("box", [False, True])
    def test_thread_count_bitwise_across_chunks(self, box):
        # M = 21: 21 control and 20 interior-state columns, neither a multiple
        # of the 8-column chunk.  On this system the multi-RHS solves of both
        # runs depend on the batch width in the last bits (on coarse meshes
        # they do not), so chunking that followed the thread count would show.
        sys = random_system(11, n=28, M=21)
        bounds = (-0.5, 0.5) if box else None
        runs = []
        for threads in (1, 2, 8):
            config = _config(sys, beta=0.5, epsilon=0.0, k_max=15, thread_count=threads, bounds=bounds)
            runs.append(solve(sys, config))
        for w, report in runs[1:]:
            assert np.array_equal(w.z, runs[0][0].z)
            assert np.array_equal(report.increment_history, runs[0][1].increment_history)

    def test_one_pool_per_threaded_solve(self, monkeypatch):
        workers = []
        init = ThreadPoolExecutor.__init__

        def counting_init(self, max_workers=None, *args, **kwargs):
            workers.append(max_workers)
            init(self, max_workers, *args, **kwargs)

        monkeypatch.setattr(ThreadPoolExecutor, "__init__", counting_init)
        sys = random_system(12, n=2, M=19)
        solve(sys, _config(sys, epsilon=0.0, k_max=4))
        assert workers == []
        solve(sys, _config(sys, epsilon=0.0, k_max=4, thread_count=8))
        assert workers == [min(8, len(os.sched_getaffinity(0)))]

    def test_pool_threads_end_with_the_solve(self):
        sys = random_system(13, n=2, M=19)
        config = _config(sys, epsilon=0.0, k_max=5, bounds=(-0.5, 0.5), thread_count=2)
        before = threading.active_count()
        solve(sys, config)
        assert threading.active_count() == before

        during = []

        def monitor(k, w):
            during.append(threading.active_count())
            if k == 3:
                raise RuntimeError("stop at k=3")

        with pytest.raises(RuntimeError, match="k=3"):
            solve(sys, config, monitor=monitor)
        assert max(during) > before  # the pool's workers were alive mid-solve
        assert threading.active_count() == before

    def test_one_entry_point(self):
        sys = random_system(4, n=2, M=2)
        w, report = solve(sys, _config(sys, k_max=3, bounds=(0.0, 1.0)))
        assert w.z.shape == (5, sys.ndof, 2)
        assert report.gap_history is not None and len(report.gap_history) == report.iterations
        w, report = solve(sys, _config(sys, k_max=3))
        assert w.z.shape == (3, sys.ndof, 2)
        assert report.gap_history is None
        assert splitting_solver.solve_box is splitting_solver.solve

    def test_non_finite_data_stops_at_first_iteration(self):
        sys = random_system(8, n=2, M=3)
        rhs = sys.rhs.copy()
        rhs[0, 1] = np.nan
        sys = dataclasses.replace(sys, rhs=rhs)
        _, report = solve(sys, _config(sys, k_max=50))
        assert report.iterations == 1
        assert report.stop_reason == "non_finite"
        assert not report.converged

    def test_iteration_cap_reported(self):
        sys = random_system(9, n=2, M=2)
        _, report = solve(sys, _config(sys, epsilon=0.0, k_max=7))
        assert report.iterations == 7
        assert report.stop_reason == "k_max"
        assert not report.converged
        assert len(report.increment_history) == 7

    def test_carried_residual_does_not_drift(self):
        prob = get_example("5.1")
        sys = build_level(prob, 8)
        w, report = solve(sys, SolverConfig(alpha=prob.alpha, beta=prob.beta))
        assert report.stop_reason == "converged" and report.converged
        assert report.residual_drift <= 1e-12
        assert report.final_constraint_norm == pytest.approx(
            np.linalg.norm(constraint_residual(sys, w.Y, w.U)), rel=1e-15
        )
        assert w.products is None

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        bc=st.sampled_from([NEUMANN, DIRICHLET]),
        n=st.sampled_from([2, 3]),
        M=st.integers(min_value=1, max_value=4),
        K=st.integers(min_value=1, max_value=6),
        box=st.booleans(),
        beta=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_carried_products_match_from_scratch_loop(self, seed, bc, n, M, K, box, beta):
        sys = random_system(seed, n=n, M=M, bc=bc)
        bounds = (-0.5, 0.5) if box else None
        config = _config(sys, beta=beta, epsilon=0.0, k_max=K, bounds=bounds)
        w, report = solve(sys, config)
        w_ref, increments_ref = reference_loop(sys, config, K)
        assert report.iterations == K and report.stop_reason == "k_max"
        names = ("U", "Y", "lam", "P", "mu") if box else ("U", "Y", "lam")
        for name in names:
            got, want = getattr(w, name), getattr(w_ref, name)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())
        np.testing.assert_allclose(report.increment_history, increments_ref, rtol=1e-10)

    @pytest.mark.parametrize("M,box", [(1, False), (3, False), (3, True)])
    def test_factor_nnz_reported(self, M, box):
        sys = random_system(8, n=3, M=M)
        bounds = (-1.0, 1.0) if box else None
        config = SolverConfig(alpha=sys.alpha, beta=1.0, k_max=1, bounds=bounds)
        _, report = solve(sys, config)
        factors = PredictionFactors.build(sys, config)
        expected = {
            name: f._lu.L.nnz + f._lu.U.nnz for name, f in vars(factors).items() if f is not None
        }
        assert set(expected) == ({"control", "terminal"} if M == 1 else {"control", "state", "terminal"})
        assert report.factor_nnz == expected

    def test_alpha_mismatch_rejected(self):
        sys = random_system(5, n=2, M=2)
        config = SolverConfig(alpha=2.0 * sys.alpha, beta=1.0)
        with pytest.raises(ValueError, match="alpha"):
            solve(sys, config)
        with pytest.raises(ValueError, match="alpha"):
            solve(sys, SolverConfig(alpha=2.0 * sys.alpha, beta=1.0, bounds=(0.0, 1.0)))


class TestSolveBox:
    def test_copy_block_is_projection(self):
        sys = random_system(5, n=2, M=2)
        config = _config(sys, beta=1.0, bounds=(0.0, 0.8))
        w = Iterate.zeros(sys.ndof, 2, box=True)
        w.Y[:] = 1.2
        w_t = predict(sys, w, config, PredictionFactors.build(sys, config))
        assert np.allclose(w_t.P, 0.8, atol=1e-15)
        assert np.allclose(w_t.mu, -config.beta * (w_t.Y - w_t.P), atol=1e-13)

    def test_wide_bounds_match_unconstrained_direction(self):
        # with huge bounds the projection never activates, and the box run
        # still converges to a feasible point of the equality constraint
        sys = random_system(6, n=2, M=2)
        config = _config(sys, beta=1.0, bounds=(-1e9, 1e9), epsilon=1e-22, k_max=30000)
        w, report = solve(sys, config)
        assert report.converged
        assert report.gap_history is not None
        assert report.gap_history[-1] <= 1e-8
        assert np.allclose(w.P, w.Y, atol=1e-8)
        assert report.residual_drift <= 1e-12

    def test_solution_respects_bounds(self):
        sys = random_system(7, n=2, M=2)
        lo, hi = -0.05, 0.05
        config = _config(sys, beta=1.0, bounds=(lo, hi), epsilon=1e-24, k_max=5000)
        w, _ = solve(sys, config)
        assert w.P.min() >= lo - 1e-12
        assert w.P.max() <= hi + 1e-12


class TestConfigValidation:
    def test_parameter_checks(self):
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="alpha"):
                SolverConfig(alpha=bad, beta=1.0)
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="beta"):
                SolverConfig(alpha=1.0, beta=bad)
        with pytest.raises(ValueError, match="gamma"):
            SolverConfig(alpha=1.0, beta=1.0, gamma=2.5)
        for bad in (-1e-3, math.nan):
            with pytest.raises(ValueError, match="epsilon"):
                SolverConfig(alpha=1.0, beta=1.0, epsilon=bad)
        for bounds in ((1.0, 0.0), (math.nan, 1.0), (0.0, math.nan)):
            with pytest.raises(ValueError, match="bound"):
                SolverConfig(alpha=1.0, beta=1.0, bounds=bounds)
        SolverConfig(alpha=1.0, beta=1.0, bounds=(-math.inf, math.inf))
        for bad in (0, 2.5):
            with pytest.raises(ValueError, match="k_max"):
                SolverConfig(alpha=1.0, beta=1.0, k_max=bad)
        for bad in (0, 1.5):
            with pytest.raises(ValueError, match="thread_count"):
                SolverConfig(alpha=1.0, beta=1.0, thread_count=bad)
