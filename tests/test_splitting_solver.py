import dataclasses
import math
import os
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
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
from parasplit.discretization import (
    TimeGrid,
    build_system,
    constraint_products,
    constraint_residual,
    one_step_on,
    write_products,
)
from parasplit.experiments import build_level, get_example
from parasplit.fem_assembly import make_space
from parasplit.kkt_oracle import solve_kkt
from parasplit.mesh import DIRICHLET, NEUMANN, uniform_unit_square
from parasplit import mirrors, sparse_linalg, splitting_solver
from parasplit.sparse_linalg import BLOCK_MAX_NDOF, factorize
from parasplit.splitting_solver import (
    Group,
    Iterate,
    PredictionFactors,
    SolverConfig,
    compute_q,
    correct,
    correction_factor,
    group_blocks,
    h_norm_sq,
    iterate_diff,
    predict,
    predict_multiplier,
    predict_rows,
    predict_states,
    solve,
)

CASES = [(0, 2, 1), (1, 2, 2), (2, 2, 3), (3, 3, 2)]


def _config(sys, beta=1.0, **kw):
    return SolverConfig(alpha=sys.alpha, beta=beta, **kw)


def _path(f) -> str:
    """Which ``factorize`` path a factor took: SuperLU's, one dense inverse
    of the whole matrix, or one per mirror block."""
    if not f.dense:
        return "superlu"
    return "dense" if len(f.parts) == 1 else "blocked"


def _group_differences(sys, w, config, factors):
    """The difference d = w - w~ as an iteration's tasks write it before
    ``bind_couple_difference``: the box variant's projection chunks, then
    ``predict_rows`` on every group of ``Group.partition``."""
    w = w.with_products(sys)
    q = compute_q(sys, w, config.beta)
    d = Iterate.zeros(sys.ndof, sys.grid.M, box=w.is_box, products=True)
    if w.is_box:
        for cols, Z, work in splitting_solver.copy_chunks(sys, np.empty_like(q)):
            splitting_solver.project_copies(sys, w, config, cols, d.P, Z, work)
    for group in Group.partition(sys, factors):
        predict_rows(group, w, q, config, d)
    return d


CONTROL_PRODUCT_ROUNDING = 16 * np.finfo(float).eps  # observed: at most 2.7 eps


def _control_product_error(sys, w, d, q, config):
    """How far d's slab 0, tau A d_U as the prediction reads it off the
    control solve, (alpha / beta) U~ - q, is from tau times the mass
    product of d_U, over the size of its operands, ||q|| + (alpha / beta)
    ||U~|| with U~ = U - d_U (the identity cancels as d goes to 0, so its
    own size is no scale).  w, d and q may be the rows of a group, with
    ``sys`` that of the whole system when they are all rows."""
    AdU = sys.grid.tau * (sys.mass @ d.U)
    scale = np.linalg.norm(q) + (config.alpha / config.beta) * np.linalg.norm(w.U - d.U)
    return np.linalg.norm(d.products[0] - AdU) / scale


def _without_mirrors(sys, dof=1):
    """sys with its stiffness bumped at one DOF: a DOF that lies on no
    mirror's fixed set (DOF 1 of the Neumann meshes) leaves no mirror, so
    the system is one block; DOF 0, on the diagonal, keeps the coordinate
    swap and two blocks."""
    bump = sp.csr_matrix(([1e-3 * sys.stiffness[dof, dof]], ([dof], [dof])), shape=sys.stiffness.shape)
    return dataclasses.replace(sys, stiffness=sys.stiffness + bump)


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
        for M in (0, -1, 2.5, 2.0, "4"):
            with pytest.raises(ValueError, match="step count"):
                correction_factor(M, 1.0)
        for blocks in (0, -1, 1.5, 2.0):
            with pytest.raises(ValueError, match="blocks_per_step"):
                correction_factor(4, 1.0, blocks_per_step=blocks)
        assert correction_factor(np.int64(4), 1.0, blocks_per_step=np.int64(3)) == correction_factor(4, 1.0, 3)
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


def _at_each_step(monkeypatch, callback):
    """Call ``callback(w, d, q)`` at every step of every solve from now on,
    with the loop's iterate, difference and q as the step rule sees them:
    after the measuring batch, before the advancing one.  The arrays are
    the solve's own storage (``bind_iteration``'s), in the mirror basis."""
    bound = []
    bind, step_length = splitting_solver.bind_iteration, splitting_solver.step_length

    def binding(sys, groups, w, d, q, config, work):
        bound[:] = [(w, d, q)]
        return bind(sys, groups, w, d, q, config, work)

    def stepping(config, *sums):
        callback(*bound[0])
        return step_length(config, *sums)

    monkeypatch.setattr(splitting_solver, "bind_iteration", binding)
    monkeypatch.setattr(splitting_solver, "step_length", stepping)


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

    @pytest.mark.parametrize("box", [False, True])
    def test_chunked_prediction(self, box):
        # Two full chunks and a partial one: in the mirror basis of four
        # blocks, three groups of rows and, in the box variant, three
        # projection chunks, the last with the terminal step.
        M = 2 * splitting_solver.CHUNK_COLS + 5
        sys = random_system(14, n=3, M=M).in_mirror_basis()
        w = random_iterate(15, sys, box)
        config = _config(sys, beta=0.7, bounds=(-0.5, 0.5) if box else None)
        factors = PredictionFactors.build(sys, config)
        assert len(Group.partition(sys, factors)) == 3
        inline = predict(sys, w, config, factors)
        with ThreadPoolExecutor(2) as pool:
            pooled = predict(sys, w, config, factors, pool)
        for w_t in (inline, pooled):
            assert prediction_row_residuals(sys, w, w_t, config.alpha, config.beta).max() <= 1e-9
            # w~'s products are w's minus d's, so round apart from w~'s own
            for got, want in zip(w_t.products, constraint_products(sys, w_t.Y, w_t.U)):
                _assert_close(got, want)
        assert np.array_equal(pooled.z, inline.z)
        if box:  # P~ is the projection in node coordinates
            basis = sys.basis
            node = basis.expand_stacked(w.Y - w.mu / config.beta)
            _assert_close(inline.P, basis.project_stacked(np.clip(node, *config.bounds)))
        # The group tasks write the difference d = w - w~, its state
        # products with constraint_products' writer, bit for bit, and
        # tau A d_U from the control solve, to round-off in its operands.
        d = _group_differences(sys, w, config, factors)
        assert np.array_equal(inline.z[:2], w.z[:2] - d.z[:2])
        assert np.array_equal(d.products[1:3], constraint_products(sys, d.Y, d.U)[1:3])
        q = compute_q(sys, w.with_products(sys), config.beta)
        assert _control_product_error(sys, w, d, q, config) <= CONTROL_PRODUCT_ROUNDING

    @pytest.mark.parametrize("box", [False, True])
    @pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
    def test_group_prediction_matches_whole_system(self, bc, box, monkeypatch):
        # predict_rows on each group, with the group's blocks of the
        # operators and factors, writes those rows of what it writes with
        # one group of every block, bit for bit
        M = splitting_solver.CHUNK_COLS + 5
        sys = random_system(22, n=4, M=M, bc=bc).in_mirror_basis()
        w = random_iterate(23, sys, box)
        config = _config(sys, beta=0.9, bounds=(-0.5, 0.5) if box else None)
        factors = PredictionFactors.build(sys, config)
        groups = Group.partition(sys, factors)
        assert len(groups) == 2
        d = _group_differences(sys, w, config, factors)
        monkeypatch.setattr(splitting_solver, "group_blocks", lambda sizes, M: [slice(0, len(sizes))])
        (whole,) = Group.partition(sys, factors)
        assert whole.rows == slice(0, sys.ndof)
        d_whole = _group_differences(sys, w, config, factors)
        written = [0, 1, *([3] if box else []), *range(len(w.z), len(w.z) + 3)]  # U, Y, P, products 0-2
        for group in groups:
            for slab in written:
                assert np.array_equal(d.data[slab, group.rows], d_whole.data[slab, group.rows]), (group.rows, slab)

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
        # The control, state and terminal matrices factored as one stack,
        # in one factorize_stack call, and no matrix factored alone: the
        # three whole sparse normal matrices over beta, formed with sparse
        # Gram matrices 0.5 (G + G^T), bit for bit, on the dense path and
        # on SuperLU's (cap 0); in the mirror basis (four blocks) and in
        # node coordinates (one block, where the stiffness stores explicit
        # zeros; 441 rows at n = 20 with Neumann nodes, SuperLU's at any cap).
        def gram(a):
            prod = a.T @ a
            return sp.csr_matrix(0.5 * (prod + prod.T))

        calls = []

        def alone(mat, sizes=None):
            raise AssertionError("a matrix factored alone")

        def recording_stack(mats, sizes):
            calls.append(len(mats))
            return sparse_linalg.factorize_stack(mats, sizes)

        monkeypatch.setattr(splitting_solver, "factorize", alone)
        monkeypatch.setattr(splitting_solver, "factorize_stack", recording_stack)
        cases = [(seed, n, M, bc, box, cap) for seed, n, M in [(0, 3, 2), (1, 8, 1), (2, 20, 3)]
                 for bc in (NEUMANN, DIRICHLET) for box in (False, True) for cap in (BLOCK_MAX_NDOF, 0)]
        for seed, n, M, bc, box, cap in cases:
            monkeypatch.setattr(sparse_linalg, "BLOCK_MAX_NDOF", cap)
            node = random_system(seed, n=n, M=M, bc=bc)
            for sys in (node, node.in_mirror_basis()):
                tau, A = sys.grid.tau, sys.mass
                config = _config(sys, beta=2.5, bounds=(0.0, 1.0) if box else None)
                alpha, beta = config.alpha, config.beta
                eye = sp.identity(sys.ndof, format="csr")
                shift = eye if box else 0.0 * eye
                whole = [(alpha / beta) * eye + tau * A,
                         (tau / beta) * A + (2.0 * gram(A) + (tau * tau / 2.0) * gram(sys.stiffness)) + shift,
                         (tau / (2.0 * beta)) * A + gram(sys.step_plus) + shift]
                rows, want = sparse_linalg.factorize_stack(whole, sys.block_sizes)
                calls.clear()
                factors = PredictionFactors.build(sys, config)
                assert calls == [3]
                assert factors.rows == rows
                for r, got, ref in zip(rows, factors.stacks, want):
                    assert isinstance(got, np.ndarray) == isinstance(ref, np.ndarray) == (r.stop - r.start <= cap)
                    if isinstance(ref, np.ndarray):
                        assert np.array_equal(got, ref), (seed, sys.basis is None, r)
                    else:
                        assert len(got) == len(ref) == 3
                        for lu, lu_ref in zip(got, ref):
                            for part in ("L", "U"):
                                x, y = getattr(lu, part), getattr(lu_ref, part)
                                assert (x != y).nnz == 0 and x.nnz == y.nnz
                            assert np.array_equal(lu.perm_c, lu_ref.perm_c) and np.array_equal(lu.perm_r, lu_ref.perm_r)

    @pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
    @pytest.mark.parametrize("box", [False, True])
    def test_state_right_hand_sides(self, bc, box):
        # one sparse product of [step_plus step_minus] against the stacked
        # arguments is step_plus a + step_minus b + tau kappa d / beta,
        # a = step_plus Y_m - q_m and b = step_minus Y_m + q_{m+1} (zero at
        # step M), plus P + mu / beta in the box variant: the subproblems'
        # own over beta, as the factors are; on the whole system and on
        # each group of its rows, with the group's blocks of the operators
        M = splitting_solver.CHUNK_COLS + 5
        sys = random_system(12, n=3, M=M, bc=bc).in_mirror_basis()
        config = _config(sys, beta=0.7, bounds=(-0.5, 0.5) if box else None)
        w = random_iterate(13, sys, box).with_products(sys)
        q = compute_q(sys, w, config.beta)
        factors = PredictionFactors.build(sys, config)
        cp, cm = sys.step_plus.toarray(), sys.step_minus.toarray()
        b_all = np.zeros_like(q)
        b_all[:, :-1] = cm @ w.Y[:, :-1] + q[:, 1:]
        a = cp @ w.Y - q
        want = cp @ a + cm @ b_all + sys.tracking_loads / config.beta
        if box:
            want += w.P + w.mu / config.beta
        groups = Group.partition(sys, factors)
        assert len(groups) == 2
        step_row = sp.hstack([sys.step_plus, sys.step_minus], format="csr")
        for op, rows in [(step_row, slice(None)), *((g.step_row, g.rows) for g in groups)]:
            out = np.empty_like(q[rows])
            work = np.full((2,) + out.shape, np.nan)
            predict_states(op, w.rows(rows), q[rows], config, factors.loads[rows], out, work)
            assert np.abs(out - want[rows]).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("box", [False, True])
    def test_full_width_shift_is_flat(self, box):
        # The one-step shifts read and write flat runs of C-contiguous
        # arrays, views that equal the 2-D windows' formula bit for bit;
        # an array that is not C-contiguous, whose flat run would be a
        # copy, is rejected.
        M = 6
        sys = random_system(18, n=3, M=M)
        config = _config(sys, beta=0.7, bounds=(-0.5, 0.5) if box else None)
        w = random_iterate(19, sys, box).with_products(sys)
        q = compute_q(sys, w, config.beta)
        loads = PredictionFactors.build(sys, config).loads
        out, work = np.empty((sys.ndof, M)), np.full((2, sys.ndof, M), np.nan)
        behind, MY, q_ahead = one_step_on(work[1], w.products[2], q)
        assert behind.ndim == 1 and np.shares_memory(behind, work[1]) and np.shares_memory(q_ahead, q)
        predict_states(sp.hstack([sys.step_plus, sys.step_minus], format="csr"), w, q, config, loads, out, work)
        assert np.array_equal(work[1][:, :-1], w.products[2][:, 1:] + q[:, 1:])
        assert not work[1][:, -1].any()  # the terminal step's argument
        with pytest.raises(ValueError, match="copy"):
            one_step_on(work[1], np.asfortranarray(w.products[2]))
        Y = np.random.default_rng(20).standard_normal((sys.ndof, M))
        products = np.full((4, sys.ndof, M), np.nan)
        write_products(sys.step_stack, Y, products)
        assert np.array_equal(products[2][:, 1:], (sys.step_minus @ Y)[:, :-1])
        assert not products[2][:, 0].any()  # block row 1 has no step_minus term
        with pytest.raises(ValueError, match="copy"):
            write_products(sys.step_stack, Y, np.asfortranarray(products))

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


class TestDifference:
    @pytest.mark.parametrize("M", [3, splitting_solver.CHUNK_COLS + 5])
    @pytest.mark.parametrize("box", [False, True])
    @pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
    def test_loop_difference_matches_prediction(self, bc, box, M, monkeypatch):
        # The difference d = w - w~ the loop corrects with, every iteration,
        # against w - predict(w) of the iterate it advances (in the mirror
        # basis, with its carried products), over every slab and product;
        # at M > CHUNK_COLS the groups write their rows of one array.  The
        # prediction's multipliers, which both complete from the difference,
        # are checked against their definitions from w~ itself.
        sys = random_system(21, n=3, M=M, bc=bc)
        config = _config(sys, beta=0.8, epsilon=0.0, k_max=4, bounds=(-0.5, 0.5) if box else None)
        seen = []
        _at_each_step(monkeypatch, lambda w, d, q: seen.append((w.data.copy(), d.data.copy())))
        solve(sys, config)
        in_basis = sys.in_mirror_basis()
        factors = PredictionFactors.build(in_basis, config)
        groups = len(Group.partition(in_basis, factors))
        assert groups == min(len(splitting_solver._chunks(M)), len(in_basis.block_sizes))
        assert len(seen) == config.k_max
        for w_data, d in seen:
            w = Iterate(w_data, 5 if box else 3)
            w_t = predict(in_basis, w, config, factors)
            residual = constraint_products(in_basis, w_t.Y, w_t.U)[3] - in_basis.rhs
            _assert_close(w_t.lam, w.lam - config.beta * residual)
            if box:
                _assert_close(w_t.mu, w.mu - config.beta * (w_t.Y - w_t.P))
            want = iterate_diff(w, w_t)
            assert want.data.shape == d.shape
            for got, slab in zip(d, want.data):
                np.testing.assert_allclose(got, slab, rtol=1e-12, atol=1e-12 * np.abs(slab).max())


class TestGroups:
    @pytest.mark.parametrize("M", [1, 32, 33, 64, 69, 200])
    @pytest.mark.parametrize("sizes", [[961], [256, 240, 225, 240], [6, 4, 2, 4], [2, 1, 1], [1, 1, 9, 1]])
    def test_partition(self, sizes, M):
        # contiguous runs of whole blocks that cover every block once, as
        # many as the chunks allow, none empty
        groups = group_blocks(sizes, M)
        assert len(groups) == min(len(splitting_solver._chunks(M)), len(sizes))
        assert groups[0].start == 0 and groups[-1].stop == len(sizes)
        assert all(a.stop == b.start for a, b in zip(groups, groups[1:]))
        assert all(g.stop > g.start for g in groups)

    def test_benchmark_level_gives_two_balanced_groups(self):
        groups = group_blocks([256, 240, 225, 240], 64)
        assert [sum([256, 240, 225, 240][g]) for g in groups] == [496, 465]
        assert [sum([256, 240, 225, 240][g]) for g in group_blocks([256, 240, 225, 240], 32)] == [961]
        assert [sum([1, 1, 9, 1][g]) for g in group_blocks([1, 1, 9, 1], 96)] == [2, 9, 1]

    @pytest.mark.parametrize("box", [False, True])
    def test_groups_do_not_follow_the_thread_count(self, box, monkeypatch):
        # the rows of every task the loop runs, in order, at 1, 2 and 8 threads
        seen = []
        real = splitting_solver.bind_measure_group

        def recording(group, *args):
            task = real(group, *args)

            def measure():
                seen.append((group.rows.start, group.rows.stop))
                return task()

            return measure

        monkeypatch.setattr(splitting_solver, "bind_measure_group", recording)
        sys = random_system(24, n=3, M=2 * splitting_solver.CHUNK_COLS + 5)
        runs = []
        for threads in (1, 2, 8):
            seen.clear()
            solve(sys, _config(sys, epsilon=0.0, k_max=3, thread_count=threads,
                               bounds=(-0.5, 0.5) if box else None))
            runs.append(sorted(seen))
        rows = np.cumsum([0, *sys.mirror_basis.sizes])
        want = [(int(rows[g.start]), int(rows[g.stop])) for g in group_blocks(sys.mirror_basis.sizes, sys.grid.M)]
        assert len(want) == 3 and runs == [sorted(want * 3)] * 3


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
        w, w_t = w.with_products(sys), w_t.with_products(sys)
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
        w, w_t = w.with_products(sys), w_t.with_products(sys)
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
        w_t = w_t.with_products(sys)
        assert iterate_diff(w, w_t).products is None
        assert iterate_diff(w_t, w).products is None
        w = w.with_products(sys)
        assert correct(w, iterate_diff(w, Iterate(w_t.z)), 0.5).products is None

    def test_iterates_of_different_kinds_rejected(self):
        # a box iterate has five slabs, a plain one three: zipping them
        # would stop after three and leave P and mu unwritten
        box, plain = Iterate(np.ones((5, 3, 2))), Iterate(np.zeros((3, 3, 2)))
        for call in (lambda: iterate_diff(box, plain), lambda: correct(box, plain, 0.5)):
            with pytest.raises(ValueError, match=r"\(5, 3, 2\) and \(3, 3, 2\)") as err:
                call()
            assert "\n" not in str(err.value)


    @pytest.mark.parametrize("box", [False, True])
    def test_backing_array_matches_slab_arithmetic(self, box):
        # one ufunc call over the backing array, or over a row block of it,
        # is the slab-by-slab arithmetic bit for bit
        sys = random_system(3, n=3, M=5)
        w = random_iterate(4, sys, box).with_products(sys)
        w_t = random_iterate(5, sys, box).with_products(sys)
        nu = 0.3
        rows = slice(2, sys.ndof - 3)
        for a, b in ((w, w_t), (w.rows(rows), w_t.rows(rows))):
            diff = [x - y for x, y in zip(a.data, b.data)]
            d = iterate_diff(a, b)
            assert all(np.array_equal(got, want) for got, want in zip(d.data, diff))
            out = correct(a, d, nu)
            assert all(np.array_equal(got, x - nu * dx) for got, x, dx in zip(out.data, a.data, diff))
            b0 = b.data.copy()
            d = iterate_diff(a, b, out=b)  # in place, as the row pass does
            assert d is b and all(np.array_equal(got, want) for got, want in zip(b.data, diff))
            b.data[...] = b0

    @pytest.mark.parametrize("box", [False, True])
    def test_difference_of_z_only_without_both_products(self, box):
        sys = random_system(6, n=2, M=3)
        w, w_t = random_iterate(7, sys, box).with_products(sys), random_iterate(8, sys, box)
        for a, b in ((w, w_t), (w_t, w)):
            d = iterate_diff(a, b)
            assert d.products is None and d.data is d.z
            assert np.array_equal(d.z, a.z - b.z)
            out = correct(a, iterate_diff(a, b), 0.5)
            assert out.products is None and np.array_equal(out.z, a.z - 0.5 * (a.z - b.z))

    def test_rows_are_views_of_the_backing_array(self):
        sys = random_system(9, n=3, M=4)
        w = random_iterate(10, sys, box=True).with_products(sys)
        assert w.data.shape == (9, sys.ndof, 4) and w.data.flags.c_contiguous
        assert np.shares_memory(w.z, w.data) and np.shares_memory(w.products, w.data)
        rows = slice(1, 4)
        block = w.rows(rows)
        assert np.shares_memory(block.data, w.data)
        assert np.array_equal(block.data, w.data[:, rows])
        assert np.array_equal(block.z, w.z[:, rows]) and np.array_equal(block.products, w.products[:, rows])
        plain = Iterate(w.z.copy())
        assert plain.data is plain.z and plain.products is None
        assert np.shares_memory(plain.rows(rows).data, plain.z)


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
        for step in ("dynamic", "constant"):
            w, report = solve(sys, _config(sys, step=step))
            assert report.converged
            assert report.iterations == 1
            assert np.allclose(w.U, 0.0) and np.allclose(w.Y, 0.0)
            # d = 0: the dynamic step's ratio is 0 / 0, so the step is nu
            assert report.step_history.tolist() == [correction_factor(2, 1.0)]
            assert report.increment_history.tolist() == [0.0]

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

    @staticmethod
    def _assert_bitwise_across_threads(sys, box, path):
        """Two full chunks and a partial one, whose last column is the
        terminal step, give the same iterates at 1, 2 and 8 threads."""
        bounds = (-0.5, 0.5) if box else None
        runs = []
        for threads in (1, 2, 8):
            config = _config(sys, beta=0.5, epsilon=0.0, k_max=15, thread_count=threads, bounds=bounds)
            runs.append(solve(sys, config))
        assert _path(PredictionFactors.build(sys.in_mirror_basis(), config).named["control"]) == path
        for w, report in runs[1:]:
            assert np.array_equal(w.z, runs[0][0].z)
            assert np.array_equal(report.increment_history, runs[0][1].increment_history)
            assert not box or np.array_equal(report.gap_history, runs[0][1].gap_history)

    @pytest.mark.parametrize("box", [False, True])
    def test_thread_count_bitwise_across_chunks(self, box, monkeypatch):
        # On this mesh SuperLU's one-column solve differs from a
        # multi-column one in the last bits (on coarse meshes it does not),
        # so tasks that followed the thread count down to single columns
        # would show.
        monkeypatch.setattr(sparse_linalg, "BLOCK_MAX_NDOF", 0)
        sys = random_system(11, n=28, M=2 * splitting_solver.CHUNK_COLS + 5)
        self._assert_bitwise_across_threads(sys, box, "superlu")

    @pytest.mark.parametrize("box", [False, True])
    def test_thread_count_bitwise_across_chunks_dense(self, box):
        # Without a mirror the system is one block, and under the cap a
        # solve is a product with its inverse; on this mesh a one-column
        # product (GEMV) rounds differently from a block one (GEMM), so
        # thread-dependent tasks would show here too.
        sys = _without_mirrors(random_system(11, n=12, M=2 * splitting_solver.CHUNK_COLS + 5))
        assert sys.ndof <= BLOCK_MAX_NDOF
        self._assert_bitwise_across_threads(sys, box, "dense")

    @pytest.mark.parametrize("box", [False, True])
    def test_thread_count_bitwise_across_chunks_blocked(self, box):
        # In the mirror basis each block is inverted, and three chunks give
        # three groups of whole blocks, whose solves are one product per
        # block at width M; the box variant's three projection chunks
        # expand, clip and project their copies.
        sys = random_system(11, n=28, M=2 * splitting_solver.CHUNK_COLS + 5)
        assert sys.ndof > BLOCK_MAX_NDOF and len(sys.mirror_basis.sizes) == 4
        self._assert_bitwise_across_threads(sys, box, "blocked")

    @pytest.mark.parametrize("box", [False, True])
    def test_phase_seconds_fit_in_the_total(self, box):
        # on a level of two groups each task times its two steps; the
        # busiest thread's times add up to no more than the loop's
        sys = random_system(25, n=12, M=splitting_solver.CHUNK_COLS + 8)
        in_basis = sys.in_mirror_basis()
        assert len(group_blocks(in_basis.block_sizes, in_basis.grid.M)) == 2
        for threads in (1, 2):
            config = _config(sys, epsilon=0.0, k_max=20, thread_count=threads,
                             bounds=(-0.5, 0.5) if box else None)
            _, report = solve(sys, config)
            assert 0.0 < report.seconds_predict and 0.0 < report.seconds_correct
            assert report.seconds_predict + report.seconds_correct <= report.seconds_total, threads

    @staticmethod
    def _pool_workers(monkeypatch) -> list:
        """The worker counts of the thread pools opened from now on."""
        workers = []
        init = ThreadPoolExecutor.__init__

        def counting_init(self, max_workers=None, *args, **kwargs):
            workers.append(max_workers)
            init(self, max_workers, *args, **kwargs)

        monkeypatch.setattr(ThreadPoolExecutor, "__init__", counting_init)
        return workers

    def test_one_pool_per_threaded_solve(self, monkeypatch):
        workers = self._pool_workers(monkeypatch)
        sys = random_system(12, n=2, M=19)
        solve(sys, _config(sys, epsilon=0.0, k_max=4))
        assert workers == []
        solve(sys, _config(sys, epsilon=0.0, k_max=4, thread_count=8))
        cpus = len(os.sched_getaffinity(0))
        assert workers == ([] if cpus == 1 else [min(8, cpus)])

    def test_no_pool_on_one_usable_cpu(self, monkeypatch):
        # threads asked for, one CPU to run them: no pool is opened, and the
        # iterates are the 1-thread run's
        sys = random_system(12, n=2, M=2 * splitting_solver.CHUNK_COLS + 5)
        config = _config(sys, epsilon=0.0, k_max=6, bounds=(-0.5, 0.5))
        want, _ = solve(sys, config)
        workers = self._pool_workers(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        got, _ = solve(sys, dataclasses.replace(config, thread_count=4))
        assert workers == []
        assert np.array_equal(got.z, want.z)

    def test_pool_threads_end_with_the_solve(self):
        # three groups, so the batches have tasks for the pool (a batch of
        # one task runs on the calling thread)
        sys = random_system(13, n=2, M=2 * splitting_solver.CHUNK_COLS + 5)
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
        for step in ("dynamic", "constant"):
            _, report = solve(sys, _config(sys, k_max=50, step=step))
            assert report.iterations == 1
            assert report.stop_reason == "non_finite"
            assert not report.converged
            assert np.isnan(report.step_history[0]) == (step == "dynamic")

    @pytest.mark.parametrize("box", [False, True])
    def test_bad_operators_fail_before_the_first_iteration(self, box):
        # A NaN in a copy's mass and an asymmetric stiffness fail the
        # factors' input check with its one-line reason, and an indefinite
        # normal matrix fails its block's factorization with the pivot,
        # all before the monitor's first call.
        sys = random_system(9, n=3, M=3)
        mass = sys.mass.copy()
        mass.data[4] = np.nan
        row = np.searchsorted(mass.indptr, 4, side="right") - 1
        skew = sp.csr_matrix(([1e-6], ([0], [1])), shape=sys.stiffness.shape)
        # a negative mass whose control matrix (alpha / beta) I + tau A is indefinite
        scale = 10.0 * sys.alpha / (sys.grid.tau * sys.mass.diagonal().max())
        cases = [(dataclasses.replace(sys, mass=mass), ValueError, "not finite"),
                 (dataclasses.replace(sys, stiffness=sys.stiffness + skew), ValueError,
                  "^matrix is not symmetric within tolerance$"),
                 (dataclasses.replace(sys, mass=-scale * sys.mass), sparse_linalg.NotPositiveDefiniteError,
                  r"^matrix not positive definite \(pivot \d+ <= 0\)$")]
        for bad, error, reason in cases:
            calls = []
            with pytest.raises(error, match=reason):
                solve(bad, _config(bad, bounds=(-0.5, 0.5) if box else None),
                      monitor=lambda k, w: calls.append(k))
            assert calls == []
        with pytest.raises(ValueError, match=rf"^matrix entry \({row}, {mass.indices[4]}\) is nan, not finite$"):
            PredictionFactors.build(dataclasses.replace(sys, mass=mass), _config(sys))

    @pytest.mark.parametrize("box", [False, True])
    def test_iterations_bind_nothing(self, box, monkeypatch):
        # every view, operand and task of the loop is formed before its
        # first iteration: from the first monitor call on, no Iterate is
        # built, no row block taken and no correction operand formed (the
        # monitor's own node-space view aside)
        counts = {"Iterate": 0, "rows": 0, "_operands": 0}

        def counting(name, real):
            def counted(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return counted

        monkeypatch.setattr(Iterate, "__init__", counting("Iterate", Iterate.__init__))
        monkeypatch.setattr(Iterate, "rows", counting("rows", Iterate.rows))
        monkeypatch.setattr(splitting_solver, "_operands", counting("_operands", splitting_solver._operands))
        seen = []
        for M in (5, 2 * splitting_solver.CHUNK_COLS + 5):  # one group, and three
            sys = random_system(16, n=3, M=M)
            seen.clear()
            solve(sys, _config(sys, epsilon=0.0, k_max=6, bounds=(-0.5, 0.5) if box else None),
                  monitor=lambda k, w: seen.append(dict(counts)))
            assert len(seen) == 6 and seen[0]["rows"] > 0 and seen[0]["_operands"] > 0, M
            assert seen == [seen[0]] * 6, M

    def test_setup_seconds(self):
        # the wall time from the call to the first iteration: positive,
        # over before the first monitor call, and apart from the loop's
        # seconds_total
        sys = random_system(10, n=4, M=6)
        stamps = []
        t0 = time.perf_counter()
        _, report = solve(sys, _config(sys, epsilon=0.0, k_max=5),
                          monitor=lambda k, w: stamps.append(time.perf_counter()))
        wall = time.perf_counter() - t0
        assert 0.0 < report.seconds_setup <= stamps[0] - t0
        assert report.seconds_setup + report.seconds_total <= wall
        assert report.seconds_total >= stamps[-1] - stamps[0]

    def test_iteration_cap_reported(self):
        sys = random_system(9, n=2, M=2)
        _, report = solve(sys, _config(sys, epsilon=0.0, k_max=7))
        assert report.iterations == 7
        assert report.stop_reason == "k_max"
        assert not report.converged
        assert len(report.increment_history) == 7

    def test_benchmark_stop(self):
        # the benchmark's time-to-tolerance solve with the paper's constant
        # step: a change of round-off that moves its iteration count shows
        # here first
        prob = get_example("5.1")
        sys = build_level(prob, 16)
        w, report = solve(sys, SolverConfig(alpha=prob.alpha, beta=prob.beta, step="constant"))
        assert report.stop_reason == "converged" and report.iterations == 2038
        assert np.array_equal(report.step_history, np.full(2038, correction_factor(sys.grid.M, 1.0)))
        star = solve_kkt(sys, prob.alpha)
        for got, want in ((w.Y, star.Y_star), (w.U, star.U_star)):
            assert np.linalg.norm(got - want) <= 5e-3 * np.linalg.norm(want)

    def test_benchmark_stop_dynamic(self):
        # the same solve with the default dynamic step: its exact count, and
        # at the same tolerance it stops nearer the saddle point
        prob = get_example("5.1")
        sys = build_level(prob, 16)
        w, report = solve(sys, SolverConfig(alpha=prob.alpha, beta=prob.beta))
        assert report.stop_reason == "converged" and report.iterations == 100
        star = solve_kkt(sys, prob.alpha)
        for got, want, rtol in ((w.Y, star.Y_star, 1e-5), (w.U, star.U_star, 5e-4)):
            assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)

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

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("box", [False, True])
    def test_row_blocks_match_from_scratch_loop(self, box, threads):
        # Three chunks and four mirror blocks, so an iteration runs three
        # groups whose partial norms add up; the hypothesis test above
        # reaches only one group.  The system with one unknown is one block,
        # so one group.
        M, K = 2 * splitting_solver.CHUNK_COLS + 5, 6
        for sys in (random_system(16, n=3, M=M), random_system(16, n=2, M=M, bc=DIRICHLET)):
            groups = group_blocks(sys.mirror_basis.sizes, M)
            assert len(groups) == (3 if sys.ndof > 1 else 1)
            config = _config(sys, beta=0.8, epsilon=0.0, k_max=K, thread_count=threads,
                             bounds=(-0.5, 0.5) if box else None)
            seen = []
            w, report = solve(sys, config, monitor=lambda k, w: seen.append(w.copy()))
            w_ref, increments_ref = reference_loop(sys, config, K)
            for got, want in zip(w.z, w_ref.z):
                np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())
            np.testing.assert_allclose(report.increment_history, increments_ref, rtol=1e-10)
            if box:
                # gap k is that of iterate k + 1: the next monitor's, the last one returned
                gaps = [np.linalg.norm(v.Y - v.P) for v in seen[1:] + [w]]
                np.testing.assert_allclose(report.gap_history, gaps, rtol=1e-14, atol=0)
            else:
                assert report.gap_history is None

    def test_loop_allocates_no_iterate(self):
        # The loop works in storage allocated once per solve: from the third
        # monitor call on, the live numpy arrays stay the same, and no
        # iteration's peak rises by a whole iterate above its start (a fresh
        # prediction alone would).
        M = 2 * splitting_solver.CHUNK_COLS + 5
        sys = random_system(17, n=3, M=M)
        config = _config(sys, beta=0.8, epsilon=0.0, k_max=8, bounds=(-0.5, 0.5))
        arrays_only = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
        arrays, rises, start = [], [], [0]

        def monitor(k, w):
            rises.append(tracemalloc.get_traced_memory()[1] - start[0])
            arrays.append(sum(t.size for t in tracemalloc.take_snapshot().filter_traces(arrays_only).traces))
            tracemalloc.reset_peak()
            start[0] = tracemalloc.get_traced_memory()[0]

        tracemalloc.start()
        try:
            w, _ = solve(sys, config, monitor=monitor)
        finally:
            tracemalloc.stop()
        assert len(arrays) == 8
        assert arrays[2:] == [arrays[2]] * 6
        assert max(rises[3:]) < w.z.nbytes

    @pytest.mark.parametrize("M,box", [(1, False), (3, False), (3, True)])
    def test_factor_nnz_reported(self, M, box):
        # a level under the cap: each factor stores one inverse per mirror block
        sys = random_system(8, n=3, M=M)
        bounds = (-1.0, 1.0) if box else None
        config = SolverConfig(alpha=sys.alpha, beta=1.0, k_max=1, bounds=bounds)
        _, report = solve(sys, config)
        # the same three factors for every M (at M == 1 the terminal solve
        # overwrites the state factor's one column)
        names = ("control", "state", "terminal")
        assert report.factor_nnz == {name: sum(k * k for k in sys.mirror_basis.sizes) for name in names}

    def test_factor_nnz_reported_on_both_paths(self, monkeypatch):
        # the stored entries of each path: the block inverses, one whole
        # inverse for a system without a mirror, and SuperLU's
        # nnz(L) + nnz(U) summed over the blocks
        sys = random_system(8, n=3, M=3)
        config = SolverConfig(alpha=sys.alpha, beta=1.0, k_max=1)
        _, blocked = solve(sys, config)
        _, whole = solve(_without_mirrors(sys), config)
        monkeypatch.setattr(sparse_linalg, "BLOCK_MAX_NDOF", 0)
        _, sparse = solve(sys, config)
        factors = PredictionFactors.build(sys.in_mirror_basis(), config)
        sizes = sys.mirror_basis.sizes
        assert len(sizes) == 4
        for name, f in factors.named.items():
            assert whole.factor_nnz[name] == sys.ndof**2
            assert blocked.factor_nnz[name] == sum(k * k for k in sizes)
            assert _path(f) == "superlu"
            assert sparse.factor_nnz[name] == sum(lu.L.nnz + lu.U.nnz for lu in f.parts)

    @pytest.mark.parametrize("example", ["5.1", "5.2"])
    def test_dense_inverse_matches_superlu(self, example, monkeypatch):
        # dense inverses against SuperLU's solves, on both paths: the whole
        # matrix in node coordinates (one block) and each mirror block
        prob = get_example(example)
        sys = build_level(prob, {"5.1": 16, "5.2": 14}[example])
        assert sys.ndof == 225
        config = SolverConfig(alpha=prob.alpha, beta=prob.beta)
        for sys_, path in ((sys, "dense"), (sys.in_mirror_basis(), "blocked")):
            factors = PredictionFactors.build(sys_, config)
            with monkeypatch.context() as m:
                m.setattr(sparse_linalg, "BLOCK_MAX_NDOF", 0)
                superlu = PredictionFactors.build(sys_, config)
            rhs = np.random.default_rng(5).standard_normal((sys.ndof, splitting_solver.CHUNK_COLS))
            for name, f in factors.named.items():
                assert _path(f) == path and _path(superlu.named[name]) == "superlu", name
                for b in (rhs, rhs[:, 0]):
                    want = superlu.named[name].solve(b)
                    np.testing.assert_allclose(f.solve(b), want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_alpha_mismatch_rejected(self):
        sys = random_system(5, n=2, M=2)
        config = SolverConfig(alpha=2.0 * sys.alpha, beta=1.0)
        with pytest.raises(ValueError, match="alpha"):
            solve(sys, config)
        with pytest.raises(ValueError, match="alpha"):
            solve(sys, SolverConfig(alpha=2.0 * sys.alpha, beta=1.0, bounds=(0.0, 1.0)))


class TestMirrorBasisLoop:
    """``solve`` runs its loop on the system in its mirror basis; the
    one-step pieces and ``reference_loop`` run in node coordinates."""

    @staticmethod
    def _mirrored(example: str, M: int):
        # a level with four mirror blocks, at a step count of two chunks
        prob = get_example(example)
        sys = build_system(prob, make_space(uniform_unit_square(6), prob.bc), TimeGrid(T=prob.T, M=M))
        assert len(sys.mirror_basis.sizes) == 4
        return prob, sys

    def test_system_in_the_basis(self):
        prob, sys = self._mirrored("5.2", 3)
        in_basis = sys.in_mirror_basis()
        basis = in_basis.basis
        assert basis is sys.mirror_basis and sys.basis is None
        with pytest.raises(ValueError, match="node coordinates"):
            in_basis.in_mirror_basis()
        assert in_basis.block_sizes == basis.sizes and sys.block_sizes == [sys.ndof]
        X = np.random.default_rng(0).standard_normal((sys.ndof, 3))
        for name in ("mass", "stiffness", "step_plus", "step_minus"):
            op, op_b = getattr(sys, name), getattr(in_basis, name)
            # Q^T A Q X: the operator in the basis, block diagonal in row order
            _assert_close(op_b @ basis.project_stacked(X), basis.project_stacked(op @ X))
            offsets = np.cumsum([0] + basis.sizes)
            inside = sum(op_b[lo:hi, lo:hi].nnz for lo, hi in zip(offsets[:-1], offsets[1:]))
            assert inside == op_b.nnz
        for name in ("rhs", "desired_loads", "tracking_loads"):
            _assert_close(getattr(in_basis, name), basis.project_stacked(getattr(sys, name)))
        _assert_close(basis.expand_stacked(basis.project_stacked(X)), X)
        with pytest.raises(ValueError, match="node coordinates"):
            solve(in_basis, SolverConfig(alpha=prob.alpha, beta=1.0))

    def test_system_without_a_mirror_in_the_one_block_basis(self):
        # Q = I: the change of basis copies every operator and vector
        sys = _without_mirrors(random_system(3, n=3, M=2))
        in_basis = sys.in_mirror_basis()
        assert in_basis is not sys and in_basis.basis is sys.mirror_basis
        assert in_basis.basis.sizes == in_basis.block_sizes == [sys.ndof]
        with pytest.raises(ValueError, match="node coordinates"):
            in_basis.in_mirror_basis()
        for name in ("mass", "stiffness", "step_plus", "step_minus"):
            op, op_b = getattr(sys, name), getattr(in_basis, name)
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(op_b, part), getattr(op, part)), (name, part)
        for name in ("rhs", "desired_loads"):
            assert np.array_equal(getattr(in_basis, name), getattr(sys, name)), name

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("box", [False, True])
    @pytest.mark.parametrize("example", ["5.1", "5.2"])
    def test_matches_node_space_loop(self, example, box, threads):
        K = 8
        prob, sys = self._mirrored(example, splitting_solver.CHUNK_COLS + 5)
        bounds = (0.0, 0.8) if box else None
        config = SolverConfig(alpha=prob.alpha, beta=0.8, epsilon=0.0, k_max=K, bounds=bounds,
                              thread_count=threads)
        seen = []
        w, report = solve(sys, config, monitor=lambda k, v: seen.append(v.copy()))
        w_ref, increments_ref = reference_loop(sys, config, K)
        for got, want in zip(w.z, w_ref.z):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())
        np.testing.assert_allclose(report.increment_history, increments_ref, rtol=1e-10)
        # the monitor's iterates are in node coordinates: the last is the
        # node-space loop's after K - 1 iterations
        w_prev, _ = reference_loop(sys, config, K - 1)
        for got, want in zip(seen[-1].z, w_prev.z):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())
        assert all(v.products is None for v in seen)
        if box:
            assert bounds[0] <= w.P.min() and w.P.max() <= bounds[1]
            assert (w.P == bounds[0]).any()  # the bounds bind
            gaps = [np.linalg.norm(v.Y - v.P) for v in seen[1:] + [w]]
            np.testing.assert_allclose(report.gap_history, gaps, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("box", [False, True])
    def test_monitor_that_reads_nothing_costs_no_change_of_basis(self, box, monkeypatch):
        # the final iterate is expanded once; a monitor's only when it reads
        # it.  Whole iterates are the 3-D calls (the box variant's chunks
        # expand 2-D column blocks of Y - mu / beta).
        expansions = []
        real = mirrors.MirrorBasis.expand_stacked

        def counting(basis, X, out=None, work=None):
            if X.ndim == 3:
                expansions.append(X.shape)
            return real(basis, X, out, work)

        monkeypatch.setattr(mirrors.MirrorBasis, "expand_stacked", counting)
        prob, sys = self._mirrored("5.1", 4)
        config = SolverConfig(alpha=prob.alpha, beta=0.8, epsilon=0.0, k_max=6,
                              bounds=(0.0, 0.8) if box else None)
        for monitor, count in ((None, 1), (lambda k, v: None, 1), (lambda k, v: v.U, 7)):
            expansions.clear()
            w, _ = solve(sys, config, monitor=monitor)
            assert expansions == [w.z.shape] * count

    @pytest.mark.parametrize("bounds", [None, (0.0, 0.8)])
    def test_carried_control_product_matches_mass_product(self, bounds, monkeypatch):
        # In every prediction of a solve the group tasks write tau A d_U
        # as the control solve gives it, (alpha / beta) U~ - q: tau times
        # the mass product of the difference, to round-off in the
        # identity's operands; and d's state products with
        # constraint_products' writer, bit for bit.
        errors, states = [], []
        in_basis = []  # the level's system in its mirror basis, as the loop runs it

        def recording(w, d, q):
            sys_ = in_basis[0]
            errors.append(_control_product_error(sys_, w, d, q, config))
            states.append(np.array_equal(d.products[1:3], constraint_products(sys_, d.Y, d.U)[1:3]))

        _at_each_step(monkeypatch, recording)
        prob = get_example("5.1")
        config = SolverConfig(alpha=prob.alpha, beta=prob.beta if bounds is None else 0.3, bounds=bounds,
                              k_max=400)
        for n in (8, 16):
            errors.clear()
            states.clear()
            sys = build_level(prob, n)
            in_basis[:] = [sys.in_mirror_basis()]
            _, report = solve(sys, config)
            assert len(errors) == report.iterations and all(states), n
            assert max(errors) <= CONTROL_PRODUCT_ROUNDING, n


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


class TestDynamicStep:
    """The default correction step alpha_k = gamma phi / ||d||_H^2
    (``step_length``) against the paper's constant nu."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        bc=st.sampled_from([NEUMANN, DIRICHLET]),
        n=st.sampled_from([2, 3]),
        M=st.integers(min_value=1, max_value=4),
        box=st.booleans(),
        beta=st.floats(min_value=0.1, max_value=10.0),
        gamma=st.floats(min_value=0.05, max_value=1.95),
    )
    def test_step_at_least_the_constant_one(self, seed, bc, n, M, box, beta, gamma):
        # ||C d||^2 <= L sum_l ||C_l d_l||^2 bounds alpha_k below by nu;
        # the tolerance is the ratio's round-off
        sys = random_system(seed, n=n, M=M, bc=bc)
        config = _config(sys, beta=beta, gamma=gamma, epsilon=0.0, k_max=8, bounds=(-0.5, 0.5) if box else None)
        _, report = solve(sys, config)
        nu = correction_factor(M, gamma, blocks_per_step=3 if box else 2)
        assert np.all(report.step_history >= nu * (1.0 - 1e-12))
        assert not box or np.all(report.step_history <= 1.0)

    @staticmethod
    def _contraction_violations(example, beta, gamma, bounds, K) -> int:
        """Iterations of a K-step solve of ``example`` at n = 8 that break
        criterion 2's inequality ||w+ - w*||_H^2 <= ||w - w*||_H^2
        - (2 - gamma)/gamma ||w - w+||_H^2 against the oracle's saddle point
        (with P* = Y* and mu* = 0 under bounds that never bind), with
        criterion 2's slack of 1e-10 ||w^1 - w*||_H^2; a NaN breaks it."""
        prob = get_example(example)
        sys = build_level(prob, 8)
        star = solve_kkt(sys, prob.alpha)
        w_star = Iterate.of(star.U_star, star.Y_star, star.lambda_star,
                            *((star.Y_star, np.zeros_like(star.Y_star)) if bounds else ()))
        dist = []
        config = SolverConfig(alpha=prob.alpha, beta=beta, gamma=gamma, bounds=bounds, epsilon=0.0, k_max=K)
        _, report = solve(sys, config, monitor=lambda k, w: dist.append(h_norm_sq(sys, iterate_diff(w, w_star), beta)))
        dist = np.asarray(dist)
        rhs = dist[:-1] - ((2.0 - gamma) / gamma) * report.increment_history[:-1]
        return int(np.sum(~(dist[1:] <= rhs + 1e-10 * dist[0])))

    @pytest.mark.parametrize("example,beta,gamma,bounds", [
        ("5.1", 10.0, 1.0, None), ("5.2", 100.0, 1.0, None), ("5.1", 0.3, 1.5, (-1e6, 1e6))])
    def test_contraction_inequality(self, example, beta, gamma, bounds, monkeypatch):
        # criterion 2 holds for the dynamic step at every iteration; a copy
        # whose step drops the cross term (alpha = gamma, capped at 1 under
        # bounds) breaks it
        assert self._contraction_violations(example, beta, gamma, bounds, 500) == 0
        step_length = splitting_solver.step_length
        monkeypatch.setattr(splitting_solver, "step_length",
                            lambda config, nu, h_sq, cross: step_length(config, nu, h_sq, 0.0))
        with np.errstate(over="ignore", invalid="ignore"):
            assert self._contraction_violations(example, beta, gamma, bounds, 200) > 0

    def test_cap_keeps_copies_in_bounds(self, monkeypatch):
        # P stays in the bounds at every monitored iterate, up to the change
        # of basis's rounding (a few ulps; the copies are convex combinations
        # in the mirror basis); without the cap, steps above 1 push P out
        sys = random_system(5, n=3, M=4)
        lo, hi = -0.5, 0.5
        config = _config(sys, gamma=1.9, bounds=(lo, hi), epsilon=0.0, k_max=100)

        def violation():
            worst = [0.0]

            def monitor(k, w):
                worst[0] = max(worst[0], lo - w.P.min(), w.P.max() - hi)
            _, report = solve(sys, config, monitor=monitor)
            return worst[0], report.step_history

        worst, steps = violation()
        assert worst <= 1e-15 and steps.max() == 1.0
        real = splitting_solver.step_length
        monkeypatch.setattr(splitting_solver, "step_length",
                            lambda config, *sums: real(dataclasses.replace(config, bounds=None), *sums))
        worst, steps = violation()
        assert steps.max() > 1.0 and worst > 1e-2

    @pytest.mark.parametrize("box", [False, True])
    @pytest.mark.parametrize("M", [19, 2 * splitting_solver.CHUNK_COLS + 5])
    def test_bitwise_across_threads(self, M, box):
        # one group and three groups (the sums of all groups cross a
        # barrier before the advancing batch), at 1 and 2 threads; with
        # three groups the constant rule crosses it too
        sys = random_system(14, n=3, M=M)
        assert len(group_blocks(sys.mirror_basis.sizes, M)) == (1 if M <= splitting_solver.CHUNK_COLS else 3)
        for step in ("dynamic", "constant") if M > splitting_solver.CHUNK_COLS else ("dynamic",):
            runs = [solve(sys, _config(sys, beta=0.8, epsilon=0.0, k_max=12, thread_count=threads, step=step,
                                       bounds=(-0.5, 0.5) if box else None)) for threads in (1, 2)]
            (w1, r1), (w2, r2) = runs
            assert np.array_equal(w1.z, w2.z), step
            for name in ("increment_history", "step_history") + (("gap_history",) if box else ()):
                assert np.array_equal(getattr(r1, name), getattr(r2, name)), (step, name)
            assert (len(set(r1.step_history.tolist())) > 1) == (step == "dynamic")  # the dynamic step moves

    @pytest.mark.parametrize("box", [False, True])
    def test_every_iteration_runs_the_same_batches(self, box, monkeypatch):
        # per iteration, under either rule and with one group or three: the
        # box variant's projection batch, then one measuring task per
        # group, then one advancing task per group
        batches = []
        real = splitting_solver.solve_multi

        def counting(tasks, pool=None):
            batches.append(len(tasks))
            return real(tasks, pool)

        monkeypatch.setattr(splitting_solver, "solve_multi", counting)
        K = 3
        for M in (19, 2 * splitting_solver.CHUNK_COLS + 5):
            sys = random_system(15, n=3, M=M)
            groups = len(group_blocks(sys.mirror_basis.sizes, M))
            assert groups == (1 if M <= splitting_solver.CHUNK_COLS else 3)
            projection = [len(splitting_solver._chunks(M))] if box else []
            for step in ("dynamic", "constant"):
                batches.clear()
                solve(sys, _config(sys, epsilon=0.0, k_max=K, step=step, bounds=(-0.5, 0.5) if box else None))
                assert batches == (projection + [groups, groups]) * K, (M, step)

    @pytest.mark.parametrize("example", ["5.1", "5.2"])
    def test_both_rules_reach_the_oracle(self, example):
        prob = get_example(example)
        sys = build_level(prob, 4)
        star = solve_kkt(sys, prob.alpha)
        counts = {}
        for step in ("constant", "dynamic"):
            w, report = solve(sys, SolverConfig(alpha=prob.alpha, beta=1.0, epsilon=1e-22, k_max=50_000, step=step))
            assert report.converged, step
            counts[step] = report.iterations
            for got, want in ((w.Y, star.Y_star), (w.U, star.U_star)):
                assert np.linalg.norm(got - want) <= 1e-7 * np.linalg.norm(want), step
        assert 5 * counts["dynamic"] < counts["constant"]  # 641 against 7857 (5.1), 2123 against 12370 (5.2)


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
        for bounds in ((1.0, 0.0), (math.nan, 1.0), (0.0, math.nan), (0.0,), (0, 1, 2), ("0", "1"), 0.5):
            with pytest.raises(ValueError, match="bound"):
                SolverConfig(alpha=1.0, beta=1.0, bounds=bounds)
        SolverConfig(alpha=1.0, beta=1.0, bounds=(-math.inf, math.inf))
        for bad in (0, 2.5):
            with pytest.raises(ValueError, match="k_max"):
                SolverConfig(alpha=1.0, beta=1.0, k_max=bad)
        for bad in (0, 1.5):
            with pytest.raises(ValueError, match="thread_count"):
                SolverConfig(alpha=1.0, beta=1.0, thread_count=bad)
        assert SolverConfig(alpha=1.0, beta=1.0).step == "dynamic"
        for bad in ("Constant", "adaptive", None):
            with pytest.raises(ValueError, match="step"):
                SolverConfig(alpha=1.0, beta=1.0, step=bad)


def _superlu_factors(sys, config, monkeypatch):
    """The prediction factors with the dense cap closed: SuperLU's."""
    with monkeypatch.context() as m:
        m.setattr(sparse_linalg, "BLOCK_MAX_NDOF", 0)
        return PredictionFactors.build(sys, config)


def _assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


class TestBlockedFactors:
    """Factors of the system in its mirror basis, inverted block by block,
    against SuperLU's in node coordinates."""

    @staticmethod
    def _assert_matches(sys, config, superlu):
        """The factors of sys in its mirror basis, Q S_b^-1 Q^T b, against
        node-space ``superlu``'s S^-1 b."""
        in_basis = sys.in_mirror_basis()
        factors = PredictionFactors.build(in_basis, config)
        project, expand = in_basis.basis.project_stacked, in_basis.basis.expand_stacked
        rhs = np.random.default_rng(sys.ndof).standard_normal((2, sys.ndof, splitting_solver.CHUNK_COLS))
        rhs_b = np.stack([project(x) for x in rhs])
        for name, f in factors.named.items():
            _assert_close(expand(f.solve(rhs_b[0])), superlu.named[name].solve(rhs[0]))
            _assert_close(f.solve(rhs_b[0][:, 0]), f.solve(rhs_b[0])[:, 0])  # one column
        # the control and state solves together, the terminal column included
        got, want = np.empty_like(rhs), np.empty_like(rhs)
        factors.solve(rhs_b, got)
        superlu.solve(rhs, want)
        for g, w in zip(got, want):
            _assert_close(expand(g), w)
        return factors

    @pytest.mark.parametrize("box", [False, True])
    @pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
    @pytest.mark.parametrize("example", ["5.1", "5.2"])
    def test_matches_superlu(self, example, bc, box, monkeypatch):
        prob = dataclasses.replace(get_example(example), bc=bc)
        sys = build_level(prob, 20)
        config = SolverConfig(alpha=prob.alpha, beta=prob.beta, bounds=(0.0, 1.0) if box else None)
        superlu = _superlu_factors(sys, config, monkeypatch)
        control = superlu.named["control"]
        assert _path(control) == "superlu" and len(control.parts) == 1
        factors = self._assert_matches(sys, config, superlu)
        for f in factors.named.values():
            assert _path(f) == "blocked"
            assert [inv.shape[0] for inv in f.parts] == sys.mirror_basis.sizes

    @pytest.mark.parametrize("path,cap", [("blocked", BLOCK_MAX_NDOF), ("superlu", 0)])
    def test_paired_solve_matches_separate_solves(self, path, cap, monkeypatch):
        # PredictionFactors.solve, per block one batched product of its
        # stacked control and state inverses and one of its terminal
        # inverse on the last column (a SuperLU block's three solves in the
        # same loop), against three CholFactor.solve calls of the named
        # factors, bit for bit: on the whole system and on each group of
        # its rows.  The named factors' parts are views into the stacked
        # inverses, not copies.
        monkeypatch.setattr(sparse_linalg, "BLOCK_MAX_NDOF", cap)
        M = splitting_solver.CHUNK_COLS + 5
        sys = random_system(25, n=8, M=M).in_mirror_basis()
        config = _config(sys, beta=0.9)
        factors = PredictionFactors.build(sys, config)
        named = factors.named
        assert list(named) == ["control", "state", "terminal"]
        assert {_path(f) for f in named.values()} == {path}
        groups = Group.partition(sys, factors)
        assert len(groups) == 2
        rhs = np.random.default_rng(25).standard_normal((2, sys.ndof, M))
        for f, rows in [(factors, slice(None)), *((g.factors, g.rows) for g in groups)]:
            b = np.ascontiguousarray(rhs[:, rows])
            got = np.full_like(b, np.nan)
            f.solve(b, got)
            control, state, terminal = f.named.values()
            want = np.stack([control.solve(b[0]), state.solve(b[1])])
            terminal.solve(b[1][:, -1], out=want[1][:, -1])
            assert np.array_equal(got, want), rows
        for stack, *parts in zip(factors.stacks, *(f.parts for f in named.values())):
            if path == "blocked":
                assert stack.shape == (3, *parts[0].shape)
                assert all(part.base is stack for part in parts)
            else:
                assert tuple(parts) == tuple(stack)

    @pytest.mark.parametrize("M,box", [(1, False), (3, False), (3, True)])
    def test_iterates_match_superlu_path(self, M, box, monkeypatch):
        # the single-step level has no state factor: its one column is the terminal step
        sys = random_system(12, n=20, M=M)
        config = _config(sys, beta=2.0, epsilon=0.0, k_max=5, bounds=(-0.5, 0.5) if box else None)
        assert _path(PredictionFactors.build(sys.in_mirror_basis(), config).named["control"]) == "blocked"
        w, _ = solve(sys, config)
        monkeypatch.setattr(sparse_linalg, "BLOCK_MAX_NDOF", 0)
        w_ref, _ = solve(sys, config)
        _assert_close(w.z, w_ref.z)

    @pytest.mark.parametrize("dof,blocks", [(0, 2), (1, 1)])
    def test_broken_mirror_falls_back(self, dof, blocks, monkeypatch):
        # The first DOF lies on the diagonal x1 = x2, which the coordinate
        # swap fixes; the second lies on no mirror's fixed set.
        sys = random_system(11, n=20, M=3, bc=NEUMANN)
        assert len(sys.mirror_basis.sizes) == 4
        broken = _without_mirrors(sys, dof)
        assert len(broken.mirror_basis.sizes) == blocks
        assert broken.in_mirror_basis().block_sizes == broken.mirror_basis.sizes
        config = _config(broken, beta=10.0)
        factors = self._assert_matches(broken, config, _superlu_factors(broken, config, monkeypatch))
        assert _path(factors.named["control"]) == ("blocked" if blocks > 1 else "superlu")

    def test_indefinite_raises(self, monkeypatch):
        shapes = []
        init = sparse_linalg.SparseSpd.__init__

        def counting_init(self, mat):
            shapes.append(mat.shape)
            init(self, mat)

        def no_superlu(*args, **kwargs):
            raise AssertionError("the blocked path reached SuperLU")

        monkeypatch.setattr(sparse_linalg.SparseSpd, "__init__", counting_init)
        monkeypatch.setattr(sparse_linalg.spla, "splu", no_superlu)
        sys = build_level(get_example("5.1"), 20)
        # mirror-invariant, with the generalised eigenvalues of the pencil
        # below 100 (the lowest is about 2 pi^2) turned negative
        basis = sys.mirror_basis
        [mat] = basis.block_diagonals(sys.stiffness - 100.0 * sys.mass)
        with pytest.raises(sparse_linalg.NotPositiveDefiniteError):
            factorize(mat, basis.sizes)
        assert shapes == [(sys.ndof, sys.ndof)]

    def test_box_workload_level_is_blocked(self):
        # the benchmark's box level; a cap that sends it back to SuperLU fails here
        prob = get_example("5.1")
        sys = build_level(prob, 32)
        config = SolverConfig(alpha=prob.alpha, beta=0.3, bounds=(0.0, 0.8))
        factors = PredictionFactors.build(sys.in_mirror_basis(), config)
        for f in factors.named.values():
            assert _path(f) == "blocked"
            assert [inv.shape[0] for inv in f.parts] == [256, 240, 225, 240]

    def test_mirror_basis_formed_once_per_system(self, monkeypatch):
        calls = []
        formed = mirrors.mirror_basis

        def counting(sys):
            calls.append(sys)
            return formed(sys)

        monkeypatch.setattr(mirrors, "mirror_basis", counting)
        prob = get_example("5.1")
        sys = build_level(prob, 20)
        assert calls == []  # building the level forms none
        solve_kkt(sys, sys.alpha)
        solve_kkt(sys, sys.alpha)
        solve(sys, SolverConfig(alpha=prob.alpha, beta=prob.beta, k_max=2))
        assert len(calls) == 1 and calls[0] is sys
