import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from parasplit import sparse_linalg, splitting_solver
from parasplit.experiments import build_level, example_5_1
from parasplit.sparse_linalg import (
    BLOCK_MAX_NDOF,
    NotPositiveDefiniteError,
    SparseSpd,
    block_rows,
    check_symmetric,
    dense_block,
    factorize,
    factorize_stack,
    solve_multi,
)
from parasplit.splitting_solver import PredictionFactors, SolverConfig


def _random_spd(rng, dim):
    m = rng.standard_normal((dim, dim))
    return sp.csr_matrix(m @ m.T + dim * np.eye(dim))


def _sparse_spd(rng, dim):
    """A random sparse SPD matrix, cheap to factor at any dimension."""
    r = sp.random(dim, dim, density=min(1.0, 3.0 / dim), random_state=rng)
    return sp.csr_matrix(r @ r.T + 4.0 * sp.identity(dim))


def _assert_matches_columns(f, got, want):
    """A block solve against column-by-column solves: bit for bit through
    SuperLU; through a dense inverse, a GEMM and a GEMV may round apart."""
    if f.dense:
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())
    else:
        assert np.array_equal(got, want)


class TestSparseSpd:
    """The one finiteness and symmetry check, as ``factorize`` runs it on its argument."""

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            factorize(sp.csr_matrix(np.ones((2, 3))))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            factorize(sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 1.0]])))

    def test_sums_duplicates(self):
        coo = sp.coo_matrix(([1.0, 1.0], ([0, 0], [0, 0])), shape=(1, 1))
        assert factorize(coo).solve(np.array([4.0])) == pytest.approx(2.0)

    @pytest.mark.parametrize("dim", [4, 226])
    @pytest.mark.parametrize(
        "entry,value", [((1, 1), np.nan), ((0, 1), np.inf)], ids=["nan-diagonal", "inf-offdiagonal"]
    )
    def test_rejects_non_finite(self, monkeypatch, dim, entry, value):
        # before either path factors a block, as one block or as two
        def no_factoring(*args, **kwargs):
            raise AssertionError("a non-finite matrix reached the factorization")

        monkeypatch.setattr(sparse_linalg.spla, "splu", no_factoring)
        monkeypatch.setattr(sparse_linalg, "_block_inverse", no_factoring)
        m = sp.lil_matrix(_sparse_spd(np.random.default_rng(dim), dim))
        m[entry] = m[entry[::-1]] = value
        for sizes in (None, [2, dim - 2]):
            with pytest.raises(ValueError, match=rf"entry \({entry[0]}, {entry[1]}\) is {value}, not finite"):
                factorize(m, sizes)

    def test_checked_once_per_factorization(self, monkeypatch):
        # the splitting solver's prediction factors check the mass and the
        # stiffness they are formed from once each, then factorize_stack
        # checks each of the three normal matrices once
        shapes, checked = [], []
        init = SparseSpd.__init__

        def counting_init(self, mat):
            shapes.append(mat.shape)
            init(self, mat)

        def counting_check(mat):
            checked.append(mat)
            return check_symmetric(mat)

        monkeypatch.setattr(SparseSpd, "__init__", counting_init)
        monkeypatch.setattr(splitting_solver, "check_symmetric", counting_check)
        problem = example_5_1()
        sys = build_level(problem, 4)
        assert shapes == []
        PredictionFactors.build(sys, SolverConfig(alpha=problem.alpha, beta=problem.beta))
        assert [id(m) for m in checked] == [id(sys.mass), id(sys.stiffness)]
        assert shapes == [(sys.ndof, sys.ndof)] * 3

    def test_check_messages(self):
        # check_symmetric's one-line reasons, on a matrix of one pattern
        # with its transpose and on one of another
        m = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert check_symmetric(m) is not None
        for bad in (np.array([[2.0, 1.0], [1.0 + 1e-9, 2.0]]), np.array([[2.0, 1.0], [0.0, 2.0]])):
            with pytest.raises(ValueError, match="^matrix is not symmetric within tolerance$"):
                check_symmetric(sp.csr_matrix(bad))
        assert check_symmetric(sp.csr_matrix(np.array([[2.0, 1.0], [1.0 + 1e-15, 2.0]]))) is not None


class TestFactorize:
    def test_identity(self):
        f = factorize(sp.identity(3))
        b = np.array([1.0, 2.0, 3.0])
        assert np.allclose(f.solve(b), b)

    def test_scalar_diagonal(self):
        f = factorize(sp.csr_matrix(np.array([[4.0]])))
        assert f.solve(np.array([8.0])) == pytest.approx(2.0)

    def test_two_by_two(self):
        f = factorize(sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]])))
        assert np.allclose(f.solve(np.array([3.0, 3.0])), [1.0, 1.0])

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            factorize(sp.csr_matrix(np.diag([1.0, -1.0])))
        assert exc.value.pivot_index in (0, 1)

    def test_indefinite_offdiagonal(self):
        with pytest.raises(NotPositiveDefiniteError):
            factorize(sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]])))

    def test_solve_dimension_mismatch(self):
        f = factorize(sp.identity(3))
        with pytest.raises(ValueError, match="dimension"):
            f.solve(np.ones(4))

    def test_dense_cap_boundary(self, monkeypatch):
        # a block of at most BLOCK_MAX_NDOF rows is inverted, a larger one
        # goes to SuperLU: as a whole matrix, and block by block in one
        def no_superlu(*args, **kwargs):
            raise AssertionError("the dense path reached SuperLU")

        rng = np.random.default_rng(3)
        for dim, dense in ((BLOCK_MAX_NDOF, True), (BLOCK_MAX_NDOF + 1, False)):
            m = _sparse_spd(rng, dim)
            with monkeypatch.context() as patch:
                if dense:
                    patch.setattr(sparse_linalg.spla, "splu", no_superlu)
                f = factorize(m)
            assert f.dense is dense
            b = rng.standard_normal((dim, 3))
            assert np.linalg.norm(m @ f.solve(b) - b) <= 1e-10 * np.linalg.norm(b)
        sizes = [BLOCK_MAX_NDOF + 1, 3, BLOCK_MAX_NDOF]
        m = sp.block_diag([_sparse_spd(rng, k) for k in sizes], format="csr")
        f = factorize(m, sizes)
        assert [isinstance(part, np.ndarray) for part in f.parts] == [False, True, True]
        assert [(r.start, r.stop) for r in f.rows] == [(0, 401), (401, 404), (404, 804)]
        b = rng.standard_normal((m.shape[0], 3))
        for x in (b, b[:, 0]):
            got = f.solve(x)
            assert np.linalg.norm(m @ got - x) <= 1e-10 * np.linalg.norm(x)
        out = np.full_like(b, np.nan)
        assert f.solve(b, out=out) is out and np.array_equal(out, f.solve(b))

    def test_stack_holds_each_matrix_factor(self, monkeypatch):
        # each block's factors of every matrix, in their order: the dense
        # inverses, bit for bit those factorize forms alone, in one
        # C-order array per block; SuperLU's in a tuple.  A matrix that
        # fails the checks fails the stack before any block is factored.
        rng = np.random.default_rng(8)
        sizes = [BLOCK_MAX_NDOF + 1, 3, 5]
        mats = [sp.block_diag([_sparse_spd(rng, k) for k in sizes], format="csr") for _ in range(3)]
        rows, stacks = factorize_stack(mats, sizes)
        assert rows == block_rows(sizes)
        assert isinstance(stacks[0], tuple) and len(stacks[0]) == 3
        for i, m in enumerate(mats):
            alone = factorize(m, sizes).parts
            for stack, part in zip(stacks[1:], alone[1:]):
                assert stack.shape == (3, *part.shape) and stack.flags.c_contiguous
                assert np.array_equal(stack[i], part)
            b = rng.standard_normal(sum(sizes))
            assert np.array_equal(stacks[0][i].solve(b[rows[0]]), alone[0].solve(b[rows[0]]))
        n = sum(sizes)
        corner = sp.csr_matrix(([1.0, 1.0], ([0, n - 1], [n - 1, 0])), shape=(n, n))
        monkeypatch.setattr(sparse_linalg, "_block_inverse", None)  # a factored block raises TypeError
        monkeypatch.setattr(sparse_linalg.spla, "splu", None)
        with pytest.raises(ValueError, match="outside its diagonal blocks"):
            factorize_stack([mats[0], mats[1] + corner], sizes)

    def test_blocks_checked(self):
        m = sp.csr_matrix(np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 2.0]]))
        assert np.allclose(m @ factorize(m, [2, 1]).solve(np.ones(3)), 1.0)
        with pytest.raises(ValueError, match="outside its diagonal blocks"):
            factorize(m, [1, 2])
        with pytest.raises(ValueError, match="block sizes sum to 2"):
            factorize(m, [1, 1])

    @pytest.mark.parametrize("dense", [True, False])
    def test_stored_zero_outside_the_blocks_accepted(self, dense, monkeypatch):
        # a stored entry counts only when it is nonzero, on both paths
        monkeypatch.setattr(sparse_linalg, "BLOCK_MAX_NDOF", BLOCK_MAX_NDOF if dense else 0)
        data, indices, indptr = [2.0, 1.0, 0.0, 1.0, 2.0, 0.0, 2.0], [0, 1, 2, 0, 1, 0, 2], [0, 3, 5, 7]
        m = sp.csr_matrix((data, indices, indptr), shape=(3, 3))
        assert m.nnz == 7 and m.count_nonzero() == 5
        f = factorize(m, [2, 1])
        assert f.dense is dense
        np.testing.assert_allclose(m @ f.solve(np.ones(3)), 1.0, rtol=1e-14)
        assert m.nnz == 7  # the caller's matrix keeps its stored zeros

    def test_dense_block_matches_the_slice(self):
        rng = np.random.default_rng(3)
        sizes = [4, 1, 6]
        m = sp.block_diag([_sparse_spd(rng, k) for k in sizes], format="csr")
        for rows in block_rows(sizes):
            assert np.array_equal(dense_block(m, rows), m[rows, rows].toarray())
            slot = np.full((rows.stop - rows.start,) * 2, np.nan).T  # into a Fortran-order array
            assert dense_block(m, rows, out=slot) is slot and np.array_equal(slot, m[rows, rows].toarray())

    def test_pivot_counts_the_rows_before_its_block(self, monkeypatch):
        m = sp.csr_matrix(np.diag([1.0, 2.0, 3.0, -1.0, 5.0]))
        for cap in (BLOCK_MAX_NDOF, 0):  # the dense path, then SuperLU's
            monkeypatch.setattr(sparse_linalg, "BLOCK_MAX_NDOF", cap)
            with pytest.raises(NotPositiveDefiniteError) as exc:
                factorize(m, [2, 3])
            assert exc.value.pivot_index == 3

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=12))
    def test_residual_property(self, seed, dim):
        rng = np.random.default_rng(seed)
        m = _random_spd(rng, dim)
        b = rng.standard_normal(dim)
        x = factorize(m).solve(b)
        assert np.linalg.norm(m @ x - b) <= 1e-10 * max(1.0, np.linalg.norm(b))


def _solved(jobs, pool=None):
    """solve_multi over (factor, rhs) pairs, one task each; returns the solutions."""
    return solve_multi([partial(f.solve, rhs) for f, rhs in jobs], pool)


class TestSolveMulti:
    @pytest.mark.parametrize("workers", [None, 2])
    def test_results_in_task_order(self, workers):
        # On the pool, task 0 waits until the last task has run, so it finishes last.
        finished, last_ran = [], threading.Event()

        def task(i):
            if i == 0 and workers:
                assert last_ran.wait(timeout=30)
            finished.append(i)
            if i == 3:
                last_ran.set()
            return 10 * i

        with ThreadPoolExecutor(workers) if workers else nullcontext() as pool:
            assert solve_multi([partial(task, i) for i in range(4)], pool) == [0, 10, 20, 30]
        assert finished == ([1, 2, 3, 0] if workers else [0, 1, 2, 3])

    def test_single_task_runs_on_the_calling_thread(self):
        # a batch of one task has nothing to overlap, so it skips the
        # pool's hand-off; a batch of two still uses the pool
        with ThreadPoolExecutor(2) as pool:
            caller = threading.get_ident()
            assert solve_multi([threading.get_ident], pool) == [caller]
            assert caller not in solve_multi([threading.get_ident] * 2, pool)

    def test_identity_passthrough(self):
        f = factorize(sp.identity(4))
        rhs = np.arange(12.0).reshape(4, 3)
        assert np.array_equal(_solved([(f, rhs)])[0], rhs)

    def test_diagonal_two(self):
        f = factorize(2.0 * sp.identity(1))
        rhs = np.array([[2.0, 4.0, 6.0]])
        assert np.allclose(_solved([(f, rhs)])[0], [[1.0, 2.0, 3.0]])

    def test_matches_serial_exactly(self):
        rng = np.random.default_rng(7)
        for f in (factorize(_random_spd(rng, 10)), factorize(_sparse_spd(rng, BLOCK_MAX_NDOF + 1))):
            rhs = rng.standard_normal((f.dimension, 5))
            serial = np.column_stack([f.solve(rhs[:, j]) for j in range(5)])
            inline = _solved([(f, rhs)])[0]
            _assert_matches_columns(f, inline, serial)
            for workers in (2, 4):
                with ThreadPoolExecutor(workers) as pool:
                    assert np.array_equal(_solved([(f, rhs)], pool)[0], inline)

    def test_single_column_vector(self):
        f = factorize(2.0 * sp.identity(3))
        assert np.allclose(_solved([(f, np.ones(3))])[0], 0.5 * np.ones(3))

    def test_dimension_mismatch(self):
        f = factorize(sp.identity(3))
        with ThreadPoolExecutor(2) as pool:
            with pytest.raises(ValueError, match="dimension"):
                _solved([(f, np.ones((4, 2)))], pool)

    def test_mixed_batch_matches_column_solves(self):
        rng = np.random.default_rng(8)
        big = BLOCK_MAX_NDOF + 1
        factors = [factorize(_random_spd(rng, 10)), factorize(_sparse_spd(rng, big)),
                   factorize(_random_spd(rng, 10))]
        rhs = [rng.standard_normal(10), rng.standard_normal((big, 5)), rng.standard_normal((10, 19))]
        jobs = list(zip(factors, rhs))
        expected = [factors[0].solve(rhs[0])] + [
            np.column_stack([f.solve(b[:, j]) for j in range(b.shape[1])]) for f, b in jobs[1:]
        ]
        inline = _solved(jobs)
        for f, got, want in zip(factors, inline, expected):
            _assert_matches_columns(f, got, want)
        with ThreadPoolExecutor(2) as pool:
            for got, want in zip(_solved(jobs, pool), inline):
                assert np.array_equal(got, want)
