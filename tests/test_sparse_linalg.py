from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from parasplit.experiments import build_level, example_5_1
from parasplit.sparse_linalg import NotPositiveDefiniteError, SparseSpd, factorize, solve_multi
from parasplit.splitting_solver import PredictionFactors, SolverConfig


def _random_spd(rng, dim):
    m = rng.standard_normal((dim, dim))
    return sp.csr_matrix(m @ m.T + dim * np.eye(dim))


class TestSparseSpd:
    """The one symmetry check, as ``factorize`` runs it on its argument."""

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            factorize(sp.csr_matrix(np.ones((2, 3))))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            factorize(sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 1.0]])))

    def test_sums_duplicates(self):
        coo = sp.coo_matrix(([1.0, 1.0], ([0, 0], [0, 0])), shape=(1, 1))
        assert factorize(coo).solve(np.array([4.0])) == pytest.approx(2.0)

    def test_checked_once_per_factorization(self, monkeypatch):
        shapes = []
        init = SparseSpd.__init__

        def counting_init(self, mat):
            shapes.append(mat.shape)
            init(self, mat)

        monkeypatch.setattr(SparseSpd, "__init__", counting_init)
        problem = example_5_1()
        sys = build_level(problem, 4)
        assert shapes == []
        PredictionFactors.build(sys, SolverConfig(alpha=problem.alpha, beta=problem.beta))
        assert shapes == [(sys.ndof, sys.ndof)] * 3


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

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=12))
    def test_residual_property(self, seed, dim):
        rng = np.random.default_rng(seed)
        m = _random_spd(rng, dim)
        b = rng.standard_normal(dim)
        x = factorize(m).solve(b)
        assert np.linalg.norm(m @ x - b) <= 1e-10 * max(1.0, np.linalg.norm(b))


def _solved(jobs, pool=None):
    """solve_multi over (factor, rhs) pairs, one task each; returns the filled outputs."""
    outs = [np.full_like(rhs, np.nan) for _, rhs in jobs]

    def task(f, rhs, out):
        out[...] = f.solve(rhs)

    solve_multi([partial(task, f, rhs, out) for (f, rhs), out in zip(jobs, outs)], pool)
    return outs


class TestSolveMulti:
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
        m = _random_spd(rng, 10)
        f = factorize(m)
        rhs = rng.standard_normal((10, 5))
        serial = np.column_stack([f.solve(rhs[:, j]) for j in range(5)])
        assert np.array_equal(_solved([(f, rhs)])[0], serial)
        for workers in (2, 4):
            with ThreadPoolExecutor(workers) as pool:
                assert np.array_equal(_solved([(f, rhs)], pool)[0], serial)

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
        factors = [factorize(_random_spd(rng, 10)) for _ in range(3)]
        rhs = [rng.standard_normal(10), rng.standard_normal((10, 5)), rng.standard_normal((10, 19))]
        jobs = list(zip(factors, rhs))
        expected = [factors[0].solve(rhs[0])] + [
            np.column_stack([f.solve(b[:, j]) for j in range(b.shape[1])]) for f, b in jobs[1:]
        ]
        with ThreadPoolExecutor(2) as pool:
            for run in (_solved(jobs), _solved(jobs, pool)):
                for got, want in zip(run, expected):
                    assert np.array_equal(got, want)
