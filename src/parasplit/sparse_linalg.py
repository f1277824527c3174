"""One symmetry check, SPD factorization and batched multi-RHS solves on sparse matrices."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

_SYMMETRY_TOL = 1e-14


class NotPositiveDefiniteError(ValueError):
    """Raised when a factorization hits a non-positive pivot."""

    def __init__(self, pivot_index: int):
        self.pivot_index = int(pivot_index)
        super().__init__(f"matrix not positive definite (pivot {pivot_index} <= 0)")


class SparseSpd:
    """A square sparse matrix checked for symmetry, in duplicate-free CSR.

    ``factorize`` builds one from its argument; the operators themselves are
    plain scipy matrices.  Positive definiteness is checked by the
    factorization's pivots, not here.
    """

    def __init__(self, mat):
        mat = sp.csr_matrix(mat)
        if mat.shape[0] != mat.shape[1]:
            raise ValueError(f"matrix must be square, got shape {mat.shape}")
        mat.sum_duplicates()
        scale = max(1.0, abs(mat).max() if mat.nnz else 0.0)
        asym = abs(mat - mat.T)
        if asym.nnz and asym.max() > _SYMMETRY_TOL * scale:
            raise ValueError("matrix is not symmetric within tolerance")
        self.mat = mat


class CholFactor:
    """Symmetric factorization of an SPD sparse matrix.

    Backed by a fill-reducing LU kept in symmetric mode (no row pivoting),
    so the pivots expose positive definiteness and the factorization is
    deterministic for a fixed matrix.  Immutable and safe to share across
    threads; column solves are independent.
    """

    def __init__(self, lu, dimension: int):
        self._lu = lu
        self.dimension = dimension

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.dimension:
            raise ValueError(f"rhs has {b.shape[0]} rows, factor dimension is {self.dimension}")
        return self._lu.solve(b)


def factorize(m: sp.spmatrix) -> CholFactor:
    """Factor a sparse SPD matrix for repeated solves.

    Raises ValueError when ``m`` is not square or not symmetric, and
    NotPositiveDefiniteError (with the offending pivot index) when a
    non-positive pivot appears.
    """
    mat = SparseSpd(m).mat
    lu = spla.splu(
        sp.csc_matrix(mat),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    pivots = lu.U.diagonal()
    bad = np.flatnonzero(pivots <= 0.0)
    if bad.size:
        raise NotPositiveDefiniteError(bad[0])
    return CholFactor(lu, mat.shape[0])


_CHUNK_COLS = 8


def _solve_into(f: CholFactor, rhs: np.ndarray, out: np.ndarray) -> None:
    out[...] = f.solve(rhs)


def solve_multi(jobs, pool=None) -> None:
    """Solve a batch of ``(factor, rhs, out)`` jobs, writing each solution into ``out``.

    A 2-D ``rhs`` holds one system per column.  Each job's columns are split
    into fixed-width chunks determined by its column count alone, and every
    chunk is one task on ``pool``; None runs the tasks inline.  Waits for
    every task.  The splitting solver opens one pool per solve, with
    ``thread_count`` workers capped at the CPUs the process may run on.  The
    backend's multi-RHS triangular solve is batch-width sensitive at the
    last bit, so identical chunking is what makes results, and so the
    solver's iterates, bit-identical for every thread count.
    """
    tasks = []
    for f, rhs, out in jobs:
        if rhs.shape[0] != f.dimension:
            raise ValueError(f"rhs has {rhs.shape[0]} rows, factor dimension is {f.dimension}")
        if rhs.ndim == 1:
            tasks.append((f, rhs, out))
        else:
            chunks = [slice(lo, lo + _CHUNK_COLS) for lo in range(0, rhs.shape[1], _CHUNK_COLS)]
            tasks += [(f, rhs[:, c], out[:, c]) for c in chunks]
    if pool is None:
        for task in tasks:
            _solve_into(*task)
        return
    for future in [pool.submit(_solve_into, *task) for task in tasks]:
        future.result()
