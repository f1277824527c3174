"""One symmetry check, SPD factorization and multi-RHS solves on sparse matrices."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

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


def solve_multi(f: CholFactor, rhs: np.ndarray, thread_count: int = 1) -> np.ndarray:
    """Solve one system per column of ``rhs``.

    Columns are split into fixed-width chunks determined by the column count
    alone; ``thread_count`` only sets how many chunks run concurrently.  The
    backend's multi-RHS triangular solve is batch-width sensitive at the last
    bit, so identical chunking is what makes results independent of the
    thread count.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim == 1:
        return f.solve(rhs)
    if rhs.shape[0] != f.dimension:
        raise ValueError(f"rhs has {rhs.shape[0]} rows, factor dimension is {f.dimension}")
    ncols = rhs.shape[1]
    if ncols <= _CHUNK_COLS:
        return f.solve(rhs)

    out = np.empty_like(rhs)
    bounds = list(range(0, ncols, _CHUNK_COLS)) + [ncols]
    chunks = list(zip(bounds[:-1], bounds[1:]))

    def run(lo, hi):
        out[:, lo:hi] = f.solve(rhs[:, lo:hi])

    if thread_count <= 1:
        for lo, hi in chunks:
            run(lo, hi)
        return out
    with ThreadPoolExecutor(max_workers=min(thread_count, len(chunks))) as pool:
        futures = [pool.submit(run, lo, hi) for lo, hi in chunks]
        for fut in futures:
            fut.result()
    return out

