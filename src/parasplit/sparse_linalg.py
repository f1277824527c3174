"""One symmetry check, SPD factorization and batched solve tasks on sparse matrices."""

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

    @property
    def nnz(self) -> int:
        """Stored nonzeros of the factors, nnz(L) + nnz(U).

        SuperLU's own ``nnz`` counts its supernodal storage, explicit zeros
        included, so it can exceed this on small matrices.
        """
        return self._lu.L.nnz + self._lu.U.nnz

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


def solve_multi(tasks, pool=None) -> None:
    """Run a batch of solve tasks, zero-argument callables that each write
    their own outputs, and wait for every one.

    Each task is one unit of ``pool`` (None runs them inline, in order); the
    first exception a task raised is raised here.  The splitting solver
    opens one pool per solve, with ``thread_count`` workers capped at the
    CPUs the process may run on, and makes each time-slice chunk of a
    prediction one task: the chunk's right-hand sides, its control and
    state solves and its predicted products.  What couples the chunks (the
    shifted residual before the batch; the constraint map, the multiplier
    and the box copies after it) stays on the calling thread.  The
    backend's triangular solve can differ in the last bit with the batch
    width (a one-column solve from a multi-column one), so the chunks are
    fixed by the step count alone, which makes the solver's iterates
    bit-identical for every thread count.
    """
    if pool is None:
        for task in tasks:
            task()
        return
    for future in [pool.submit(task) for task in tasks]:
        future.result()
