"""One finiteness and symmetry check, SPD factorization and batched solve
tasks on sparse matrices.

``factorize`` is the one place that knows the backend: SuperLU in symmetric
mode, whose pivots expose positive definiteness.  A factor of dimension at
most ``DENSE_MAX_NDOF`` is also inverted once, and its solves are one dense
matrix product each (a GEMM for a block of right-hand sides, a GEMV for
one): on such small systems SuperLU's sparse triangular sweeps run several
times slower than one dense product against the inverse.  The inverse is
formed once, so the dense path pays only on runs long enough to repay it:
at the cap, the splitting solver's three inverses cost what 20 to 40 of
its predictions save (fewer on finer time grids, which solve more columns
per prediction).  Above the cap the payback grows fast, and from ndof ~530
the dense product is no faster at some widths a prediction uses, so SuperLU
does the solves (``tools/dense_sweep.py`` measures both sides).  A solve
through the explicit inverse has a forward error of the same order,
cond(S) * eps, as a backward-stable one.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

_SYMMETRY_TOL = 1e-14
DENSE_MAX_NDOF = 225  # largest dimension applied as a dense inverse; see tools/dense_sweep.py


class NotPositiveDefiniteError(ValueError):
    """Raised when a factorization hits a non-positive pivot."""

    def __init__(self, pivot_index: int):
        self.pivot_index = int(pivot_index)
        super().__init__(f"matrix not positive definite (pivot {pivot_index} <= 0)")


class SparseSpd:
    """A square sparse matrix checked for finite entries and symmetry, in
    duplicate-free CSR.

    ``factorize`` builds one from its argument; the operators themselves are
    plain scipy matrices.  Positive definiteness is checked by the
    factorization's pivots, not here.
    """

    def __init__(self, mat):
        mat = sp.csr_matrix(mat)
        if mat.shape[0] != mat.shape[1]:
            raise ValueError(f"matrix must be square, got shape {mat.shape}")
        mat.sum_duplicates()
        bad = np.flatnonzero(~np.isfinite(mat.data))
        if bad.size:
            k = bad[0]
            row = np.searchsorted(mat.indptr, k, side="right") - 1
            raise ValueError(f"matrix entry ({row}, {mat.indices[k]}) is {mat.data[k]}, not finite")
        scale = max(1.0, abs(mat).max() if mat.nnz else 0.0)
        asym = abs(mat - mat.T)
        if asym.nnz and asym.max() > _SYMMETRY_TOL * scale:
            raise ValueError("matrix is not symmetric within tolerance")
        self.mat = mat


class CholFactor:
    """Symmetric factorization of an SPD sparse matrix.

    Backed by a fill-reducing LU kept in symmetric mode (no row pivoting),
    so the pivots expose positive definiteness and the factorization is
    deterministic for a fixed matrix.  A small factor (``dense``) also holds
    the inverse, and solves are one dense product with it.  Immutable and
    safe to share across threads.  A solve is deterministic for a fixed
    right-hand-side shape, but its columns are not independent bit for bit:
    a one-column solve can differ in the last bits from the same column
    solved within a block.
    """

    def __init__(self, lu, dimension: int, inverse: np.ndarray | None = None):
        self._lu = lu
        self._inverse = inverse
        self.dimension = dimension

    @property
    def dense(self) -> bool:
        """Whether solves apply the dense inverse instead of the LU factors."""
        return self._inverse is not None

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
        if self._inverse is not None:
            return self._inverse @ b
        return self._lu.solve(b)


def factorize(m: sp.spmatrix) -> CholFactor:
    """Factor a sparse SPD matrix for repeated solves.

    Raises ValueError when ``m`` is not square, has a non-finite entry or
    is not symmetric, and NotPositiveDefiniteError (with the offending pivot
    index) when a non-positive pivot appears.  At most ``DENSE_MAX_NDOF``
    rows, the factor also forms the inverse, once, from the LU factors.
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
    n = mat.shape[0]
    inverse = np.ascontiguousarray(lu.solve(np.eye(n))) if n <= DENSE_MAX_NDOF else None
    return CholFactor(lu, n, inverse)


def solve_multi(tasks, pool=None) -> None:
    """Run a batch of solve tasks, zero-argument callables that each write
    their own outputs, and wait for every one.

    Each task is one unit of ``pool`` (None runs them inline, in order); the
    first exception a task raised is raised here.  ``splitting_solver``'s
    module docstring says how a prediction splits into tasks.
    """
    if pool is None:
        for task in tasks:
            task()
        return
    for future in [pool.submit(task) for task in tasks]:
        future.result()
