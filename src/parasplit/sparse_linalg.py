"""One finiteness and symmetry check, SPD factorization and batched solve
tasks on sparse matrices.

``factorize_stack`` is the one place that knows the backend
(``factorize`` is its one-matrix case).  It factors matrices that are block
diagonal with the same contiguous diagonal blocks, one block at a time,
after one symmetry check of each whole matrix, and keeps each block's
factors of all the matrices together, in one stack (the splitting
solver's prediction factors its control, state and terminal matrices in
one call, ``PredictionFactors.stacks``).  A matrix in node coordinates is
one block.  The splitting solver's matrices, in the mirror
basis (``mirrors``), are up to four blocks of about ndof / 4.  Each block
takes one of two paths:

- At most ``BLOCK_MAX_NDOF`` rows, its inverse: the block, made dense, is
  inverted once from its Cholesky factor (LAPACK ``dpotrf`` and
  ``dpotri``), whose pivots expose positive definiteness, in place in its
  slot of one (matrices, size, size) array.  A solve is one dense product
  per block on its contiguous rows (a GEMM for a block of right-hand
  sides, a GEMV for one; one batched product applies several inverses of
  a block's stack); on such small systems SuperLU's sparse triangular
  sweeps run several times slower.
- Above it, SuperLU's factors of the block.

An inverse is formed once, so it pays only on runs long enough to repay
it.  ``tools/dense_sweep.py`` times both paths on the splitting solver's
factors in the mirror basis (``BENCH_dense.json``).  A solve through an
explicit inverse has a forward error of the same order, cond(S) * eps, as
a backward-stable one.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

_SYMMETRY_TOL = 1e-14
BLOCK_MAX_NDOF = 400  # largest block applied as a dense inverse; see tools/dense_sweep.py


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
    """Factorization of an SPD matrix S, block diagonal with contiguous
    diagonal blocks, for repeated solves (``factorize`` builds it).

    ``parts`` holds one entry per block, in row order, with the block's
    rows in ``rows``: the block's inverse, formed from its dense Cholesky
    factor, or SuperLU's factors of it, a fill-reducing LU kept in
    symmetric mode (no row pivoting), so the pivots expose positive
    definiteness and the factorization is deterministic for a fixed matrix.

    Immutable and safe to share across threads.  A solve is deterministic
    for a fixed right-hand-side shape, but its columns are not independent
    bit for bit: a one-column solve can differ in the last bits from the
    same column solved within a block.
    """

    def __init__(self, rows: list[slice], parts: list):
        self.rows = rows
        self.parts = parts
        self.dimension = rows[-1].stop

    @property
    def dense(self) -> bool:
        """Whether every block is applied as its dense inverse."""
        return all(isinstance(part, np.ndarray) for part in self.parts)

    @property
    def nnz(self) -> int:
        """Stored entries of the factor, summed over the blocks: size^2 for
        an inverse, nnz(L) + nnz(U) for SuperLU's factors.

        SuperLU's own ``nnz`` counts its supernodal storage, explicit zeros
        included, so it can exceed nnz(L) + nnz(U) on small matrices.
        """
        return sum(p.size if isinstance(p, np.ndarray) else p.L.nnz + p.U.nnz for p in self.parts)

    def solve(self, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """S^-1 b for b of shape (dimension,) or (dimension, k), one block's
        rows at a time; into ``out`` (b's shape, not b itself) when given."""
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.dimension:
            raise ValueError(f"rhs has {b.shape[0]} rows, factor dimension is {self.dimension}")
        if out is None:
            out = np.empty_like(b)
        for rows, part in zip(self.rows, self.parts):
            if isinstance(part, np.ndarray):
                np.matmul(part, b[rows], out=out[rows])
            else:
                out[rows] = part.solve(b[rows])
        return out


def block_rows(sizes: list[int]) -> list[slice]:
    """The rows of contiguous diagonal blocks of the given sizes, in row order."""
    bounds = np.cumsum([0, *sizes])
    return [slice(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]


def dense_block(mat: sp.csr_matrix, rows: slice, out: np.ndarray | None = None) -> np.ndarray:
    """The diagonal block mat[rows, rows] of a duplicate-free CSR matrix
    with no entry outside its diagonal blocks, made dense: the rows' run of
    ``indices`` and ``data`` scattered into a zeroed array (``out``, of the
    block's shape, when given), at about a third of the cost of scipy's 2-D
    slice."""
    lo, hi = rows.start, rows.stop
    run = slice(mat.indptr[lo], mat.indptr[hi])
    if out is None:
        out = np.zeros((hi - lo, hi - lo))
    else:
        out[...] = 0.0
    out[np.repeat(np.arange(hi - lo), np.diff(mat.indptr[lo : hi + 1])), mat.indices[run] - lo] = mat.data[run]
    return out


def _block_inverse(block: np.ndarray, offset: int) -> None:
    """Invert a dense SPD block in place by its Cholesky factor.
    ``block`` is Fortran-contiguous, LAPACK's order, so ``dpotrf`` and
    ``dpotri`` work in its memory without a copy.  It is the transpose of a
    C-order array (a GEMM with a Fortran-order operand runs slower), which
    holds the same inverse, as the inverse is made exactly symmetric.
    NotPositiveDefiniteError (pivot ``offset`` + the block's pivot) when
    the factorization fails."""
    factor, info = scipy.linalg.lapack.dpotrf(block, lower=True, overwrite_a=True)
    if info > 0:
        raise NotPositiveDefiniteError(offset + info - 1)
    inverse, _ = scipy.linalg.lapack.dpotri(factor, lower=True, overwrite_c=True)
    inverse += np.tril(inverse, -1).T  # dpotri leaves the upper triangle as dpotrf cleaned it


def _superlu(block: sp.csr_matrix, offset: int):
    """SuperLU's factors of a sparse SPD block; NotPositiveDefiniteError
    (pivot ``offset`` + the block's pivot) at a non-positive pivot."""
    lu = spla.splu(
        sp.csc_matrix(block),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    bad = np.flatnonzero(lu.U.diagonal() <= 0.0)
    if bad.size:
        raise NotPositiveDefiniteError(offset + bad[0])
    return lu


def factorize(m: sp.spmatrix, sizes: list[int] | None = None) -> CholFactor:
    """Factor a sparse SPD matrix for repeated solves: ``factorize_stack``
    of the one matrix, its parts the first (only) entry of each block's
    stack."""
    rows, stacks = factorize_stack([m], sizes)
    return CholFactor(rows, [stack[0] for stack in stacks])


def factorize_stack(mats: list[sp.spmatrix], sizes: list[int] | None = None) -> tuple[list[slice], list]:
    """Factor sparse SPD matrices of the same shape and diagonal blocks for
    repeated solves.  Returns the blocks' rows and, per block, its factors
    of every matrix stacked in their order: the dense inverses as one
    (len(mats), size, size) array, so one batched product applies them
    all, or a tuple of SuperLU's factors.

    ``sizes`` gives the matrices' contiguous diagonal blocks in row order
    (by default one block of every row).  Each block of at most
    ``BLOCK_MAX_NDOF`` rows is inverted once from its dense Cholesky
    factor, in place in its slot of the stack; a larger one gets SuperLU's
    factors.

    Raises ValueError when a matrix is not square, has a non-finite entry,
    is not symmetric, or has a nonzero entry outside its blocks (a stored
    zero there is dropped), and
    NotPositiveDefiniteError (with the offending pivot index) when a
    non-positive pivot appears.  A pivot index counts the block's rows
    before it, then the rows of a dense block, or SuperLU's fill-reducing
    order within a sparse one.  Every matrix is checked before any block
    is factored.
    """
    checked = [SparseSpd(m).mat for m in mats]
    sizes = [checked[0].shape[0]] if sizes is None else sizes
    checked = [_within_blocks(mat, sizes) for mat in checked]
    rows = block_rows(sizes)
    stacks = []
    for r in rows:
        if r.stop - r.start <= BLOCK_MAX_NDOF:
            stack = np.empty((len(checked), r.stop - r.start, r.stop - r.start))
            for mat, slot in zip(checked, stack):
                _block_inverse(dense_block(mat, r, out=slot.T), r.start)
            stacks.append(stack)
        else:
            stacks.append(tuple(_superlu(mat[r, r], r.start) for mat in checked))
    return rows, stacks


def _within_blocks(mat: sp.csr_matrix, sizes: list[int]) -> sp.csr_matrix:
    """``mat`` with no entry outside its diagonal blocks of ``sizes``: its
    stored zeros there dropped, in a copy; ValueError for a nonzero there
    or sizes that miss its rows."""
    n = mat.shape[0]
    if sum(sizes) != n:
        raise ValueError(f"block sizes sum to {sum(sizes)}, the matrix has {n} rows")
    block = np.repeat(np.arange(len(sizes)), sizes)  # each row's (and column's) block
    outside = np.repeat(block, np.diff(mat.indptr)) != block[mat.indices]
    if mat.data[outside].any():
        raise ValueError("matrix has entries outside its diagonal blocks")
    if outside.any():  # stored zeros only, which a block must not take
        mat = mat.copy()
        mat.eliminate_zeros()
    return mat


def solve_multi(tasks, pool=None) -> list:
    """Run a batch of tasks (one per group of an iteration's rows, or the
    box variant's projection chunks), zero-argument callables, wait for
    every one and return their results in task order, whichever finished
    first.

    Each task is one unit of ``pool``; without a pool, or for a batch of
    one task, which no other task could overlap, they run inline on the
    calling thread, in order.  The first exception a task raised, in task
    order, is raised here.  ``splitting_solver``'s module docstring says
    how an iteration splits into tasks.
    """
    if pool is None or len(tasks) == 1:
        return [task() for task in tasks]
    return [future.result() for future in [pool.submit(task) for task in tasks]]
