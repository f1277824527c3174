"""One finiteness and symmetry check, SPD factorization and batched solve
tasks on sparse matrices.

``factorize`` is the one place that knows the backend.  It takes one of
three paths per matrix, all after the same symmetry check:

- At most ``DENSE_MAX_NDOF`` rows, the whole inverse: the matrix, made
  dense, is inverted once from its Cholesky factor (LAPACK ``dpotrf`` and
  ``dpotri``), whose pivots expose positive definiteness.  A solve is one
  dense product (a GEMM for a block of right-hand sides, a GEMV for one);
  on such small systems SuperLU's sparse triangular sweeps run several
  times slower.
- Above it, given a mirror basis (``mirrors``) of two or more blocks of at
  most ``BLOCK_MAX_NDOF`` rows, one inverse per block: each diagonal block
  of the matrix in the symmetry-adapted basis is inverted by the same
  Cholesky routine.  The four inverses hold a quarter of one whole
  inverse's entries and cost about a sixteenth of its flops to form and a
  quarter to apply; a solve is one gather, one GEMM per block and one
  scatter (``solve_blocked``).
- Otherwise SuperLU's factors, the only sparse path: a matrix without a
  mirror, or with blocks above the cap.

An inverse is formed once, so a dense path pays only on runs long enough
to repay it.  ``tools/dense_sweep.py`` times every path on the splitting
solver's factors (``BENCH_dense.json``).  There the whole inverse repays
its build within 50 iterations above the cap, up to ndof 361 (289 in an
earlier sweep), but from 289 the blocked path predicts faster than the
whole inverse and builds in less time; at 225 each is ahead on one
example.  ``DENSE_MAX_NDOF`` rests on that crossover, not on the whole
inverse's payback.  The blocked path repays within 6 iterations up to
blocks of 256 (5.1 at n = 32: a prediction takes 2.6 ms against SuperLU's
5.3 ms) and within 17 up to blocks of 400 (52 in an earlier sweep); from
blocks of 441 it needs more than 50, and from blocks of about 600 its
predictions are slower than SuperLU's.  A solve through an explicit
inverse has a forward error of the same order, cond(S) * eps, as a
backward-stable one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

if TYPE_CHECKING:
    from .mirrors import MirrorBasis

_SYMMETRY_TOL = 1e-14
DENSE_MAX_NDOF = 225  # largest whole matrix applied as a dense inverse; see tools/dense_sweep.py
BLOCK_MAX_NDOF = 400  # largest mirror block applied as a dense inverse; see tools/dense_sweep.py


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
    """Factorization of an SPD matrix S for repeated solves, on one of three
    paths (``factorize`` chooses).

    - Whole inverse: ``inverses`` holds S^-1, formed from S's dense
      Cholesky factor, and a solve is one dense product with it.
    - Blocked: ``basis`` is a ``mirrors.MirrorBasis`` whose mirrors map S
      onto itself, and ``inverses`` holds, per block c, the inverse of the
      diagonal block Q_c^T S Q_c, formed by the same Cholesky routine, with
      the basis's orbit weights folded in (``solve_blocked`` applies them).
    - SuperLU: a fill-reducing LU kept in symmetric mode (no row pivoting),
      so the pivots expose positive definiteness and the factorization is
      deterministic for a fixed matrix.

    Immutable and safe to share across threads.  A solve is deterministic
    for a fixed right-hand-side shape, but its columns are not independent
    bit for bit: a one-column solve can differ in the last bits from the
    same column solved within a block.
    """

    def __init__(
        self,
        dimension: int,
        lu=None,
        inverses: list[np.ndarray] | None = None,
        basis: MirrorBasis | None = None,
    ):
        self.dimension = dimension
        self.inverses = inverses
        self.basis = basis
        self._lu = lu

    @property
    def dense(self) -> bool:
        """Whether solves apply dense inverses (whole or blocked) instead of
        the LU factors."""
        return self.inverses is not None

    @property
    def nnz(self) -> int:
        """Stored entries of the factor: nnz(L) + nnz(U) for SuperLU, the
        entries of the dense inverse(s), sum of size^2, otherwise.

        SuperLU's own ``nnz`` counts its supernodal storage, explicit zeros
        included, so it can exceed nnz(L) + nnz(U) on small matrices.
        """
        if self.inverses is not None:
            return sum(inv.size for inv in self.inverses)
        return self._lu.L.nnz + self._lu.U.nnz

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.dimension:
            raise ValueError(f"rhs has {b.shape[0]} rows, factor dimension is {self.dimension}")
        if self.inverses is None:
            return self._lu.solve(b)
        if self.basis is None:
            return self.inverses[0] @ b
        X = b.reshape(1, self.dimension, -1).copy()
        solve_blocked(self.basis, [(self, 0, slice(None))], X, BlockedWork(self.basis, 1, X.shape[2]))
        return X.reshape(b.shape)


class BlockedWork:
    """The arrays a blocked solve of right-hand sides of shape (slabs, ndof,
    k) works in: the orbit values (slabs x group x orbits x k), their
    character sums (slabs x blocks x orbits x k) and room for one block's
    part and solution.  Reused across solves of one shape; one per solve
    running at a time."""

    def __init__(self, basis: MirrorBasis, slabs: int, k: int):
        group, n_orb = basis.orbits.shape
        self.values = np.empty((slabs, group, n_orb, k))
        self.sums = np.empty((slabs, len(basis.sizes), n_orb, k))
        self.part = np.empty(slabs * max(basis.sizes) * k)
        self.solution = np.empty_like(self.part)


def solve_blocked(basis: MirrorBasis, jobs, X: np.ndarray, work: BlockedWork) -> None:
    """Overwrite parts of X, shape (slabs, ndof, k), with blocked solves:
    each ``(factor, slab, cols)`` job solves S^-1 X[slab][:, cols] from X as
    given, and the solutions replace those columns in job order.  The
    factors share ``basis``.

    One pass over X: gather each orbit's rows, form their character sums
    sum_g chi_c(g) X[orbits[g, o]] (the block coordinates Q_c^T X before the
    orbit weights 1 / (group * scale)), apply each block's weighted inverse,
    and map the result back by the transposed characters.  The weights
    (1 / (group * scale) on the way in, ``scale`` on the way out) are folded
    into the stored inverses.
    """
    slabs, group, _, k = work.values.shape
    blocks = work.sums.shape[1]
    values = work.values.reshape(slabs, group, -1)
    sums = work.sums.reshape(slabs, blocks, -1)
    np.take(X, basis.orbits, axis=1, out=work.values, mode="clip")  # the indices are in range
    np.matmul(basis.characters, values, out=sums)
    for c, (rows, keep) in enumerate(zip(basis.rows, basis.present)):
        shape, size = (slabs, len(rows), k), slabs * len(rows) * k  # leading entries: contiguous
        part = np.take(work.sums[:, c], rows, axis=1, out=work.part[:size].reshape(shape), mode="clip")
        solution = work.solution[:size].reshape(shape)
        for factor, slab, cols in jobs:
            np.matmul(factor.inverses[c], part[slab][:, cols], out=solution[slab][:, cols])
        work.sums[:, c, rows] = solution
        work.sums[:, c, ~keep] = 0.0  # orbits without a vector of this block
    np.matmul(basis.characters.T, sums, out=values)
    X[:, basis.orbits] = work.values  # the repeats of a DOF carry equal values


def _block_inverse(block: np.ndarray, offset: int) -> np.ndarray:
    """The inverse of a dense SPD matrix (a whole matrix, or one mirror
    block) by its Cholesky factor, symmetric; NotPositiveDefiniteError
    (pivot ``offset`` + the block's pivot) when the factorization fails."""
    factor, info = scipy.linalg.lapack.dpotrf(block, lower=True)
    if info > 0:
        raise NotPositiveDefiniteError(offset + info - 1)
    inverse, _ = scipy.linalg.lapack.dpotri(factor, lower=True, overwrite_c=True)
    inverse += np.tril(inverse, -1).T  # dpotri leaves the upper triangle as dpotrf cleaned it
    return inverse


def factorize(m: sp.spmatrix, basis: MirrorBasis | None = None) -> CholFactor:
    """Factor a sparse SPD matrix for repeated solves.

    Raises ValueError when ``m`` is not square, has a non-finite entry or
    is not symmetric, and NotPositiveDefiniteError (with the offending pivot
    index) when a non-positive pivot appears.  ``basis``, when given, must
    be a ``mirrors.MirrorBasis`` whose mirrors map ``m`` onto itself (the
    system's ``mirror_basis`` does, for any polynomial in its mass and
    stiffness).

    At most ``DENSE_MAX_NDOF`` rows, the factor is the whole inverse, formed
    once from the dense Cholesky factor.  Above it, with a basis of two or
    more blocks of at most ``BLOCK_MAX_NDOF`` rows each, it is the blocked
    inverse, each block inverted by the same routine.  Otherwise it is
    SuperLU's factors.  A pivot index counts in each path's own basis: the
    matrix's rows on the whole path, the symmetry-adapted basis, block by
    block, on the blocked path, and SuperLU's fill-reducing order on the
    sparse path.
    """
    mat = SparseSpd(m).mat
    n = mat.shape[0]
    if n <= DENSE_MAX_NDOF:
        # in C order: a GEMM with LAPACK's Fortran-order result runs slower
        return CholFactor(n, inverses=[np.ascontiguousarray(_block_inverse(mat.toarray(), 0))])
    if basis is not None and 1 < len(basis.sizes) and max(basis.sizes) <= BLOCK_MAX_NDOF:
        offsets = np.cumsum([0] + basis.sizes)
        weight_in = 1.0 / (len(basis.orbits) * basis.scale)
        inverses = [
            basis.scale[rows, None] * _block_inverse(block, offset) * weight_in[rows]
            for block, offset, rows in zip(basis.blocks(mat), offsets, basis.rows)
        ]
        return CholFactor(n, inverses=inverses, basis=basis)
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
    return CholFactor(n, lu=lu)


def solve_multi(tasks, pool=None) -> None:
    """Run a batch of tasks (an iteration's chunk solves, or its row
    blocks), zero-argument callables that each write their own outputs,
    and wait for every one.

    Each task is one unit of ``pool`` (None runs them inline, in order); the
    first exception a task raised is raised here.  ``splitting_solver``'s
    module docstring says how an iteration splits into tasks.
    """
    if pool is None:
        for task in tasks:
            task()
        return
    for future in [pool.submit(task) for task in tasks]:
        future.result()
