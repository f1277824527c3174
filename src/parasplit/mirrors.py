"""The mesh's mirror symmetries and the symmetry-adapted basis they give.

On the uniform meshes the point reflection through the centre and the swap
of the coordinates map the DOF set, the stiffness and the mass onto
themselves.  So does every polynomial in them: the oracle's pencil and
every operator of the splitting iteration.  In the symmetry-adapted basis
such an operator is block diagonal, with up to four blocks of about
ndof / 4.  ``DiscreteSystem.mirror_basis`` forms the basis once per system,
on first use.  The oracle and the splitting solver both change their
system into it once (``DiscreteSystem.in_mirror_basis``): the operators
become one block-diagonal matrix each (``block_diagonals``, mass and
stiffness in one pass), the vectors
take the stacked block coordinates (``project_stacked``), with block c in
one contiguous run of rows, and a result comes back to node coordinates
with ``expand_stacked``.  A mesh without the symmetry keeps no mirror: its
basis is one block, Q = I, and each of these maps copies every entry
unchanged, so both solvers take the same path on every system.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

if TYPE_CHECKING:
    from .discretization import DiscreteSystem

# Assembled entries of mirror-image elements agree to round-off, not bit for
# bit, so a mirror is kept when it maps each operator onto itself within this
# tolerance relative to the operator's largest entry.
MIRROR_RTOL = 1e-12


@dataclass(frozen=True)
class MirrorBasis:
    """Orthonormal symmetry-adapted basis of the DOF space.

    The group is generated by the kept mirrors, commuting involutions on the
    DOFs; element g applies mirror j when bit j of g is set.  ``orbits[g, o]``
    is the DOF that g maps orbit o's representative to.  Row c of
    ``characters`` is a character of the group (+-1 on each element), one per
    non-empty block.  An orbit carries one basis vector of character c,
    sum_g chi_c(g) e_{orbits[g, o]} normalised, exactly when chi_c is 1 on
    the orbit's stabiliser (``present[c, o]``); its entries are
    +-``scale[o]`` = 1/sqrt(orbit size).  Block c holds these vectors in
    orbit order, and the blocks together are the columns of an orthogonal Q.
    With no mirror kept, Q is the identity and there is one block.
    """

    orbits: np.ndarray
    characters: np.ndarray
    present: np.ndarray
    scale: np.ndarray

    @property
    def sizes(self) -> list[int]:
        return [int(k) for k in self.present.sum(axis=1)]

    @property
    def ndof(self) -> int:
        return int(self.orbits.max()) + 1

    def block_diagonals(self, *mats: sp.csr_matrix) -> list[sp.csr_matrix]:
        """Each CSR matrix's diagonal blocks Q_c^T mat Q_c, in order, as one
        sparse block-diagonal matrix in the stacked block coordinates
        (``project_stacked``).  The blocks are as sparse as mat: an entry
        couples two orbits that neighbour each other.  For an operator the
        kept mirrors map onto itself the rest of Q^T mat Q is round-off.

        Two matrices of one sparsity pattern (the same ``indptr`` and
        ``indices``, as a level's mass and stiffness have) share the work:
        they travel as the real and imaginary parts of one complex array
        through one pass, whose sort and duplicate sums act on the two parts
        alike, so each part is bit for bit the matrix its own pass gives.
        Each result drops its own zeros."""
        if len(mats) == 2 and all(np.array_equal(a, b) for a, b in zip(*((m.indptr, m.indices) for m in mats))):
            data = np.empty(mats[0].nnz, dtype=complex)
            data.real, data.imag = mats[0].data, mats[1].data
            both = self._blocks(mats[0], data)
            out = [sp.csr_matrix((part.copy(), both.indices.copy(), both.indptr.copy()), shape=both.shape)
                   for part in (both.data.real, both.data.imag)]
        else:
            out = [self._blocks(mat, mat.data) for mat in mats]
        for mat in out:
            mat.eliminate_zeros()
        return out

    def _blocks(self, mat: sp.csr_matrix, data: np.ndarray) -> sp.csr_matrix:
        """The diagonal blocks of the matrix of mat's pattern with entries
        ``data``, in CSR with its zeros kept."""
        _, _, reach, _, _ = self._stacked
        n_orb = self.orbits.shape[1]
        orbit = reach % n_orb
        # each DOF's entry in each block's vector of its orbit (0 where the
        # block has none); every element reaching the DOF gives the same sign
        phase = self.characters[:, reach // n_orb] * (self.scale * self.present)[:, orbit]
        rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
        cols = mat.indices
        row = np.full(self.present.shape, -1)  # each (block, orbit)'s stacked row
        row[self.present] = np.arange(self.ndof)
        into, onto = row[:, orbit[rows]], row[:, orbit[cols]]
        keep = (into >= 0) & (onto >= 0)
        return sp.csr_matrix(((phase[:, rows] * phase[:, cols] * data)[keep], (into[keep], onto[keep])),
                             shape=mat.shape)  # sums the repeats

    @cached_property
    def _stacked(self) -> tuple[np.ndarray, ...]:
        """The index tables of the stacked block coordinates: each row's
        flat (block, orbit) slot, the slots no row takes, each DOF's flat
        (element, orbit) place in ``orbits``, the orbit weight of a row on
        the way in and that of a DOF on the way out."""
        group, n_orb = self.orbits.shape
        slots = np.flatnonzero(self.present)
        reach = np.empty(self.ndof, dtype=np.intp)
        reach[self.orbits.reshape(-1)] = np.arange(group * n_orb)  # any element reaching the DOF
        weight_in = 1.0 / (group * self.scale[slots % n_orb])
        return slots, np.flatnonzero(~self.present), reach, weight_in, self.scale[reach % n_orb]

    def work(self, shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """Scratch for ``project_stacked`` and ``expand_stacked`` of arrays of
        ``shape`` (..., ndof, k): the orbit values and their character sums.
        For one caller at a time."""
        group, n_orb = self.orbits.shape
        *lead, _, k = shape
        return np.empty((*lead, group * n_orb, k)), np.empty((*lead, len(self.sizes) * n_orb, k))

    def project_stacked(self, X: np.ndarray, out=None, work=None) -> np.ndarray:
        """Q^T X along axis -2 of X, shape (..., ndof, k), the blocks'
        coordinates stacked in block order: block c takes rows
        sum(sizes[:c]) to sum(sizes[:c+1]).  Into ``out`` when given
        (C-contiguous; it may be X), in ``work`` (``work(X.shape)``) when
        given."""
        slots, _, _, weight_in, _ = self._stacked
        lead = X.shape[:-2]
        values, sums = work if work is not None else self.work(X.shape)
        np.take(X, self.orbits.reshape(-1), axis=-2, out=values, mode="clip")  # the indices are in range
        np.matmul(self.characters, values.reshape(*lead, len(self.orbits), -1),
                  out=sums.reshape(*lead, len(self.sizes), -1))
        out = np.take(sums, slots, axis=-2, out=out, mode="clip")
        out *= weight_in[:, None]
        return out

    def expand_stacked(self, X: np.ndarray, out=None, work=None) -> np.ndarray:
        """Q X along axis -2 of X, shape (..., ndof, k), in the stacked block
        coordinates: the inverse of ``project_stacked``; ``out`` and
        ``work`` as there."""
        slots, absent, reach, _, weight_out = self._stacked
        lead = X.shape[:-2]
        values, sums = work if work is not None else self.work(X.shape)
        sums[..., absent, :] = 0.0  # orbits without a vector of the block
        sums[..., slots, :] = X
        np.matmul(self.characters.T, sums.reshape(*lead, len(self.sizes), -1),
                  out=values.reshape(*lead, len(self.orbits), -1))
        out = np.take(values, reach, axis=-2, out=out, mode="clip")
        out *= weight_out[:, None]
        return out


def _matching(X: np.ndarray, image: np.ndarray) -> np.ndarray | None:
    """The permutation p with X[p] = image to round-off, or None.  Points
    that round apart at the ninth decimal only cost the mirror, never the
    result: the match is checked on the unrounded coordinates."""
    p = np.empty(len(X), dtype=np.intp)
    p[np.lexsort(np.round(image, 9).T)] = np.lexsort(np.round(X, 9).T)
    return p if np.abs(X[p] - image).max() <= 1e-12 else None


def _maps_onto_itself(mat: sp.csr_matrix, p: np.ndarray) -> bool:
    """Whether mat[p][:, p] equals mat to MIRROR_RTOL."""
    n = mat.shape[0]
    rows = np.repeat(np.arange(n), np.diff(mat.indptr))
    keys = rows * n + mat.indices
    order = np.argsort(keys)
    image = p[rows] * n + p[mat.indices]
    at = order[np.searchsorted(keys, image, sorter=order).clip(max=len(keys) - 1)]
    return bool(
        np.array_equal(keys[at], image)
        and np.abs(mat.data[at] - mat.data).max() <= MIRROR_RTOL * np.abs(mat.data).max()
    )


def mirror_basis(sys: DiscreteSystem) -> MirrorBasis:
    """The symmetry-adapted basis of the mirrors that map a discrete system's
    stiffness and mass onto themselves.

    The candidates are sigma_1 (x1, x2) -> (1 - x1, 1 - x2) and sigma_2
    (x1, x2) -> (x2, x1).  On a mesh whose cells all split along the same
    diagonal both map the mesh, and with it the DOF set, stiffness and mass,
    onto itself.  A mirror is kept when the DOF nodes' images are DOF nodes
    and both operators are invariant under the DOF permutation.  The orbits
    and characters come from index arithmetic on the kept permutations.
    """
    X = sys.space.mesh.nodes[sys.space.dof_nodes]
    ndof = len(X)
    group = [np.arange(ndof)]
    for image in (1.0 - X, X[:, ::-1]):
        p = _matching(X, image)
        if p is not None and _maps_onto_itself(sys.stiffness, p) and _maps_onto_itself(sys.mass, p):
            group += [p[g] for g in group]
    g = np.arange(len(group))
    characters = (-1.0) ** np.bitwise_count(g[:, None] & g)  # chi_c(g), Walsh order
    table = np.stack(group)
    reps = np.flatnonzero(table.min(axis=0) == np.arange(ndof))
    orbits = table[:, reps]
    fixes = orbits == reps  # g fixes the orbit's representative
    present = ~((characters[:, :, None] < 0) & fixes).any(axis=1)
    nonempty = present.any(axis=1)
    return MirrorBasis(
        orbits=orbits,
        characters=characters[nonempty],
        present=present[nonempty],
        scale=np.sqrt(fixes.sum(axis=0) / len(group)),
    )
