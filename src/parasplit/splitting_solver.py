"""Corrected full-Jacobian-decomposition augmented Lagrangian solver.

One iteration: compute the shifted residual q once, solve all control and
state subproblems in closed form against shared factorizations (prediction),
update the multiplier, then apply the correction
w^{k+1} = w^k - alpha_k (w^k - w~^k).  Monitoring uses the weighted norm
under which the corrected iteration contracts.

The step rule is ``SolverConfig.step`` (``step_length``).  The paper's
"constant" step is nu = gamma (1 - sqrt(L / (L + 1))), about gamma / (4M)
(``correction_factor``), the worst case of the ratio the default "dynamic"
rule computes every iteration from the difference d = w - w~:
alpha_k = gamma (||d||_H^2 + 2 <C d, e>) / ||d||_H^2, with e the
multiplier's difference (He, Hou & Yuan, SIAM J. Optim. 25(4), 2015),
capped at 1 in the box variant.  Both keep the contraction inequality of
the weighted norm; criterion 3's O(1/k) rate is proven for nu only.  On
example 5.1 at n = 16 (beta 10, epsilon 1e-12) the constant step takes
2038 iterations and the dynamic one 100.

``solve`` is the one entry point: it runs the box variant (projected state
copies) exactly when the config has bounds.  It changes the system into its
mirror basis once (``DiscreteSystem.in_mirror_basis``), runs the loop there
and expands the result back to node coordinates.  Every operator the loop
touches is a polynomial in the mass and stiffness, so in that basis it is
block diagonal, with up to four blocks of about ndof / 4 in contiguous runs
of rows; Q is orthogonal, so every norm the loop forms is the node-space
one up to round-off.  A system without a mirror gets the one-block basis
(Q = I), so every solve runs the same loop.  The loop's functions take any
system, in node coordinates or in the basis.  ``PredictionFactors.build``
forms and factors the subproblems' normal matrices from the system's mass,
stiffness and step matrices, all three in one call, block by block
(``sparse_linalg.factorize_stack``): per block, the three dense inverses
in one stack for a block of at most ``BLOCK_MAX_NDOF`` unknowns, SuperLU's
three factors above.  The box variant's projection onto the bounds
holds in node coordinates: it expands columns of Y - mu / beta, clips them
and projects them back.

An iterate is the slabs U, Y, lam and, in the box variant, P and mu.  The
constraint map is linear, so the loop carries the iterate's constraint
products beside it, stacked as ``constraint_products`` returns them:
tau A U, step_plus Y, step_minus Y and the constraint map Cz, each term in
the block row it enters, so step_minus Y_m sits in column m + 1 and column
0 of that slab is zero.  The slabs and the products are one C-order
backing array (``Iterate.data``, S + 4 slabs with S = 3, or 5 in the box
variant).  The loop never forms the predicted iterate w~ itself: the
prediction writes the difference d = w - w~ with its products, the H-norm
increment alpha_k^2 ||d||_H^2 reads d's products, and
``correct(w, d, alpha_k)`` = w - alpha_k d is the corrected iterate with
its products.  The subproblems' normal matrices and right-hand sides are
divided by beta once per solve (``PredictionFactors``), so no iteration
multiplies by it; the control
solves use the mass shift (alpha / beta) I + tau A, the control normal
matrix alpha tau A + beta tau^2 A A with its SPD factor beta tau A
cancelled.  The multipliers keep their meaning: lam and mu, not over beta.

An iteration forms two sparse products per group (below): one of its
block of [step_plus step_minus] for the state right-hand sides
(``predict_states``), and one of its block of ``step_stack`` =
[step_plus; step_minus] for d's state products, written by
``write_products``, the writer of ``constraint_products``' state slabs.
d's control product takes none.  The prediction solves every subproblem
in closed form against the shared factorizations (He, Hou & Yuan, SIAM J.
Optim. 25(4), 2015), so each control column satisfies its normal equation
((alpha / beta) I + tau A) U~ = tau A U + q (``predict_controls``), and
tau A d_U = tau A U - tau A U~ = (alpha / beta) U~ - q is read off the
solve's output.  Its error is
round-off of its operands q and (alpha / beta) U~.  As d goes to 0 the
difference cancels, so relative to tau A d_U itself the error grows (about
3e-12 at convergence on example 5.1, n = 16), while the carried constraint
residual still agrees with the one recomputed from the iterate to about
1e-14 (``SolveReport.residual_drift``).

``solve`` allocates its storage once: two zeroed backing arrays, the
iterates with their products, which swap roles every iteration (the
difference is written into the spare one, then overwritten in place by the
correction), q, one slab of scratch and each group's right-hand sides.
``thread_count`` sets the workers of one thread pool opened per solve,
capped at the CPUs the process may run on; where that leaves one worker
no pool is opened, and a batch of one task runs inline.  An iteration's
work is split into one task per group of whole mirror blocks (``Group``,
``group_blocks``), a contiguous run of rows, at all M time steps.  In the mirror basis every operator the
prediction applies is block diagonal and every other step is elementwise,
so a group's rows need no other rows.  A group's work is, on its rows:

- ``predict_rows``, which opens the measuring task: the control and state
  right-hand sides, their solves against the group's blocks of the
  factors (per block, one batched
  product applies its control and state inverses to both, and one more
  solves step M again against its terminal inverse), tau A d_U from the
  control solve, the difference (d_U, d_Y) in one ufunc call, d's state
  products (``write_products``: step_plus d_Y, and step_minus d_Y one
  column on, in the block row it enters) and the box variant's d_P.  Every
  one-step shift runs over the flat rows (``one_step_on``);
- ``measure_group``, the rest of the measuring task: C d and the
  multipliers' differences (``couple_difference``), and the rows' shares
  of d's H-norm and of the step's cross term (``cross_term``);
- ``advance_group``, the advancing task: the correction with the step, the
  box gap and the next iteration's q.

The step is a sum over all rows, so every group's advancing task waits for
every group's measuring task.  Every iteration has the same shape under
either step rule: the measuring batch (``predict_and_measure``, which
``predict`` shares), the step from the sums on the calling thread
(``step_length``, the one reader of the rule), then the advancing batch.

A group's rows of a C-order slab are contiguous, so every call runs on
contiguous runs of each slab.  With one group (M <= CHUNK_COLS, every
level up to n = 16, or a system of one block) the group is the whole
backing array, and the correction is two ufunc calls; with several, it
runs slab by slab.  (Column blocks of these arrays are strided, and a tail split by time
columns ran slower than the serial one.)  The box variant's projection
mixes the blocks, so it runs first, as a batch of its own: one task per
chunk of CHUNK_COLS time steps (``project_copies``) writes its columns of
P~ into the spare iterate's P slab, which the group tasks then turn into
d_P = P - P~.

The calling thread keeps the monitor and sums the groups' partial norms
and cross terms, which ``solve_multi`` returns in group order: each sums
over rows, so a group's value is its share of the whole's.  Groups and
chunks are fixed by M and the block sizes alone, so the iterates, steps,
increments and gaps are bit-identical for every thread count.
"""

from __future__ import annotations

import math
import numbers
import operator
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .discretization import (  # noqa: F401  constraint_linear_map: bench/tracing.py patches it here
    DiscreteSystem,
    constraint_linear_map,
    constraint_products,
    constraint_residual,
    fill_constraint_map,
    one_step_on,
    write_products,
)
from .mirrors import MirrorBasis
# factorize is not called here; bench/tracing.py patches it under this module's name
from .sparse_linalg import CholFactor, block_rows, factorize, factorize_stack, solve_multi  # noqa: F401

import scipy.sparse as sp


class Iterate:
    """Full splitting iterate, stored as the slabs of one backing array ``data``.

    ``z`` has shape (3, ndof, M): the M control columns U, the M state
    columns Y and the multiplier block lam.  Box-constrained runs add the
    auxiliary state copies P and their multiplier mu, for shape
    (5, ndof, M); elsewhere ``P`` and ``mu`` are None.  While the solver
    carries the constraint products of (U, Y), each term in the block row
    it enters (``constraint_products``), ``data`` has S + 4 slabs (S = 3,
    or 5 in the box variant): ``z`` is its first S and ``products`` its last
    four, both views, so one ufunc call covers the iterate and its
    products.  Elsewhere ``products`` is None and ``data`` is ``z``.
    ``Iterate(data, S)`` is the iterate over such a backing array,
    ``Iterate(z)`` one without products.
    """

    def __init__(self, data: np.ndarray, slabs: int | None = None):
        self.data = data
        self.z = data if slabs is None else data[:slabs]
        self.products = None if slabs is None else data[slabs:]

    U = property(lambda self: self.z[0])
    Y = property(lambda self: self.z[1])
    lam = property(lambda self: self.z[2])
    P = property(lambda self: self.z[3] if self.is_box else None)
    mu = property(lambda self: self.z[4] if self.is_box else None)

    @property
    def is_box(self) -> bool:
        return len(self.z) == 5

    def copy(self) -> "Iterate":
        return Iterate(self.z.copy())

    def rows(self, rows: slice) -> "Iterate":
        """The rows ``rows`` of every slab and product: views of ``data``."""
        return Iterate(self.data[:, rows], None if self.products is None else len(self.z))

    def with_products(self, sys: DiscreteSystem) -> "Iterate":
        """This iterate and its products, in a new backing array."""
        return Iterate(np.concatenate((self.z, constraint_products(sys, self.Y, self.U))), len(self.z))

    @staticmethod
    def of(U, Y, lam, P=None, mu=None) -> "Iterate":
        """The iterate with the given blocks (P and mu for a box iterate)."""
        return Iterate(np.stack((U, Y, lam) if P is None else (U, Y, lam, P, mu)))

    @staticmethod
    def zeros(ndof: int, M: int, box: bool = False, products: bool = False) -> "Iterate":
        """The zero iterate, with room for its (zero) products when ``products``."""
        slabs = 5 if box else 3
        return Iterate(np.zeros((slabs + 4 * products, ndof, M)), slabs if products else None)


@dataclass(frozen=True)
class SolverConfig:
    alpha: float
    beta: float
    gamma: float = 1.0
    epsilon: float = 1e-12
    k_max: int = 20000
    bounds: tuple[float, float] | None = None
    thread_count: int = 1
    step: str = "dynamic"  # the correction step rule: "dynamic" or "constant" (``step_length``)

    def __post_init__(self):
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not 0.0 < self.beta < math.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if not 0.0 < self.gamma < 2.0:
            raise ValueError(f"gamma must lie in (0, 2), got {self.gamma}")
        if not self.epsilon >= 0.0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")
        for name in ("k_max", "thread_count"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")
        if self.bounds is not None:
            try:
                lower, upper = self.bounds
            except (TypeError, ValueError):
                raise ValueError(f"bounds must be a (lower, upper) pair, got {self.bounds!r}") from None
            if not all(isinstance(b, numbers.Real) for b in (lower, upper)) or not lower < upper:
                raise ValueError(f"bounds must be reals with lower below upper, got {self.bounds!r}")
        if self.thread_count < 1:
            raise ValueError(f"thread_count must be >= 1, got {self.thread_count}")
        if self.step not in ("dynamic", "constant"):
            raise ValueError(f"step must be 'dynamic' or 'constant', got {self.step!r}")


@dataclass
class SolveReport:
    """What a solve did.

    ``stop_reason`` is "converged" (the increment reached the tolerance),
    "k_max" (the iteration cap was hit) or "non_finite" (the increment was
    NaN or infinite; the loop stops at the first such one).  ``residual_drift`` is
    the gap between the carried constraint residual and the one recomputed
    from the final iterate, relative to max(1, ||rhs||).  ``factor_nnz`` maps
    each prediction factor ("control", "state", "terminal", the slots of
    each block's stack in ``PredictionFactors.stacks``) to its stored
    entries, summed over its blocks: size^2 for a block's dense inverse,
    nnz(L) + nnz(U) for SuperLU's factors of a block.
    ``step_history`` holds each iteration's correction step
    (``step_length``): alpha_k under the dynamic rule, nu repeated under the
    constant one.  ``seconds_predict`` and ``seconds_correct`` are measured
    where the work runs: each group's measuring task (``measure_group``)
    times its ``predict_rows`` and the rest, its advancing task
    (``advance_group``) the whole.  Per batch they are the times of the
    thread busiest in it (its groups' times summed, as its tasks run one
    after another), summed over batches and iterations: ``seconds_predict``
    is the prediction plus the box variant's projection batch,
    ``seconds_correct`` the rest of the measuring batch plus the advancing
    batch.
    At 1 thread every task runs on the calling thread, so they are the
    phases' exact times; with several, the times of the phases' longest
    path through the pool.
    """

    iterations: int
    stop_reason: str
    increment_history: np.ndarray
    step_history: np.ndarray
    final_constraint_norm: float
    residual_drift: float
    seconds_total: float
    seconds_predict: float
    seconds_correct: float
    factor_nnz: dict[str, int]
    gap_history: np.ndarray | None = None  # box runs: ||Y - P|| per iteration

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


def correction_factor(M: int, gamma: float, blocks_per_step: int = 2) -> float:
    """Constant correction step: gamma * (1 - sqrt(L/(L+1))) with L the
    number of separable primal blocks (2M, or 3M in the box variant).
    ValueError for a step count M or ``blocks_per_step`` that is not an
    integer of at least 1, or gamma outside (0, 2)."""
    for name, value in (("step count", M), ("blocks_per_step", blocks_per_step)):
        if not isinstance(value, numbers.Integral) or value < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    if not 0.0 < gamma < 2.0:
        raise ValueError(f"gamma must lie in (0, 2), got {gamma}")
    L = blocks_per_step * M
    return gamma * (1.0 - np.sqrt(L / (L + 1.0)))


def _products(sys: DiscreteSystem, w: Iterate) -> np.ndarray:
    """The products w carries, or else formed from scratch."""
    return w.products if w.products is not None else constraint_products(sys, w.Y, w.U)


def compute_q(
    sys: DiscreteSystem, w: Iterate, beta: float, rows: slice = slice(None), out=None, work=None
) -> np.ndarray:
    """Shifted constraint residual Cz - rhs - lam / beta of the rows
    ``rows`` (all by default), one column per step: into ``out``, with
    lam / beta in ``work`` (arrays of those rows' shape), or into new
    arrays."""
    out = np.subtract(_products(sys, w)[3][rows], sys.rhs[rows], out=out)
    out -= np.divide(w.lam[rows], beta, out=work)
    return out


def _gram(a: sp.csr_matrix) -> sp.csr_matrix:
    """a^T a, symmetrized against rounding."""
    prod = a.T @ a
    return sp.csr_matrix(0.5 * (prod + prod.T))


@dataclass(frozen=True)
class PredictionFactors:
    """What the prediction reuses every iteration, formed once per solve:
    three factorizations and the state right-hand sides' constant term.

    The subproblems' normal matrices and right-hand sides are divided by
    beta, so no iteration multiplies by it.  The three matrices, control,
    state and terminal, are polynomials in the system's mass and
    stiffness, so they share its block structure: one
    ``sparse_linalg.factorize_stack`` call factors them block by block over
    ``DiscreteSystem.block_sizes``, on the rows ``rows``.  ``stacks`` holds
    each block's three factors together: their dense inverses as one
    (3, b, b) array, so one batched product applies the control and state
    inverses (``solve``), or SuperLU's three factors.  ``named`` views
    them as one ``CholFactor`` per matrix.
    """

    rows: list[slice]  # the blocks' rows
    stacks: list  # per block: the (3, b, b) control, state and terminal inverses, or SuperLU's three factors
    loads: np.ndarray  # the tracking loads (tau kappa_m) d_m over beta

    @staticmethod
    def build(sys: DiscreteSystem, config: SolverConfig) -> "PredictionFactors":
        """Factor the control mass shift (alpha / beta) I + tau A and the
        state normal matrices over beta: (tau / beta) A + step_plus^2
        + step_minus^2 = (tau / beta) A + 2 A A + tau^2/2 B B and, for the
        terminal step, (tau / (2 beta)) A + step_plus^2, each plus I from
        the state-copy constraint row in the box variant."""
        tau = sys.grid.tau
        alpha, beta = config.alpha, config.beta
        shift = 0.0
        if config.bounds is not None:
            shift = 1.0  # I from the state-copy constraint row
        eye = sp.identity(sys.ndof, format="csr")
        state_gram = 2.0 * _gram(sys.mass) + (tau * tau / 2.0) * _gram(sys.stiffness)
        rows, stacks = factorize_stack([(alpha / beta) * eye + tau * sys.mass,
                                        (tau / beta) * sys.mass + state_gram + shift * eye,
                                        (tau / (2.0 * beta)) * sys.mass + _gram(sys.step_plus) + shift * eye],
                                       sys.block_sizes)
        return PredictionFactors(rows, stacks, sys.tracking_loads / beta)

    @property
    def named(self) -> dict[str, CholFactor]:
        """The three factorizations by name, their parts views into ``stacks``."""
        return {name: CholFactor(self.rows, [stack[i] for stack in self.stacks])
                for i, name in enumerate(("control", "state", "terminal"))}

    def solve(self, rhs: np.ndarray, out: np.ndarray) -> None:
        """U~ and Y~ of all M steps from their right-hand sides ``rhs``,
        shape (2, n, M): the control slab, then the state slab; into
        ``out``, an array of rhs's shape (not rhs itself).

        Block by block, one batched product of the block's control and
        state inverses applies them to the block's rows of both slabs, and
        one more applies its terminal inverse to its rows of the last state
        column, each product bit for bit the one ``CholFactor.solve`` forms;
        a SuperLU block solves the same three in turn.  Every state column
        solves against the state factor, at the full width M (a dense
        product at an odd width costs more than at the full one); the last
        column's right-hand side, step M's, is also solved against the
        terminal factor, whose solution replaces it.
        """
        for rows, stack in zip(self.rows, self.stacks):
            b, x = rhs[:, rows], out[:, rows]
            if isinstance(stack, np.ndarray):
                np.matmul(stack[:2], b, out=x)
                np.matmul(stack[2], b[1][:, -1], out=x[1][:, -1])
            else:
                for factor, b_slab, x_slab in zip(stack[:2], b, x):
                    x_slab[...] = factor.solve(b_slab)
                x[1][:, -1] = stack[2].solve(b[1][:, -1])


def predict_controls(w: Iterate, q: np.ndarray, out: np.ndarray) -> None:
    """The right-hand sides of the control subproblems, into ``out``.

    The first-order conditions of the odd-index subproblems read
    (alpha*tau*A + beta*tau^2*A*A) U~ = beta*(tau^2*A*A U + tau*A q).  Both
    sides carry the SPD factor tau*A, and dividing by beta tau A leaves the
    mass shift ((alpha/beta)*I + tau*A) U~ = tau*A U + q.  (The sign of the
    q term follows from the subproblem optimality conditions; the
    constraint carries the control with a negative block.)  tau A U comes
    from w's products.
    """
    np.add(w.products[0], q, out=out)


def predict_states(
    step_row: sp.csr_matrix,
    w: Iterate,
    q: np.ndarray,
    config: SolverConfig,
    loads: np.ndarray,
    out: np.ndarray,
    work: np.ndarray | None = None,
) -> None:
    """The right-hand sides of the state subproblems, into ``out``, divided
    by beta as ``PredictionFactors``' normal matrices are.

    The right-hand side of step m is (tau kappa_m) d_m / beta + step_plus
    (step_plus Y_m - q_m) + step_minus (step_minus Y_m + q_{m+1}), without
    the step_minus term at the terminal step: the normal matrices carry
    step_plus^2 + step_minus^2 (interior) and step_plus^2 (terminal).  The
    first term is ``loads`` (``PredictionFactors.loads``), and the products
    step_plus Y and step_minus Y come from w's products.  step_minus Y_m
    enters block row m + 1, where w's products keep it, so the step_minus
    term reads the products and q one step on (``one_step_on``).  The two
    arguments are stacked in ``work``, a C-contiguous array of shape
    (2, n, M) (allocated here when not given; ``out`` may be its second
    slab), the terminal step's column of the second zero, and one sparse
    product of ``step_row`` = [step_plus step_minus] applies and adds
    both.  The box variant adds P + mu / beta.  ``step_row`` may be a
    group's diagonal block of it (``Group``), with w, q, ``loads`` and
    ``out`` the group's rows.
    """
    _, PY, MY, _ = w.products
    work = work if work is not None else np.empty((2,) + out.shape)
    shifted, term = work
    np.subtract(PY, q, out=shifted)
    behind, MY_ahead, q_ahead = one_step_on(term, MY, q)
    np.add(MY_ahead, q_ahead, out=behind)
    term[:, -1] = 0.0  # the terminal step has no step_minus term
    np.add(step_row @ work.reshape(-1, work.shape[-1]), loads, out=out)
    if config.bounds is not None:
        np.divide(w.mu, config.beta, out=shifted)
        shifted += w.P
        out += shifted


def predict_multiplier(
    sys: DiscreteSystem,
    w: Iterate,
    products_tilde: np.ndarray,
    beta: float,
    rows: slice = slice(None),
    out=None,
) -> np.ndarray:
    """lam~ = lam - beta * (C z~ - rhs) of the rows ``rows`` (all by
    default), from the predicted pair's products; into ``out`` when given."""
    out = np.subtract(products_tilde[3][rows], sys.rhs[rows], out=out)
    out *= beta
    return np.subtract(w.lam[rows], out, out=out)


def couple_difference(
    w: Iterate, d: Iterate, q: np.ndarray, config: SolverConfig, work: np.ndarray | None = None
) -> None:
    """Complete the difference d = w - w~ from what ``predict_rows`` wrote:
    d_U, d_Y, their products tau A d_U, step_plus d_Y and step_minus d_Y,
    and the box variant's d_P.  Forms C d, the multiplier slab
    lam - lam~ = beta (q - C d) + lam and, in the box variant,
    mu - mu~ = beta ((Y - P) - (d_Y - d_P)).

    These follow from lam~ = lam - beta (C z~ - rhs), C z~ = C z - C d,
    q = C z - rhs - lam / beta (w's shifted residual) and
    mu~ = mu - beta (Y~ - P~).  Each is elementwise (``predict_rows`` wrote
    step_minus d_Y in the block row it enters), so w, d and q may be any
    block of rows (``Iterate.rows``).  Works in place in d's arrays;
    ``work``, an array of one slab's shape, holds the box variant's
    d_Y - d_P (allocated here when not given).
    """
    beta = config.beta
    Cd = fill_constraint_map(d.products)[3]
    e = np.subtract(q, Cd, out=d.lam)
    e *= beta
    e += w.lam
    if config.bounds is not None:
        f = np.subtract(w.Y, w.P, out=d.mu)
        f -= np.subtract(d.Y, d.P, out=work)
        f *= beta


def project_copies(sys: DiscreteSystem, w: Iterate, config: SolverConfig, cols: slice, out: np.ndarray,
                   Z: np.ndarray, work) -> None:
    """The box variant's copies P~ = clip(Y - mu / beta) of the time steps
    ``cols``, into those columns of ``out``, an (ndof, M) slab.  They are
    formed in Z, a C-contiguous (ndof, k) array.  The bounds hold in node
    coordinates, so in a mirror basis of several blocks the columns are
    expanded, clipped and projected back, in ``work``
    (``MirrorBasis.work``).  With one block, in node coordinates or in the
    basis of a system without a mirror (Q = I), they are clipped as they
    are."""
    np.divide(w.mu[:, cols], config.beta, out=Z)
    np.subtract(w.Y[:, cols], Z, out=Z)
    if len(sys.block_sizes) == 1:
        np.clip(Z, *config.bounds, out=Z)
    else:
        sys.basis.expand_stacked(Z, out=Z, work=work)
        np.clip(Z, *config.bounds, out=Z)
        sys.basis.project_stacked(Z, out=Z, work=work)
    out[:, cols] = Z


CHUNK_COLS = 32  # time steps per chunk; the chunks fix the group count and the projection's tasks


def _chunks(M: int) -> list[slice]:
    """The column chunks of M time steps: CHUNK_COLS wide, the last one partial."""
    return [slice(lo, min(lo + CHUNK_COLS, M)) for lo in range(0, M, CHUNK_COLS)]


def copy_chunks(sys: DiscreteSystem, slab: np.ndarray) -> list[tuple]:
    """The box variant's projection tasks' arrays, one entry per chunk of
    M time steps: its steps, its contiguous piece of the (ndof, M) array
    ``slab`` (the chunks' pieces tile it) and the basis's work arrays for
    ``project_copies`` (None with one block)."""
    flat, ndof = slab.reshape(-1), sys.ndof
    return [(cols, flat[ndof * cols.start : ndof * cols.stop].reshape(ndof, -1),
             sys.basis.work((ndof, cols.stop - cols.start)) if len(sys.block_sizes) > 1 else None)
            for cols in _chunks(sys.grid.M)]


def group_blocks(sizes: list[int], M: int) -> list[slice]:
    """The groups of an iteration, as ranges of the blocks ``sizes``:
    contiguous runs of whole blocks, min(len(_chunks(M)), len(sizes)) of
    them, each ending at the block boundary nearest to its even share of
    the rows.  Like the chunks, they are fixed by M and the sizes alone."""
    n = min(len(_chunks(M)), len(sizes))
    ends = np.cumsum(sizes)
    bounds = [0]
    for i in range(1, n):  # group i ends after block j - 1, leaving a block for each later group
        candidates = range(bounds[-1] + 1, len(sizes) - n + i + 1)
        bounds.append(min(candidates, key=lambda j: abs(n * ends[j - 1] - i * ends[-1])))
    bounds.append(len(sizes))
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


@dataclass(frozen=True, eq=False)
class Group:
    """One task's share of an iteration: a contiguous run of whole mirror
    blocks, on the rows ``rows``.  Every operator the prediction applies is
    block diagonal, so on these rows it is its diagonal block.  The group
    holds its blocks of [step_plus step_minus] (``step_row``, for
    ``predict_states``) and of [step_plus; step_minus] (``step_stack``, for
    ``write_products``), the prediction factors of its blocks with its rows
    of the loads, and ``rhs``, its right-hand sides of shape (2, rows, M),
    reused every iteration.
    """

    rows: slice
    step_row: sp.csr_matrix
    step_stack: sp.csr_matrix
    factors: PredictionFactors
    rhs: np.ndarray

    @staticmethod
    def partition(sys: DiscreteSystem, factors: PredictionFactors) -> list["Group"]:
        """The groups of ``sys`` (``group_blocks``) with their operators
        and factors."""
        groups = []
        for blocks in group_blocks(sys.block_sizes, sys.grid.M):
            rows = slice(factors.rows[blocks.start].start, factors.rows[blocks.stop - 1].stop)
            plus, minus = sys.step_plus[rows, rows], sys.step_minus[rows, rows]
            own = PredictionFactors(block_rows(sys.block_sizes[blocks]), factors.stacks[blocks], factors.loads[rows])
            groups.append(Group(rows, sp.hstack([plus, minus], format="csr"), sp.vstack([plus, minus], format="csr"),
                                own, np.empty((2, rows.stop - rows.start, sys.grid.M))))
        return groups


def predict_rows(group: Group, w: Iterate, q: np.ndarray, config: SolverConfig, d: Iterate) -> None:
    """The prediction on the rows of ``group`` at all M steps, written into
    those rows of d, an iterate with products, as the difference
    d = w - w~: d_U and d_Y, their products tau A d_U, step_plus d_Y and
    step_minus d_Y, and in the box variant d_P = P - P~ from the copies P~
    that ``project_copies`` left in d's P slab.

    The state and control right-hand sides (``predict_states``,
    ``predict_controls``) go to the group's ``rhs``, their solves against
    the group's factors straight into d.  The control solve gives
    tau A d_U = (alpha / beta) U~ - q (the module docstring), read off U~
    before the difference over d_U and d_Y is formed in one ufunc call;
    d's state products come from ``write_products``, one sparse product.
    The rest of d, which couples the columns, is ``couple_difference``'s.
    """
    rows = group.rows
    w, d, q = w.rows(rows), d.rows(rows), q[rows]
    predict_states(group.step_row, w, q, config, group.factors.loads, group.rhs[1], work=group.rhs)
    predict_controls(w, q, group.rhs[0])
    solved = d.z[:2]
    group.factors.solve(group.rhs, solved)
    AdU = np.multiply(solved[0], config.alpha / config.beta, out=d.products[0])
    AdU -= q
    np.subtract(w.z[:2], solved, out=solved)
    write_products(group.step_stack, d.Y, d.products)
    if config.bounds is not None:
        np.subtract(w.P, d.P, out=d.P)


def _operands(*iterates: Iterate) -> tuple[list[tuple[np.ndarray, ...]], bool]:
    """The operands of elementwise work on iterates of one shape, and
    whether they hold the products.  The arrays are the backing arrays
    where all carry products, else the z's: one operand tuple of the whole
    arrays when they are contiguous, else one per slab.  A row block
    (``Iterate.rows``) is contiguous slab by slab only.  numpy buffers a
    ufunc's operands whose contiguous runs are short in fresh arrays up to
    the block's size.  Where the runs are long, the slab loop is still the
    faster, as it makes a caller's passes over one slab while the slab is
    in cache.  On the groups of example 5.1 at n = 32 (box iterates, runs
    of 31 744 and 29 760 entries per slab, 2.3 and 2.1 MB per iterate)
    ``correct`` took 250 and 235 us slab by slab against 309 and 285 us as
    two whole-group calls, on a 2-core Xeon with 2 MB of L2 cache per core
    (``tools/group_calls.py``, ``BENCH_groups.json``).  Iterates of
    different shapes (a box and a plain one, say) are rejected."""
    shapes = list(dict.fromkeys(v.z.shape for v in iterates))
    if len(shapes) > 1:
        raise ValueError(f"iterates of different shapes: {' and '.join(map(str, shapes))}")
    carried = all(v.products is not None for v in iterates)
    arrays = [v.data if carried else v.z for v in iterates]
    whole = all(x.flags.c_contiguous for x in arrays)
    return [arrays] if whole else list(zip(*arrays)), carried


def iterate_diff(a: Iterate, b: Iterate, out: Iterate | None = None) -> Iterate:
    """a - b, with the difference of the products when both carry them.

    With ``out`` (which may be a or b itself) the difference is written into
    out's arrays; without it, a and b are left unchanged.  On contiguous
    iterates, one ufunc call over the backing arrays (or the z's).
    """
    if out is None:
        carried = a.products is not None and b.products is not None
        out = Iterate(np.empty_like(a.data if carried else a.z), len(a.z) if carried else None)
    operands, carried = _operands(a, b, out)
    for x, y, o in operands:
        np.subtract(x, y, out=o)
    return out if carried else Iterate(out.z)


def correct(w: Iterate, d: Iterate, nu: float) -> Iterate:
    """The corrected iterate w - nu d from the difference d = w - w~.

    The result takes d's storage (d is used up); w is left unchanged.  It
    carries products when both w and d do.  Since d is the very difference
    w - w~, this is w - nu (w - w~) to the last bit.  On contiguous
    iterates, two ufunc calls over the backing arrays (or the z's).
    """
    operands, carried = _operands(w, d)
    for x, o in operands:
        o *= nu
        np.subtract(x, o, out=o)
    return d if carried else Iterate(d.z)


def _sq(x: np.ndarray):
    return np.vdot(x, x)


def h_norm_sq(sys: DiscreteSystem, v: Iterate, beta: float, work: np.ndarray | None = None) -> float:
    """v^T H v without materializing H.

    Uses the identity v^T H v = beta * [ sum_l ||M_l v_l||^2
    + ||sum_l M_l v_l||^2 ] + (1/beta) ||v_lam||^2, where M_l are the block
    columns of the constraint matrix.  Box iterates extend the columns with
    the identity rows of the state-copy constraint.  The block products
    M_l v_l and their sum are v's products (formed when v carries none), by
    block row and up to sign: tau A U, step_plus Y, step_minus Y (its
    column 0 zero) and C z; a box iterate adds Y, P, Y - P and mu.

    Every squared norm sums over rows, so the value of a row block
    (``Iterate.rows``, carrying its products) is its share of the whole's.
    ``work``, an array of one slab's shape, holds the box variant's Y - P.
    """
    AU, PY, MY, Cz = _products(sys, v)
    per_block = _sq(AU) + _sq(PY) + _sq(MY)
    total_sum = _sq(Cz)
    mult = _sq(v.lam)
    if v.is_box:
        per_block += _sq(v.Y) + _sq(v.P)
        total_sum += _sq(np.subtract(v.Y, v.P, out=work))
        mult += _sq(v.mu)
    return float(beta * (per_block + total_sum) + mult / beta)


def cross_term(d: Iterate, work: np.ndarray) -> float:
    """<C d, e> of the rows d holds, with C d d's product slab 3 and e its
    multiplier slab lam - lam~; the box variant adds <d_Y - d_P, d_mu>,
    with d_Y - d_P read from ``work``, where ``h_norm_sq`` left it."""
    cross = np.vdot(d.products[3], d.lam)
    if d.is_box:
        cross += np.vdot(work, d.mu)
    return float(cross)


def step_length(config: SolverConfig, nu: float, h_sq: float, cross: float) -> float:
    """The iteration's correction step, from d^T H d and ``cross_term``
    summed over all rows.

    The constant rule's step is nu (``correction_factor``).  The dynamic
    rule's is alpha_k = gamma phi / ||d||_H^2, with
    phi = ||d||_H^2 + 2 <C d, e> (+ 2 <d_Y - d_P, d_mu> in the box
    variant), the lower bound of (w - w*)^T H d that the prediction's
    variational inequality gives (He, Hou & Yuan, SIAM J. Optim. 25(4),
    2015).  Every step in (0, alpha_k] keeps the contraction inequality
    ||w+ - w*||_H^2 <= ||w - w*||_H^2 - (2 - gamma)/gamma ||w - w+||_H^2,
    and alpha_k >= nu.  In the box variant alpha_k is capped at 1, so the
    corrected copies P - alpha_k (P - P~) stay a convex combination of P
    and P~, inside the bounds.  Where ||d||_H^2 is 0 (an exact fixed point)
    the step is nu; a NaN sum gives a NaN step.
    """
    if config.step == "constant" or h_sq == 0.0:
        return nu
    alpha = config.gamma * (h_sq + 2.0 * cross) / h_sq
    return 1.0 if config.bounds is not None and alpha > 1.0 else alpha


def measure_group(sys: DiscreteSystem, group: Group, w: Iterate, d: Iterate, q: np.ndarray, config: SolverConfig,
                  work: np.ndarray) -> tuple[tuple[float, float], tuple[float, float, int]]:
    """One task of an iteration's measuring batch, on the rows of ``group``:
    ``predict_rows`` writes the difference d = w - w~ of those rows into d,
    and ``couple_difference`` completes it.  Returns the rows' shares of
    d^T H d and of ``cross_term``, and the seconds of the prediction and of
    the rest with the thread that ran them.  ``work`` (the group's rows of a
    slab-shaped array) holds the temporaries."""
    t0 = time.perf_counter()
    predict_rows(group, w, q, config, d)
    t1 = time.perf_counter()
    w, d = w.rows(group.rows), d.rows(group.rows)
    couple_difference(w, d, q[group.rows], config, work)
    sums = h_norm_sq(sys, d, config.beta, work), cross_term(d, work)
    return sums, (t1 - t0, time.perf_counter() - t1, threading.get_ident())


def advance_group(sys: DiscreteSystem, group: Group, w: Iterate, d: Iterate, q: np.ndarray, config: SolverConfig,
                  step: float, work: np.ndarray) -> tuple[float, tuple[float, float, int]]:
    """One task of an iteration's advancing batch, on the rows of ``group``,
    after ``measure_group``: the corrected iterate w - step d overwrites d,
    over the iterate and its products, and those rows of ``q`` receive its
    shifted residual.  Returns the rows' share of the corrected iterate's
    ||Y - P||^2 (0 in the plain variant), and no prediction seconds and the
    pass's with the thread that ran it.  ``work`` is as for
    ``measure_group``."""
    t0 = time.perf_counter()
    rows = group.rows
    d_rows = correct(w.rows(rows), d.rows(rows), step)
    gap_sq = _sq(np.subtract(d_rows.Y, d_rows.P, out=work)) if d.is_box else 0.0
    compute_q(sys, d, config.beta, rows, out=q[rows], work=work)
    return gap_sq, (0.0, time.perf_counter() - t0, threading.get_ident())


def predict_and_measure(sys: DiscreteSystem, groups: list[Group], copies: list[tuple], w: Iterate, d: Iterate,
                        q: np.ndarray, config: SolverConfig, work: np.ndarray, pool=None) -> tuple[float, list]:
    """The first half of an iteration, on ``pool`` (None: inline): in the
    box variant the projection batch, one ``project_copies`` task per entry
    of ``copies`` (``copy_chunks``), writes P~ into d's P slab; then the
    measuring batch runs one ``measure_group`` task per group, which leaves
    the difference d = w - w~ in d, with its products.  Returns the
    projection batch's seconds and the measuring tasks' results in group
    order."""
    t0 = time.perf_counter()
    if config.bounds is not None:
        solve_multi([partial(project_copies, sys, w, config, cols, d.P, Z, basis_work)
                     for cols, Z, basis_work in copies], pool)
    t1 = time.perf_counter()
    return t1 - t0, solve_multi([partial(measure_group, sys, group, w, d, q, config, work[group.rows])
                                 for group in groups], pool)


def predict(sys: DiscreteSystem, w: Iterate, config: SolverConfig, factors: PredictionFactors,
            pool=None) -> Iterate:
    """One full prediction sweep; all subproblems read the same w and q.

    Runs the first half of an iteration of ``solve``
    (``predict_and_measure``) on ``pool`` (None: inline), over the system's
    groups (``Group.partition``): in the box variant the projection batch,
    then the measuring batch, which leaves the difference d = w - w~ with
    its products.  Uses the products w carries, forming them first when it
    carries none, and forms w's shifted residual q.  The predicted iterate
    w - d is returned with its products.
    """
    box = config.bounds is not None
    if w.products is None:
        w = w.with_products(sys)
    q = compute_q(sys, w, config.beta)
    d = Iterate.zeros(*w.U.shape, box=box, products=True)
    work = np.empty_like(q)
    copies = copy_chunks(sys, work) if box else []
    predict_and_measure(sys, Group.partition(sys, factors), copies, w, d, q, config, work, pool)
    return iterate_diff(w, d, out=d)


def _busiest(times: list[tuple[float, float, int]]) -> tuple[float, float]:
    """The prediction and row-pass seconds of the thread busiest in a batch,
    its tasks' times (``measure_group``, ``advance_group``) summed."""
    busy: dict[int, tuple[float, float]] = {}
    for predict_s, correct_s, thread in times:
        p, c = busy.get(thread, (0.0, 0.0))
        busy[thread] = (p + predict_s, c + correct_s)
    return max(busy.values(), key=sum)


def _worker_pool(thread_count: int):
    """One executor for a whole solve, with at most one worker per usable
    CPU; a null context (inline solves) where that leaves one worker."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(thread_count, cpus)
    return nullcontext() if workers == 1 else ThreadPoolExecutor(workers)


class _NodeView(Iterate):
    """An iterate in the stacked block coordinates of ``basis``, seen in
    node coordinates without products: ``z`` is expanded on first read."""

    def __init__(self, basis: MirrorBasis, z: np.ndarray):
        self._expand = partial(basis.expand_stacked, z)
        self.products = None

    @cached_property
    def z(self) -> np.ndarray:
        return self._expand()

    data = property(lambda self: self.z)


def solve(sys: DiscreteSystem, config: SolverConfig, monitor=None) -> tuple[Iterate, SolveReport]:
    """Run the corrected splitting iteration from the all-zeros iterate.

    Without ``config.bounds`` the iterate is (U, Y, lam) and the constant
    correction step counts 2 blocks per time step.  With bounds it is the
    box variant: auxiliary state copies P, projected onto the bounds each
    iteration, and their multiplier mu join the iterate, the constant step
    counts 3 blocks per time step and the dynamic one is capped at 1.
    Stops when the squared increment in the contraction norm drops to the
    configured tolerance, at the iteration cap, or at the first non-finite
    increment (reported, not raised).

    The loop runs on the system in its mirror basis
    (``DiscreteSystem.in_mirror_basis``), formed once per solve: there
    every operator is block diagonal, and every norm the loop forms is the
    node-space one up to round-off.  The returned iterate is in node
    coordinates, its P (box variant) clipped to the bounds once more after
    the change of basis.

    ``monitor(k, w)`` is called with each iterate before it is advanced,
    in node coordinates and without products.  Its arrays are formed from
    the solver's working storage when the monitor first reads them (a
    monitor that reads none costs no change of basis), so the monitor
    must read them during the call, and must not change them.  In the box
    variant a monitored P may lie outside the bounds by a few ulps: the
    loop keeps P in the bounds in the mirror basis, and the change of
    basis rounds.  Only the returned P is clipped.
    """
    if config.alpha != sys.alpha:
        raise ValueError(f"config alpha {config.alpha} does not match the system's alpha {sys.alpha}")
    node, sys = sys, sys.in_mirror_basis()
    basis = sys.basis
    box = config.bounds is not None
    blocks = 3 if box else 2
    nu = correction_factor(sys.grid.M, config.gamma, blocks_per_step=blocks)
    factors = PredictionFactors.build(sys, config)
    groups = Group.partition(sys, factors)

    # The zero trajectory's products are zero; step_minus column 0 stays zero.
    w = Iterate.zeros(sys.ndof, sys.grid.M, box=box, products=True)
    spare = Iterate.zeros(sys.ndof, sys.grid.M, box=box, products=True)
    if box:
        np.clip(w.P, *config.bounds, out=w.P)
        basis.project_stacked(w.P, out=w.P)
    q = compute_q(sys, w, config.beta)
    work = np.empty_like(q)
    copies = copy_chunks(sys, work) if box else []

    increments: list[float] = []
    steps: list[float] = []
    gaps: list[float] = [] if box else None
    stop_reason = "k_max"
    t_predict = 0.0
    t_correct = 0.0
    t0 = time.perf_counter()
    k = 0
    with _worker_pool(config.thread_count) as pool:
        while k < config.k_max:
            k += 1
            if monitor is not None:
                monitor(k, _NodeView(basis, w.z))
            project_s, measured = predict_and_measure(sys, groups, copies, w, spare, q, config, work, pool)
            h_sq, cross = [sum(c) for c in zip(*(sums for sums, _ in measured))]  # in group order
            step = step_length(config, nu, h_sq, cross)
            advanced = solve_multi([partial(advance_group, sys, group, w, spare, q, config, step, work[group.rows])
                                    for group in groups], pool)
            gap_sq = sum(gap for gap, _ in advanced)
            predict_s, measure_s = _busiest([times for _, times in measured])
            t_predict += project_s + predict_s
            t_correct += measure_s + _busiest([times for _, times in advanced])[1]
            w, spare = spare, w
            # w - w_next = step d, and the H-norm is quadratic.
            inc = step * step * h_sq
            increments.append(inc)
            steps.append(step)
            if box:
                gaps.append(math.sqrt(gap_sq))
            if not math.isfinite(inc):
                stop_reason = "non_finite"
                break
            if inc <= config.epsilon:
                stop_reason = "converged"
                break

    # The loop's storage goes before the change of basis, the spare iterate
    # before z is copied out of w.
    carried = w.products[3] - sys.rhs
    groups = copies = spare = None
    z = w.z.copy()
    w = None
    result = Iterate(basis.expand_stacked(z, out=z))
    if box:
        np.clip(result.P, *config.bounds, out=result.P)  # the change of basis rounds
    residual = constraint_residual(node, result.Y, result.U)
    drift = np.linalg.norm(carried - basis.project_stacked(residual)) / max(1.0, np.linalg.norm(sys.rhs))
    report = SolveReport(
        iterations=k,
        stop_reason=stop_reason,
        increment_history=np.asarray(increments),
        step_history=np.asarray(steps),
        final_constraint_norm=float(np.linalg.norm(residual)),
        residual_drift=float(drift),
        seconds_total=time.perf_counter() - t0,
        seconds_predict=t_predict,
        seconds_correct=t_correct,
        factor_nnz={name: f.nnz for name, f in factors.named.items()},
        gap_history=None if gaps is None else np.asarray(gaps),
    )
    return result, report


solve_box = solve  # the box variant's former entry name, which bench/ still calls and traces
