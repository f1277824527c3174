"""Span recording around parasplit's public functions, from outside the package.

A ``Tracer`` replaces each traced function under the name its caller looks it
up by (a module global or a class attribute) with a wrapper that records a
span: name, start, end, parent span, label and run id.  Leaving
``Tracer.installed()`` puts the originals back.  Spans are recorded only on the thread that installed the
tracer; inside an *opaque* span (``solve_multi``, whose chunks run on pool
threads) nothing nested is recorded, so its time is attributed to it alone.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

from parasplit import discretization, experiments, kkt_oracle, splitting_solver
from parasplit.sparse_linalg import CholFactor, SparseSpd
from parasplit.splitting_solver import PredictionFactors


@dataclass(frozen=True)
class Patch:
    owner: object  # module or class whose attribute is replaced
    attr: str
    span: str
    opaque: bool = False
    cpu: bool = False  # also record process CPU time over the span
    size: object = None  # callable(*args) -> work count recorded with the span


def _columns(factor, rhs, *args, **kwargs) -> int:
    return rhs.shape[1] if getattr(rhs, "ndim", 1) == 2 else 1


PATCHES = (
    Patch(experiments, "build_level", "experiments.build_level"),
    Patch(experiments, "uniform_unit_square", "mesh.uniform_unit_square"),
    Patch(experiments, "make_space", "fem_assembly.make_space"),
    Patch(experiments, "build_system", "discretization.build_system"),
    Patch(discretization, "assemble_mass", "fem_assembly.assemble_mass"),
    Patch(discretization, "assemble_stiffness", "fem_assembly.assemble_stiffness"),
    Patch(discretization, "load_vector", "fem_assembly.load_vector"),
    Patch(discretization, "interpolate_nodal", "fem_assembly.interpolate_nodal"),
    Patch(discretization, "constraint_linear_map", "discretization.constraint_linear_map"),
    Patch(SparseSpd, "__init__", "sparse_linalg.SparseSpd.__init__"),
    Patch(CholFactor, "solve", "sparse_linalg.CholFactor.solve"),
    Patch(splitting_solver, "solve", "splitting_solver.solve"),
    Patch(splitting_solver, "solve_box", "splitting_solver.solve_box"),
    Patch(PredictionFactors, "build", "splitting_solver.PredictionFactors.build"),
    Patch(splitting_solver, "factorize", "sparse_linalg.factorize"),
    Patch(splitting_solver, "compute_q", "splitting_solver.compute_q"),
    Patch(splitting_solver, "predict", "splitting_solver.predict"),
    Patch(splitting_solver, "predict_controls", "splitting_solver.predict_controls"),
    Patch(splitting_solver, "predict_states", "splitting_solver.predict_states"),
    Patch(splitting_solver, "predict_multiplier", "splitting_solver.predict_multiplier"),
    Patch(splitting_solver, "correct", "splitting_solver.correct"),
    Patch(splitting_solver, "iterate_diff", "splitting_solver.iterate_diff"),
    Patch(splitting_solver, "h_norm_sq", "splitting_solver.h_norm_sq"),
    Patch(splitting_solver, "solve_multi", "sparse_linalg.solve_multi",
          opaque=True, cpu=True, size=_columns),
    Patch(splitting_solver, "constraint_residual", "discretization.constraint_residual"),
    Patch(splitting_solver, "constraint_linear_map", "discretization.constraint_linear_map"),
    Patch(kkt_oracle, "solve_kkt", "kkt_oracle.solve_kkt"),
    Patch(kkt_oracle, "constraint_blocks", "kkt_oracle.constraint_blocks"),
    Patch(kkt_oracle, "constraint_residual", "discretization.constraint_residual"),
    Patch(experiments, "error_y_final", "experiments.error_y_final"),
    Patch(experiments, "error_u_spacetime", "experiments.error_u_spacetime"),
    Patch(experiments, "l2_error", "fem_assembly.l2_error"),
)

# Span record layout (lists are cheaper to build than dicts on the hot path).
NAME, START, END, PARENT, LABEL, RUN, SIZE, CPU = range(8)
FIELDS = ("name", "start", "end", "parent", "label", "run", "size", "cpu")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run = 0
        self._stack: list[int] = []
        self._label = ""
        self._opaque = 0
        self._owner = None

    @contextmanager
    def installed(self):
        """Replace every patched function by its recording wrapper, then restore it."""
        self._owner = threading.get_ident()
        saved = []
        try:
            for p in PATCHES:
                raw = p.owner.__dict__[p.attr]
                saved.append((p.owner, p.attr, raw))
                if isinstance(raw, staticmethod):
                    setattr(p.owner, p.attr, staticmethod(self._wrap(raw.__func__, p)))
                else:
                    setattr(p.owner, p.attr, self._wrap(raw, p))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    @contextmanager
    def root(self, name: str, label: str):
        """A span opened by the benchmark itself; nested spans inherit its label."""
        span = self._open(name, None, False)
        self._label = span[LABEL] = label
        try:
            yield
        finally:
            self._close(span, None)
            self._label = ""

    def _open(self, name, size, cpu):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._label,
                self.run, size, time.process_time() if cpu else None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span, cpu):
        span[END] = time.perf_counter()
        if cpu:
            span[CPU] = time.process_time() - span[CPU]
        self._stack.pop()

    def _wrap(self, fn, patch: Patch):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._opaque or threading.get_ident() != tracer._owner:
                return fn(*args, **kwargs)
            size = patch.size(*args, **kwargs) if patch.size else None
            span = tracer._open(patch.span, size, patch.cpu)
            tracer._opaque += patch.opaque
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._opaque -= patch.opaque
                tracer._close(span, patch.cpu)

        traced.__wrapped__ = fn
        return traced


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


@dataclass
class SpanTotals:
    seconds: float = 0.0  # self time
    calls: int = 0
    size: int = 0
    cpu: float = 0.0  # process CPU time, where the patch records it
    wall: float = 0.0  # inclusive time


def totals_by_name(spans: list[list], run: int | None = None, label_suffix: str = "") -> dict:
    """Self time, calls and recorded sizes summed per span name."""
    own = self_times(spans)
    out: dict[str, SpanTotals] = defaultdict(SpanTotals)
    for s, t in zip(spans, own):
        if (run is not None and s[RUN] != run) or not s[LABEL].endswith(label_suffix):
            continue
        tot = out[s[NAME]]
        tot.seconds += t
        tot.calls += 1
        tot.size += s[SIZE] or 0
        tot.cpu += s[CPU] or 0.0
        tot.wall += s[END] - s[START]
    return out
