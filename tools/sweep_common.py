"""What the timing sweeps under tools/ share: BLAS pinned to one thread,
parasplit imported from ``src/``, batched timing of short calls, quartiles
of repeated timings and a record of the environment a sweep ran in.

A sweep imports this module and calls ``pin_blas()`` before numpy loads, so
the thread settings reach the BLAS library; numpy and scipy are imported
here only inside ``environment()``.
"""

import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BATCH_SECONDS = 0.02  # resolves microseconds against the timer's overhead
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

sys.path.insert(0, str(ROOT / "src"))


def pin_blas() -> None:
    """One BLAS/OpenMP thread, as the solver's benchmark runs."""
    os.environ.update({k: "1" for k in THREAD_ENV})


def per_call(fn) -> float:
    """Mean seconds of one call of ``fn``, over a batch that takes about
    BATCH_SECONDS; one call when a single call takes longer."""
    t0 = time.perf_counter()
    fn()
    once = time.perf_counter() - t0
    if once >= BATCH_SECONDS:
        return once
    calls = max(1, int(BATCH_SECONDS / max(once, 1e-7)))
    t0 = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - t0) / calls


def quartiles(samples: list[float]) -> dict[str, float]:
    q1, q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median_s": q2, "q1_s": q1, "q3_s": q3}


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }
