"""The benchmark's tracer replaces parasplit functions by name.

``bench/tracing.py`` looks every name in its ``PATCHES`` up in the owner's
``__dict__``; a rename in the package would break the traced benchmark runs
only.  This keeps such a rename visible in the regular suite.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_exists():
    tracing = _load_tracing()
    assert tracing.PATCHES
    missing = [
        f"{getattr(p.owner, '__name__', p.owner)}.{p.attr}"
        for p in tracing.PATCHES
        if p.attr not in vars(p.owner)
    ]
    assert missing == []
