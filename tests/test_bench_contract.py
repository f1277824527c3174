"""The benchmark and the sweep tools reach into parasplit by name.

``bench/tracing.py`` looks every name in its ``PATCHES`` up in the owner's
``__dict__``, and the sweeps under ``tools/`` read or swap private names; a
rename in the package would break those runs only.  The benchmark, the
sweeps and this suite each pin BLAS to one thread from their own list of
environment variables.  These tests keep a rename, or a drift between the
lists, visible in the regular suite, and run the sweeps' oracle cells,
one repeat of the dense sweep and of the group-call timing, and the chunk
sweep's timed solve and fault count on a small level.  Two tests count the
code lines of a small module with ``tools/code_lines.py`` and run
``tools/ab.py``'s cells on HEAD against itself.
"""

import ast
import dataclasses
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conftest
from parasplit import kkt_oracle, mirrors, sparse_linalg, splitting_solver
from parasplit.experiments import build_level, get_example

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def _load_tracing():
    return _load("bench_tracing", TRACING)


def test_every_patched_name_exists():
    tracing = _load_tracing()
    assert tracing.PATCHES
    missing = [
        f"{getattr(p.owner, '__name__', p.owner)}.{p.attr}"
        for p in tracing.PATCHES
        if p.attr not in vars(p.owner)
    ]
    assert missing == []


def _module_constant(path: Path, name: str):
    """The literal a module assigns to ``name`` at top level, read without
    importing the module."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path} assigns no {name}")


@pytest.mark.parametrize("path", ["bench/run.py", "tools/sweep_common.py"])
def test_blas_thread_list_matches_the_suite(path):
    assert _module_constant(ROOT / path, "THREAD_ENV") == conftest.THREAD_ENV


def test_private_names_the_sweeps_use_exist(monkeypatch):
    # tools/oracle_sweep.py swaps _solve_modal, calls modal_sweep and the
    # per-block eigensolve block_eigh on a level in its mirror basis, and
    # reads a basis's sizes;
    # tools/chunk_sweep.py sets CHUNK_COLS; tools/dense_sweep.py splits a
    # level's blocks into groups with group_blocks, changes the level into
    # its mirror basis, reads its block_sizes, sets BLOCK_MAX_NDOF to send
    # every block down one path and solves a block at width M into a
    # reused array
    assert callable(kkt_oracle._solve_modal) and callable(kkt_oracle.modal_sweep)
    sys_ = build_level(get_example("5.1"), 4)
    basis = mirrors.mirror_basis(sys_)
    assert sum(basis.sizes) == sys_.ndof
    in_basis = sys_.in_mirror_basis()
    assert [len(mu) for mu, _ in kkt_oracle.block_eigh(in_basis)] == basis.sizes
    assert isinstance(splitting_solver.CHUNK_COLS, int)
    groups = splitting_solver.group_blocks(basis.sizes, 2 * splitting_solver.CHUNK_COLS + 1)
    assert [(g.start, g.stop) for g in groups] == [(0, 1), (1, 2), (2, 4)]
    assert in_basis.block_sizes == basis.sizes
    assert isinstance(sparse_linalg.BLOCK_MAX_NDOF, int)
    config = splitting_solver.SolverConfig(alpha=sys_.alpha, beta=1.0)
    rhs = np.ones((2, sys_.ndof, 3))
    for cap, dense in ((0, False), (10**9, True)):
        monkeypatch.setattr(sparse_linalg, "BLOCK_MAX_NDOF", cap)
        factors = splitting_solver.PredictionFactors.build(in_basis, config)
        control = factors.named["control"]
        assert control.dense is dense and len(control.parts) == len(basis.sizes)
        out = np.full_like(rhs, np.nan)
        factors.solve(rhs, out)
        assert np.isfinite(out).all()


@pytest.fixture
def sweeps(monkeypatch):
    """tools/oracle_sweep.py, tools/dense_sweep.py, tools/group_calls.py and
    tools/chunk_sweep.py, loaded by path as their own directory would import
    them (they import ``sweep_common``)."""
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return {name: _load(f"tools_{name}", ROOT / "tools" / f"{name}.py")
            for name in ("oracle_sweep", "dense_sweep", "group_calls", "chunk_sweep")}


@pytest.mark.parametrize("example", ["5.1", "5.2"])
def test_oracle_sweep_cells_run(sweeps, example):
    # every timed cell on a small level; the whole-pencil solve agrees with the package's
    oracle_sweep = sweeps["oracle_sweep"]
    sys_ = build_level(get_example(example), 4)
    results = {cell: fn(sys_) for cell, fn in oracle_sweep.CELLS.items()}
    blocked, full = results["solve_kkt"], results["solve_kkt_full"]
    for name in ("Y_star", "U_star", "lambda_star"):
        want = getattr(blocked, name)
        assert np.linalg.norm(getattr(full, name) - want) <= 1e-10 * np.linalg.norm(want), name
    assert kkt_oracle._solve_modal is not oracle_sweep.full_pencil_modal  # the swap is undone


def test_dense_sweep_times_a_level(sweeps):
    # one repeat of every cell on both paths, and the module's cap put back
    dense_sweep = sweeps["dense_sweep"]
    cap = sparse_linalg.BLOCK_MAX_NDOF
    level = dense_sweep.prepare_level("5.1", 4)
    dense_sweep.time_level(level)
    assert level["times"].keys() == dense_sweep.PATHS.keys()
    for path, times in level["times"].items():
        assert times.keys() == {"build", *level["rhs"]}, path
        assert all(len(t) == 1 and t[0] > 0.0 for t in times.values()), path
    assert sparse_linalg.BLOCK_MAX_NDOF == cap


def test_group_calls_times_a_level(sweeps):
    # one repeat of both cells on a small level of two groups, which give the same bits
    group_calls = sweeps["group_calls"]
    level = group_calls.prepare_level(17)
    assert len(level["groups"]) == 2 and all(level["same"].values())
    group_calls.time_level(level, 0)
    for times in level["times"].values():
        assert times.keys() == group_calls.CELLS.keys()
        assert all(len(t) == 1 and t[0] > 0.0 for t in times.values())


def test_chunk_sweep_cells_run(sweeps, monkeypatch):
    # both cells at n = 4 (M = 8): timed solves at two widths and thread
    # counts give the same bits, and the fault count runs; the sweep sets
    # CHUNK_COLS, which monkeypatch puts back
    chunk_sweep = sweeps["chunk_sweep"]
    monkeypatch.setattr(splitting_solver, "CHUNK_COLS", splitting_solver.CHUNK_COLS)
    problem = get_example("5.1")
    sys_ = build_level(problem, 4)
    runs = [chunk_sweep.timed_solve(sys_, problem, width, threads) for width, threads in ((8, 1), (2, 2))]
    for seconds, per_iteration, _ in runs:
        assert seconds > 0.0
        assert per_iteration.keys() == {"predict_ms_per_iteration", "correct_ms_per_iteration"}
        assert all(ms > 0.0 for ms in per_iteration.values())
    assert np.array_equal(runs[0][2], runs[1][2])
    assert splitting_solver.CHUNK_COLS == 2
    assert chunk_sweep.steady_faults(4, 8, 1) >= 0.0


def test_code_lines_counts_a_module(tmp_path, capsys):
    # docstrings, comments and blank lines are not code; a wrapped statement,
    # and a string that is no docstring, count every line they span
    code_lines = _load("tools_code_lines", ROOT / "tools" / "code_lines.py")
    (tmp_path / "toy.py").write_text(
        '"""Module docstring,\n\nover three lines."""\n'
        "\n"
        "import os  # a comment\n"
        "# a comment line\n"
        "\n"
        "\n"
        "class A:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def f(self):\n"
        "        '''Function docstring.'''\n"
        "        return (1,\n"
        "                2)\n"
        'TEXT = """not a\n'
        'docstring"""\n'
    )
    code_lines.main([str(tmp_path)])
    assert capsys.readouterr().out.split() == ["toy.py", "7", "17", "total", "7", "17"]


def test_ab_runs_head_against_itself(tmp_path, monkeypatch):
    # the interleaved harness at n = 4: HEAD's package imported twice, as two
    # distinct module sets, gives bit-identical iterates in every cell
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    ab = _load("tools_ab", ROOT / "tools" / "ab.py")
    try:
        src = ab.export("HEAD", tmp_path)
    except (OSError, subprocess.CalledProcessError) as err:
        pytest.skip(f"no git checkout to export HEAD from: {err}")
    aliases = ("parasplit_ab_test_base", "parasplit_ab_test_change")
    try:
        base, change = (ab.load(alias, src) for alias in aliases)
        assert base.splitting_solver is not change.splitting_solver
        small = (("5.1", 4), ("5.2", 4))  # the oracle cell on small rungs
        cells = [dataclasses.replace(c, rungs=small) if c.rungs else
                 dataclasses.replace(c, n=4, config={**c.config, "k_max": 20}) for c in ab.CELLS]
        assert ab.takes_step(base) and ab.takes_step(change)
        # the default rule, and --step constant, which both trees take
        runs = [ab.compare(base, change, cells, rounds=2, step=step) for step in (None, "constant")]
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] in aliases]:
            del sys.modules[name]
    for out in runs:
        assert list(out) == [c.name for c in ab.CELLS] and "oracle-ladder" in out
        for name, cell in out.items():
            count = len(small) if name == "oracle-ladder" else 20  # calls, or iterations
            slabs = 3 * len(small) if name == "oracle-ladder" else len(cell["max_rel_diff_per_slab"])
            assert cell["iterations"] == {"base": count, "change": count}, name
            assert len(cell["max_rel_diff_per_slab"]) == slabs, name
            assert cell["identical"] and not any(cell["max_rel_diff_per_slab"]), name
            for side in ("base", "change"):
                assert 0.0 < cell[side]["sum_of_minima_s"] <= cell[side]["q1_s"] <= cell[side]["q3_s"], name
