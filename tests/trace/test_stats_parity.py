"""Every registered solver reports the uniform stats vocabulary.

The paper's cross-solver tables (3 and 4) compare atomics / kernel
launches / work across algorithms; this only works if every solver
spells those keys the same way, and reports every count as a Python
``int``.
"""

from __future__ import annotations

import pytest

from repro.baselines.common import SOLVERS, SolveRequest, get_solver
from repro.trace import UNIFORM_SOLVER_KEYS

#: Stats entries that are not counts: Δ values and traces.
NON_COUNT_KEYS = {"initial_delta", "final_delta", "delta", "delta_trace"}


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_solver_reports_uniform_keys(name, small_road):
    result = get_solver(name).solve(SolveRequest(graph=small_road))
    missing = [k for k in UNIFORM_SOLVER_KEYS if k not in result.stats]
    assert not missing, f"{name} stats missing {missing}"
    assert tuple(result.stats)[: len(UNIFORM_SOLVER_KEYS)] == UNIFORM_SOLVER_KEYS


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_every_count_is_a_python_int(name, small_road):
    """NumPy integers and floats never leak into a count."""
    stats = get_solver(name).solve(SolveRequest(graph=small_road)).stats
    counts = {k: v for k, v in stats.items() if k not in NON_COUNT_KEYS}
    assert counts
    for key, value in counts.items():
        assert type(value) is int, (name, key, value)


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_no_stat_is_none(name, small_road):
    """A stats key always carries a value; a figure a solver cannot
    report is left out, not set to ``None``."""
    stats = get_solver(name).solve(SolveRequest(graph=small_road)).stats
    assert [k for k, v in stats.items() if v is None] == []


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_kernel_launch_semantics(name, small_road):
    """BSP solvers launch one kernel per superstep, ADDS launches one
    persistent kernel, CPU solvers launch none."""
    result = get_solver(name).solve(SolveRequest(graph=small_road))
    launches = result.stats["kernel_launches"]
    if name == "adds":
        assert launches == 1
    elif name in ("nf", "gun-nf", "gun-bf", "nv"):
        assert launches >= 1
        assert launches == result.stats["supersteps"]
    else:
        assert launches == 0


def test_work_count_matches_stats(small_road):
    for name in sorted(SOLVERS):
        result = get_solver(name).solve(SolveRequest(graph=small_road))
        assert result.stats["work_count"] == result.work_count


def test_adds_counts_are_integers(small_road):
    """Counts serialize as ``189``, never ``189.0``, in reports."""
    stats = get_solver("adds").solve(SolveRequest(graph=small_road)).stats
    for key in ("atomics", "high_clips"):
        assert type(stats[key]) is int, (key, stats[key])
