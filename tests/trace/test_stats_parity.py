"""Every registered solver reports the uniform stats vocabulary.

The paper's cross-solver tables (3 and 4) compare atomics / kernel
launches / work across algorithms; this only works if every solver
spells those keys the same way.  The MetricsRegistry enforces the
vocabulary — this test enforces that every solver uses it.
"""

from __future__ import annotations

import pytest

from repro.baselines.common import SOLVERS, SolveRequest, get_solver
from repro.trace import MetricsRegistry, UNIFORM_SOLVER_KEYS


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_solver_reports_uniform_keys(name, small_road):
    result = get_solver(name).solve(SolveRequest(graph=small_road))
    missing = [k for k in UNIFORM_SOLVER_KEYS if k not in result.stats]
    assert not missing, f"{name} stats missing {missing}"
    assert isinstance(result.metrics, MetricsRegistry)
    for k in UNIFORM_SOLVER_KEYS:
        assert k in result.metrics


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
