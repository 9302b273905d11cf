"""Fault-injection solvers for exercising the engine's failure paths.

Real solvers (hopefully) don't hang or crash on demand, so the engine's
timeout/retry/degradation machinery needs purpose-built adversaries.  This
module registers three tiny solvers — importable by engine workers via
``EngineConfig.solver_modules=("repro.engine.testing",)``:

``eng-const``
    Returns instantly with a trivial all-zero result (the fast "good
    neighbour" cell other cells fail next to).
``eng-crash``
    Raises :class:`~repro.errors.SolverError` every time.
``eng-hang``
    Sleeps for ``hang_s`` seconds (default: effectively forever) — the
    cell the per-cell alarm must reap.
``eng-flaky``
    Fails until its ``latch`` file exists, creating it on the first
    attempt — so the *retry* (in any process) succeeds.  Exercises the
    bounded-retry path end to end.

Registration is idempotent via :func:`register`; tests that import this
module should call :func:`unregister` afterwards so suite-wide
"every registered solver" checks don't pick up the saboteurs.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro.baselines.common import (
    SOLVERS,
    SSSPResult,
    register_solver,
    uniform_stats,
)
from repro.errors import SolverError

__all__ = ["FAULT_SOLVER_NAMES", "register", "unregister"]

FAULT_SOLVER_NAMES = ("eng-const", "eng-crash", "eng-hang", "eng-flaky")


def _const_result(graph, source: int, solver: str) -> SSSPResult:
    dist = np.full(graph.num_vertices, np.inf, dtype=np.float64)
    dist[source] = 0.0
    return SSSPResult(
        solver=solver,
        graph_name=graph.name,
        source=source,
        dist=dist,
        work_count=1,
        time_us=1.0,
        stats=uniform_stats(work_count=1),
    )


def _solve_const(graph, source: int = 0) -> SSSPResult:
    return _const_result(graph, source, "eng-const")


def _solve_crash(graph, source: int = 0) -> SSSPResult:
    raise SolverError("injected failure (eng-crash)")


def _solve_hang(graph, source: int = 0, *, hang_s: float = 3600.0):
    time.sleep(hang_s)
    return _const_result(graph, source, "eng-hang")


def _solve_flaky(graph, source: int = 0, *, latch=None) -> SSSPResult:
    if latch is None:
        raise SolverError("eng-flaky needs a latch=<path> option")
    latch = Path(latch)
    if not latch.exists():
        latch.touch()
        raise SolverError("injected first-attempt failure (eng-flaky)")
    return _const_result(graph, source, "eng-flaky")


_FNS = {
    "eng-const": _solve_const,
    "eng-crash": _solve_crash,
    "eng-hang": _solve_hang,
    "eng-flaky": _solve_flaky,
}


def register() -> None:
    """Idempotently register the fault solvers."""
    for name, fn in _FNS.items():
        if name not in SOLVERS:
            register_solver(name)(fn)


def unregister() -> None:
    """Remove the fault solvers from the registry (test teardown)."""
    for name in FAULT_SOLVER_NAMES:
        SOLVERS.pop(name, None)


register()
