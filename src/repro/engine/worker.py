"""Worker-side execution primitives shared by the engine's frontends.

This module is the bottom layer of :mod:`repro.engine`: everything a
worker process (or an in-process caller) needs to turn one
:class:`~repro.engine.scheduler.Cell` into an outcome — graph
materialization with a per-process memo, the ``SIGALRM`` cell alarm, and
the fault-isolation boundary that converts any solver-level explosion
into a plain picklable outcome tuple.  Two frontends drive it:

- :func:`repro.engine.scheduler.run_cells` — the one-shot sweep runner
  (plan a grid, fan out, retry, persist);
- :class:`repro.engine.executor.QueryExecutor` — the long-lived query
  executor a serving session dispatches to (:mod:`repro.serve`).

Outcome tuples are ``(kind, detail, elapsed_s, span)`` where ``kind`` is
``"ok"``/``"timeout"``/``"error"``, ``detail`` is the
:class:`~repro.baselines.common.SSSPResult` or a message string,
``elapsed_s`` is the monotonic duration, and ``span`` is the
``(started_at, ended_at)`` *wall-clock* (epoch-seconds) pair — the
per-query timestamps latency percentiles are computed from, recorded in
the worker so the parent never has to re-instrument.
"""

from __future__ import annotations

import importlib
import signal
import threading
import time
from contextlib import contextmanager
from typing import Dict, Optional, Sequence, Tuple

from repro.baselines.common import SolveRequest, get_solver
from repro.engine.cache import GraphCache
from repro.errors import EngineError
from repro.graphs.csr import CSRGraph

__all__ = [
    "CellTimeout",
    "cell_alarm",
    "execute_cell",
    "materialize_graph",
    "worker_init",
]


class CellTimeout(Exception):
    """Raised inside a worker when a cell exceeds its time budget."""


#: Per-process memo of built graphs: (cache_key, display_name) -> CSRGraph.
#: Workers run many cells against the same graph; building it once per
#: process keeps spec shipping cheaper than array shipping.
_GRAPH_MEMO: Dict[Tuple[str, str], CSRGraph] = {}


def worker_init(solver_modules: Sequence[str]) -> None:
    """Pool initializer: make sure every solver the sweep needs exists in
    this process's registry (the core registry populates on import of
    :mod:`repro`; plugins must be imported explicitly)."""
    for mod in solver_modules:
        importlib.import_module(mod)


@contextmanager
def cell_alarm(timeout_s: Optional[float]):
    """Arm ``SIGALRM`` to bound one cell, where the platform allows it.

    Signals only deliver to main threads on POSIX; elsewhere (including
    a serving session's batcher thread) the caller's own deadline policy
    is the only enforcement layer.
    """
    usable = (
        timeout_s is not None
        and hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _on_alarm(signum, frame):
        raise CellTimeout()

    old_handler = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old_handler)


def materialize_graph(cell) -> CSRGraph:
    """Obtain the cell's graph in this process (memoized)."""
    if cell.graph is not None:
        return cell.graph
    if cell.graph_spec is None:
        raise EngineError(f"cell {cell.key} carries neither graph nor spec")
    memo_key = (cell.graph_spec.cache_key(), cell.graph_name)
    g = _GRAPH_MEMO.get(memo_key)
    if g is None:
        if cell.cache_dir is not None:
            g = GraphCache(cell.cache_dir).get_or_build(
                cell.graph_spec, name=cell.graph_name
            )
        else:
            g = cell.graph_spec.build()
        if g.name != cell.graph_name:
            g = CSRGraph(
                row_offsets=g.row_offsets,
                col_indices=g.col_indices,
                weights=g.weights,
                name=cell.graph_name,
            )
        _GRAPH_MEMO[memo_key] = g
    return g


def execute_cell(cell) -> Tuple[str, object, float, Tuple[float, float]]:
    """Run one cell; never raises for solver-level problems.

    Returns the outcome tuple documented in the module docstring — a
    plain picklable value, so even exotic solver exceptions can't break
    the result channel back to the parent.
    """
    t0 = time.monotonic()
    started_at = time.time()
    try:
        graph = materialize_graph(cell)
        request = SolveRequest(
            graph=graph,
            source=cell.source,
            spec=cell.spec,
            cost=cell.cost,
            scheduler=getattr(cell, "scheduler", None),
            warm_from=getattr(cell, "warm_from", None),
            updates=getattr(cell, "updates", None),
            options=dict(cell.options),
        )
        with cell_alarm(cell.timeout_s):
            result = get_solver(cell.solver).solve(request)
        return ("ok", result, time.monotonic() - t0, (started_at, time.time()))
    except CellTimeout:
        return (
            "timeout",
            f"exceeded the {cell.timeout_s:g}s per-cell budget",
            time.monotonic() - t0,
            (started_at, time.time()),
        )
    except Exception as exc:  # fault-isolation boundary: record, don't kill
        return (
            "error",
            f"{type(exc).__name__}: {exc}",
            time.monotonic() - t0,
            (started_at, time.time()),
        )
