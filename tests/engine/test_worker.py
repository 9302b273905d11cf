"""execute_cell and future_outcome: the fault-isolation boundary every
caller of the engine runs a cell through."""

from __future__ import annotations

from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

from repro.engine import Cell, execute_cell
from repro.engine.worker import future_outcome


def _cell(graph, solver="dijkstra", source=0):
    return Cell(graph_name=graph.name or "g", category="test", solver=solver,
                source=source, graph=graph)


class TestExecuteCell:
    def test_ok_outcome(self, small_road):
        kind, result, elapsed = execute_cell(_cell(small_road))
        assert kind == "ok"
        assert result.dist[0] == 0.0
        assert elapsed >= 0.0

    def test_solver_error_is_an_outcome_not_an_exception(self, small_road, fault_solvers):
        kind, detail, _ = execute_cell(_cell(small_road, solver="eng-crash"))
        assert kind == "error"
        assert "injected failure" in detail


class TestFutureOutcome:
    def test_broken_pool_is_an_error_outcome(self):
        fut = Future()
        fut.set_exception(BrokenProcessPool("a worker died"))
        assert future_outcome(fut) == (
            "error", "worker failed: BrokenProcessPool: a worker died", 0.0
        )
