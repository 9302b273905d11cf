"""JSONL result store: exact round-trips and corruption handling."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.baselines.common import SolveRequest, get_solver
from repro.engine import FailedRun, ResultStore, result_from_json, result_to_json
from repro.errors import EngineError


def _result(graph, solver="dijkstra"):
    return get_solver(solver).solve(SolveRequest(graph=graph))


class TestResultRoundTrip:
    def test_dist_is_bit_exact(self, small_road):
        res = _result(small_road)
        back = result_from_json(result_to_json(res))
        assert np.array_equal(back.dist, res.dist)
        assert back.dist.dtype == np.float64
        assert back.solver == res.solver
        assert back.graph_name == res.graph_name
        assert back.work_count == res.work_count
        assert back.time_us == res.time_us
        assert back.stats == res.stats

    def test_inf_distances_survive(self, tiny_graph):
        # fig1 is directed: nothing reaches S, so dist has a 0/finite mix;
        # craft an unreachable vertex by solving from a sink instead.
        res = _result(tiny_graph)
        res.dist[1] = np.inf
        back = result_from_json(result_to_json(res))
        assert np.isinf(back.dist[1])
        assert np.array_equal(back.dist, res.dist)

    def test_corrupt_payload_raises(self):
        with pytest.raises(EngineError, match="corrupt result record"):
            result_from_json({"solver": "dijkstra"})  # no dist_b64


class TestResultStore:
    def test_append_and_load(self, small_road, tmp_path):
        path = tmp_path / "sweep.jsonl"
        res = _result(small_road)
        with ResultStore(path) as store:
            store.append_result("road", res)
            store.append_failure(
                FailedRun(
                    graph="g2", category="road", solver="nf",
                    kind="timeout", message="too slow",
                    attempts=2, elapsed_s=1.5,
                )
            )
        contents = ResultStore(path).load()
        assert len(contents) == 1
        category, back = contents.results[(small_road.name, "dijkstra")]
        assert category == "road"
        assert np.array_equal(back.dist, res.dist)
        (failure,) = contents.failures
        assert failure.kind == "timeout" and failure.attempts == 2

    def test_missing_file_is_empty(self, tmp_path):
        contents = ResultStore(tmp_path / "never-written.jsonl").load()
        assert len(contents) == 0 and contents.failures == []

    def test_torn_final_line_is_ignored(self, small_road, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with ResultStore(path) as store:
            store.append_result("road", _result(small_road))
        with open(path, "a") as fh:
            fh.write('{"schema": 1, "kind": "resu')  # killed mid-append
        contents = ResultStore(path).load()
        assert len(contents) == 1

    def test_malformed_middle_line_raises(self, small_road, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with ResultStore(path) as store:
            store.append_result("road", _result(small_road))
        with open(path, "a") as fh:
            fh.write("not json at all\n")
            fh.write(json.dumps({"schema": 1, "kind": "failure",
                                 "graph": "g", "category": "c", "solver": "s",
                                 "kind_": "x"}) + "\n")
        with pytest.raises(EngineError, match="malformed store line"):
            ResultStore(path).load()

    def test_schema_mismatch_raises(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        path.write_text('{"schema": 99, "kind": "result", "result": {}}\n')
        with pytest.raises(EngineError, match="schema"):
            ResultStore(path).load()

    def test_unknown_kind_raises(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        path.write_text('{"schema": 1, "kind": "telemetry"}\n')
        with pytest.raises(EngineError, match="unknown store record kind"):
            ResultStore(path).load()

    def test_truncate_starts_fresh(self, small_road, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with ResultStore(path) as store:
            store.append_result("road", _result(small_road))
        with ResultStore(path, truncate=True) as store:
            pass
        assert len(ResultStore(path).load()) == 0

    def test_later_line_supersedes_earlier(self, small_road, tmp_path):
        path = tmp_path / "sweep.jsonl"
        first = _result(small_road)
        second = _result(small_road)
        second.dist = second.dist + 1.0
        with ResultStore(path) as store:
            store.append_result("road", first)
            store.append_result("road", second)
        _, back = ResultStore(path).load().results[(small_road.name, "dijkstra")]
        assert np.array_equal(back.dist, second.dist)
