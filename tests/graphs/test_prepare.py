"""CSRGraph.prepare(): the hoisted float64 weight twin.

A serving session pays the float64 weight cast once at graph load,
while solvers keep the lazy per-solve fallback — and both paths produce
bit-identical results (the cast is an exact widening).
"""

from __future__ import annotations

import numpy as np

from repro.calibration import sim_cost, sim_gpu
from repro.graphs.csr import CSRGraph, PreparedArrays


class TestPrepare:
    def test_prepare_builds_exact_twins(self, small_road):
        prep = small_road.prepare().prepared()
        assert isinstance(prep, PreparedArrays)
        assert prep.w64.dtype == np.float64
        assert np.array_equal(prep.w64, small_road.weights)

    def test_prepare_is_idempotent(self, small_road):
        first = small_road.prepare().prepared()
        second = small_road.prepare().prepared()
        assert first is second

    def test_unprepared_graph_reports_none(self, small_road):
        fresh = CSRGraph(
            row_offsets=small_road.row_offsets,
            col_indices=small_road.col_indices,
            weights=small_road.weights,
            name="fresh",
        )
        assert fresh.prepared() is None

    def test_prepared_and_lazy_solves_bit_match(self, small_road):
        """A solve on a prepared graph and one on an unprepared graph
        must produce the identical result."""
        from repro.baselines.common import SolveRequest, get_solver_info

        spec = sim_gpu()
        cost = sim_cost(spec)
        lazy = CSRGraph(
            row_offsets=small_road.row_offsets,
            col_indices=small_road.col_indices,
            weights=small_road.weights,
            name=small_road.name,
        )
        prepared = CSRGraph(
            row_offsets=small_road.row_offsets,
            col_indices=small_road.col_indices,
            weights=small_road.weights,
            name=small_road.name,
        ).prepare()
        info = get_solver_info("adds")
        a = info.solve(SolveRequest(graph=lazy, spec=spec, cost=cost))
        b = info.solve(SolveRequest(graph=prepared, spec=spec, cost=cost))
        assert np.array_equal(a.dist, b.dist)
        assert np.array_equal(a.predecessors, b.predecessors)
        assert a.work_count == b.work_count
        assert a.time_us == b.time_us
