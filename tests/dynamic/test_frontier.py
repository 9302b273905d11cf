"""The dirty-frontier rule: seeding, invalidation, changes_affect, and
end-to-end incremental == full bit-equality on small graphs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.dijkstra import solve_dijkstra
from repro.dynamic import (
    EdgeDeltas,
    EdgeUpdate,
    UpdateBatch,
    apply_updates,
    changes_affect,
    incremental_seed,
)
from repro.errors import DynamicError, SolverError
from repro.graphs import generators
from repro.graphs.csr import from_edge_list
from repro.graphs.generators import update_stream


def _diamond():
    """0 -> {1, 2} -> 3; the 0->1->3 path (cost 2) beats 0->2->3 (cost 4)."""
    return from_edge_list(
        4, [(0, 1, 1), (0, 2, 2), (1, 3, 1), (2, 3, 2)]
    )


class TestSeeding:
    def test_empty_deltas_empty_frontier(self):
        g = _diamond()
        dist = solve_dijkstra(g, source=0).dist
        warm, frontier, fd, info = incremental_seed(
            g, dist, EdgeDeltas.empty(), 0
        )
        assert frontier.size == 0 and fd.size == 0
        assert info == {"roots": 0, "invalidated": 0, "frontier": 0}
        assert np.array_equal(warm, dist)

    def test_idempotent_batch_empty_frontier(self):
        g = _diamond()
        dist = solve_dijkstra(g, source=0).dist
        res = apply_updates(
            g,
            UpdateBatch(
                [
                    EdgeUpdate(kind="increase", src=0, dst=1, weight=9.0),
                    EdgeUpdate(kind="decrease", src=0, dst=1, weight=1.0),
                ]
            ),
        )
        assert res.deltas.size == 0  # net no-op
        _, frontier, _, info = incremental_seed(res.graph, dist, res.deltas, 0)
        assert frontier.size == 0 and info["invalidated"] == 0

    def test_decrease_seeds_tail_without_invalidation(self):
        g = _diamond()
        dist = solve_dijkstra(g, source=0).dist
        res = apply_updates(
            g, UpdateBatch([EdgeUpdate(kind="decrease", src=0, dst=2, weight=1.0)])
        )
        warm, frontier, fd, info = incremental_seed(res.graph, dist, res.deltas, 0)
        assert info["invalidated"] == 0  # nothing got worse
        # the cheaper edge now violates: its tail is the frontier
        assert 0 in frontier.tolist()
        assert np.array_equal(warm, dist)  # upper bounds kept verbatim

    def test_tight_increase_invalidates_downstream(self):
        g = _diamond()
        dist = solve_dijkstra(g, source=0).dist
        res = apply_updates(
            g, UpdateBatch([EdgeUpdate(kind="increase", src=0, dst=1, weight=5.0)])
        )
        warm, frontier, _, info = incremental_seed(res.graph, dist, res.deltas, 0)
        assert info["roots"] == 1
        # 1 and its downstream 3 are reset; source stays 0
        assert np.isinf(warm[1]) or warm[1] > dist[1] or frontier.size
        assert warm[0] == 0.0

    def test_non_tight_increase_keeps_distances(self):
        g = _diamond()
        dist = solve_dijkstra(g, source=0).dist
        # 2->3 is slack (dist[3]=2 via 1); raising it moves nothing
        res = apply_updates(
            g, UpdateBatch([EdgeUpdate(kind="increase", src=2, dst=3, weight=9.0)])
        )
        warm, frontier, _, info = incremental_seed(res.graph, dist, res.deltas, 0)
        assert info["invalidated"] == 0
        assert frontier.size == 0
        assert np.array_equal(warm, dist)

    def test_bad_warm_array_rejected(self):
        g = _diamond()
        with pytest.raises(DynamicError):
            incremental_seed(g, np.zeros(3), None, 0)  # wrong size
        with pytest.raises(DynamicError):
            incremental_seed(g, np.full(4, np.nan), None, 0)
        with pytest.raises(DynamicError):
            incremental_seed(g, np.array([0.0, -1.0, 0.0, 0.0]), None, 0)


class TestChangesAffect:
    def test_empty_deltas_never_affect(self):
        dist = np.array([0.0, 1.0])
        assert changes_affect(dist, EdgeDeltas.empty()) is False

    def test_slack_increase_does_not_affect(self):
        g = _diamond()
        dist = solve_dijkstra(g, source=0).dist
        deltas = EdgeDeltas.from_map({(2, 3): (2.0, 9.0)})
        assert changes_affect(dist, deltas) is False

    def test_tight_increase_affects(self):
        g = _diamond()
        dist = solve_dijkstra(g, source=0).dist
        deltas = EdgeDeltas.from_map({(0, 1): (1.0, 5.0)})
        assert changes_affect(dist, deltas) is True

    def test_relaxable_decrease_affects(self):
        g = _diamond()
        dist = solve_dijkstra(g, source=0).dist
        deltas = EdgeDeltas.from_map({(0, 2): (2.0, 0.5)})
        assert changes_affect(dist, deltas) is True

    def test_useless_insert_does_not_affect(self):
        g = _diamond()
        dist = solve_dijkstra(g, source=0).dist
        deltas = EdgeDeltas.from_map({(3, 0): (np.nan, 50.0)})
        assert changes_affect(dist, deltas) is False


class TestWarmSolvers:
    def test_updates_without_warm_rejected(self):
        g = _diamond()
        with pytest.raises(SolverError):
            solve_dijkstra(g, source=0, updates=EdgeDeltas.empty())

    def test_adds_updates_without_warm_rejected(self):
        from repro.core.adds import solve_adds

        g = _diamond()
        with pytest.raises(SolverError):
            solve_adds(g, source=0, updates=EdgeDeltas.empty())

    def test_warm_no_deltas_is_noop_resolve(self):
        g = _diamond()
        dist = solve_dijkstra(g, source=0).dist
        res = solve_dijkstra(g, source=0, warm_from=dist)
        assert np.array_equal(res.dist, dist)
        assert res.stats["warm_frontier"] == 0
        assert res.work_count == 0  # nothing to expand

    def test_dijkstra_incremental_matches_full_over_stream(self):
        g = generators.grid_road(8, 8, seed=2)
        warm = solve_dijkstra(g, source=0).dist
        for batch in update_stream(g, batches=4, batch_size=6, seed=13):
            res = apply_updates(g, batch)
            g = res.graph
            full = solve_dijkstra(g, source=0)
            inc = solve_dijkstra(g, source=0, warm_from=warm, updates=res.deltas)
            assert np.array_equal(full.dist, inc.dist)  # bit-equal
            warm = inc.dist

    def test_adds_incremental_matches_full_over_stream(self):
        from repro.core.adds import solve_adds

        g = generators.grid_road(6, 6, seed=4)
        warm = solve_adds(g, source=0).dist
        for batch in update_stream(g, batches=3, batch_size=5, seed=21):
            res = apply_updates(g, batch)
            g = res.graph
            full = solve_adds(g, source=0)
            inc = solve_adds(g, source=0, warm_from=warm, updates=res.deltas)
            assert np.array_equal(full.dist, inc.dist)
            assert inc.stats["warm_start"] is True
            warm = inc.dist
