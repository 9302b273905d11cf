"""The serve/cache correctness belt: bounds-checked targets, copy-on-put
ownership, selective invalidation, warm re-solves, and the mid-flight
generation guard."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dynamic import EdgeUpdate, UpdateBatch
from repro.errors import ServeError
from repro.graphs import generators
from repro.serve import DistanceCache
from repro.serve.session import Session


@pytest.fixture
def grid():
    return generators.grid_road(8, 8, seed=1)


class TestCacheTargets:
    """Target ids are bounds-checked before a cached landmark is sliced."""

    def _session(self, grid):
        s = Session(solver="dijkstra", autostart=False)
        s.add_graph("g", grid)
        s.query("g", 0)  # cache the landmark
        return s

    def test_out_of_range_target_raises_with_id(self, grid):
        with self._session(grid) as s:
            with pytest.raises(ServeError, match="64"):
                s.submit("g", 0, targets=[1, 64])

    def test_negative_target_raises_instead_of_wrapping(self, grid):
        with self._session(grid) as s:
            # numpy would silently answer dist[-1]; the session must not
            with pytest.raises(ServeError, match="-1"):
                s.submit("g", 0, targets=[-1])

    def test_in_range_targets_still_served(self, grid):
        with self._session(grid) as s:
            r = s.query("g", 0, targets=[63, 0])
            assert r.from_cache
            assert np.array_equal(r.target_dist, r.dist[[63, 0]])
            assert r.target_dist[1] == 0.0


class TestCachePutOwnership:
    def test_mutating_submitted_array_after_put_does_not_corrupt(self):
        c = DistanceCache(4)
        arr = np.array([1.0, 2.0, 3.0])
        c.put("g", 0, arr)
        arr[0] = 99.0  # caller keeps writing their array
        assert float(c.peek("g", 0)[0]) == 1.0

    def test_mutating_base_of_submitted_view_does_not_corrupt(self):
        c = DistanceCache(4)
        base = np.array([1.0, 2.0, 3.0])
        c.put("g", 0, base[:])  # a view: the old freeze-the-view bug path
        base[0] = 99.0
        assert float(c.peek("g", 0)[0]) == 1.0

    def test_own_freezes_in_place_without_copy(self):
        c = DistanceCache(4)
        arr = np.array([1.0, 2.0])
        stored = c.put("g", 0, arr, own=True)
        assert stored is arr  # no copy
        assert not arr.flags.writeable  # and the producer's handle froze

    def test_owned_view_still_copies(self):
        c = DistanceCache(4)
        base = np.array([1.0, 2.0, 3.0])
        stored = c.put("g", 0, base[:], own=True)
        base[0] = 99.0
        assert float(stored[0]) == 1.0

    def test_entries_always_read_only(self):
        c = DistanceCache(4)
        c.put("g", 0, np.array([1.0]))
        with pytest.raises(ValueError):
            c.get("g", 0)[0] = 2.0


class TestSelectiveInvalidation:
    def test_weight_only_update_keeps_unaffected_sources(self, grid):
        with Session(autostart=False) as s:
            s.add_graph("g", grid)
            s.query("g", 0)
            s.query("g", 63)
            assert len(s.cache) == 2
            # raise a slack edge far from being tight for either source:
            # pick any edge and bump it sky-high; at least assert the
            # session only drops entries changes_affect says move
            g = s.graph("g")
            src = int(np.repeat(
                np.arange(g.num_vertices), np.diff(g.row_offsets)
            )[0])
            dst = int(g.col_indices[0])
            w = float(g.weights[0])
            s.apply_updates(
                "g",
                UpdateBatch(
                    [EdgeUpdate(kind="increase", src=src, dst=dst, weight=w + 1)]
                ),
            )
            kept = len(s.cache)
            stashed = len(s._warm)
            assert kept + stashed == 2  # every entry kept or stashed
            # stashed sources answer correctly (and incrementally)
            r = s.query("g", 0)
            from repro.baselines.dijkstra import solve_dijkstra

            direct = solve_dijkstra(s.graph("g"), source=0)
            assert np.array_equal(r.dist, direct.dist)

    def test_topology_update_drops_whole_graph_but_stashes(self, grid):
        with Session(autostart=False) as s:
            s.add_graph("g", grid)
            s.query("g", 0)
            s.apply_updates(
                "g", UpdateBatch([EdgeUpdate(kind="delete", src=0, dst=1)])
            )
            assert len(s.cache) == 0
            assert ("g", 0) in s._warm
            r = s.query("g", 0)
            from repro.baselines.dijkstra import solve_dijkstra

            direct = solve_dijkstra(s.graph("g"), source=0)
            assert np.array_equal(r.dist, direct.dist)
            assert s.counters()["serve_incremental"] == 1.0

    def test_incremental_false_never_warm_solves(self, grid):
        with Session(autostart=False, incremental=False) as s:
            s.add_graph("g", grid)
            s.query("g", 0)
            s.apply_updates(
                "g", UpdateBatch([EdgeUpdate(kind="delete", src=0, dst=1)])
            )
            s.query("g", 0)
            assert s.counters()["serve_incremental"] == 0.0

    def test_unknown_graph_id(self, grid):
        with Session(autostart=False) as s:
            with pytest.raises(ServeError):
                s.apply_updates("nope", UpdateBatch([]))


class TestGenerationGuard:
    def test_update_mid_flight_fails_stale_answers(self, grid, monkeypatch):
        with Session(autostart=False) as s:
            s.add_graph("g", grid)
            fut = s.submit("g", 5)
            # simulate an update racing the solve: bump the generation
            # between the solve and demux
            real_solve = s._solve

            def racing_solve(cells):
                outcomes = real_solve(cells)
                s.apply_updates(
                    "g", UpdateBatch([EdgeUpdate(kind="delete", src=0, dst=1)])
                )
                return outcomes

            monkeypatch.setattr(s, "_solve", racing_solve)
            s.serve_pending()
            with pytest.raises(ServeError, match="updated while"):
                fut.result()
            assert s.counters()["serve_stale"] == 1.0
            # the torn answer must not have been cached
            assert s.cache.peek("g", 5) is None

    def test_add_graph_bumps_generation(self, grid):
        with Session(autostart=False) as s:
            s.add_graph("g", grid)
            g0 = s._generation["g"]
            s.add_graph("g", generators.grid_road(8, 8, seed=2))
            assert s._generation["g"] == g0 + 1

    def test_remove_graph_drops_warm_stash(self, grid):
        with Session(autostart=False) as s:
            s.add_graph("g", grid)
            s.query("g", 0)
            s.apply_updates(
                "g", UpdateBatch([EdgeUpdate(kind="delete", src=0, dst=1)])
            )
            assert s._warm
            s.remove_graph("g")
            assert not s._warm
