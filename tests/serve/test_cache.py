"""DistanceCache: hit/miss/LRU/invalidate semantics and landmark reuse."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import DistanceCache, Session


def _dist(n, offset=0.0):
    return np.arange(n, dtype=np.float64) + offset


class TestLookup:
    def test_miss_then_hit(self):
        c = DistanceCache(4)
        assert c.get("g", 0) is None
        c.put("g", 0, _dist(5))
        got = c.get("g", 0)
        assert np.array_equal(got, _dist(5))
        assert c.lookup_hits == 1 and c.lookup_misses == 1

    def test_distinct_sources_are_distinct_entries(self):
        c = DistanceCache(4)
        c.put("g", 0, _dist(5))
        c.put("g", 1, _dist(5, offset=10))
        assert np.array_equal(c.get("g", 0), _dist(5))
        assert np.array_equal(c.get("g", 1), _dist(5, offset=10))

    def test_distinct_graphs_do_not_collide(self):
        c = DistanceCache(4)
        c.put("a", 0, _dist(5))
        assert c.get("b", 0) is None

    def test_cached_array_is_read_only(self):
        c = DistanceCache(4)
        stored = c.put("g", 0, _dist(5))
        assert not stored.flags.writeable
        with pytest.raises(ValueError):
            c.get("g", 0)[0] = 99.0

    def test_landmark_targets_slice(self, line_graph):
        with Session(solver="dijkstra", autostart=False) as s:
            s.add_graph("g", line_graph)
            s.query("g", 0)  # the landmark: a full solve from source 0
            r = s.query("g", 0, targets=[5, 2, 2])
            assert r.from_cache
            assert np.array_equal(r.target_dist, [5.0, 2.0, 2.0])
            # the slice is a fresh writable array, not a view of the entry
            r.target_dist[0] = -1.0
            assert s.cache.peek("g", 0)[5] == 5.0


class TestEviction:
    def test_lru_evicts_oldest(self):
        c = DistanceCache(2)
        c.put("g", 0, _dist(3))
        c.put("g", 1, _dist(3))
        c.put("g", 2, _dist(3))  # evicts source 0
        assert c.peek("g", 0) is None
        assert c.peek("g", 1) is not None
        assert c.evictions == 1

    def test_hit_refreshes_lru_position(self):
        c = DistanceCache(2)
        c.put("g", 0, _dist(3))
        c.put("g", 1, _dist(3))
        c.get("g", 0)  # 0 becomes most-recent
        c.put("g", 2, _dist(3))  # so 1 is evicted, not 0
        assert c.peek("g", 0) is not None
        assert c.peek("g", 1) is None

    def test_reput_refreshes_not_duplicates(self):
        c = DistanceCache(2)
        c.put("g", 0, _dist(3))
        c.put("g", 0, _dist(3, offset=1))
        assert len(c) == 1
        assert np.array_equal(c.peek("g", 0), _dist(3, offset=1))

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            DistanceCache(0)


class TestInvalidate:
    def test_invalidate_drops_only_that_graph(self):
        c = DistanceCache(8)
        c.put("a", 0, _dist(3))
        c.put("a", 1, _dist(3))
        c.put("b", 0, _dist(3))
        assert c.invalidate("a") == 2
        assert c.peek("a", 0) is None and c.peek("a", 1) is None
        assert c.peek("b", 0) is not None
        assert c.invalidated == 2

    def test_invalidate_unknown_graph_is_noop(self):
        c = DistanceCache(8)
        assert c.invalidate("nope") == 0

    def test_invalidation_not_counted_as_eviction(self):
        c = DistanceCache(8)
        c.put("a", 0, _dist(3))
        c.invalidate("a")
        assert c.evictions == 0

    def test_stats_shape(self):
        c = DistanceCache(8)
        c.put("a", 0, _dist(3))
        c.get("a", 0)
        c.get("a", 1)
        s = c.stats()
        assert s["entries"] == 1
        assert s["lookup_hits"] == 1 and s["lookup_misses"] == 1
        assert s["hit_rate"] == 0.5
