"""Dijkstra-specific behaviour: work optimality, heap accounting, timing,
and exactness against the NumPy-indexed reference loop."""

from __future__ import annotations

import heapq

import numpy as np
import pytest

from repro.baselines import solve_dijkstra
from repro.baselines.common import init_distances, init_tree, resolve_sources
from repro.dynamic import EdgeUpdate, apply_updates
from repro.dynamic.frontier import incremental_seed
from repro.gpu.costmodel import CpuCostModel
from repro.gpu.specs import CPU_I9_7900X
from repro.graphs import grid_road, rmat, update_stream


class TestWorkOptimality:
    def test_each_reachable_vertex_expanded_once(self, small_road):
        r = solve_dijkstra(small_road, 0)
        assert r.work_count == small_road.num_vertices  # connected graph

    def test_unreachable_not_expanded(self, disconnected_graph):
        r = solve_dijkstra(disconnected_graph, 0)
        assert r.work_count == 3

    def test_lowest_work_of_all_solvers(self, small_mesh):
        from repro.baselines import solve_gun_bf, solve_nf

        dij = solve_dijkstra(small_mesh, 0)
        assert dij.work_count <= solve_nf(small_mesh, 0).work_count
        assert dij.work_count <= solve_gun_bf(small_mesh, 0).work_count


class TestStats:
    def test_stale_pops_accounted(self, small_rmat):
        r = solve_dijkstra(small_rmat, 0)
        assert r.stats["stale_pops"] >= 0
        assert r.stats["heap_ops"] > r.work_count
        assert r.stats["edges_relaxed"] > 0

    def test_line_graph_exact_counts(self, line_graph):
        r = solve_dijkstra(line_graph, 0)
        assert r.work_count == 6
        assert r.stats["edges_relaxed"] == 5
        assert r.stats["stale_pops"] == 0


class TestTiming:
    def test_time_scales_with_size(self):
        from repro.graphs import grid_road

        small = solve_dijkstra(grid_road(10, 10, seed=1), 0)
        large = solve_dijkstra(grid_road(40, 40, seed=1), 0)
        assert large.time_us > small.time_us * 4

    def test_custom_cost_model(self, small_road):
        slow = CpuCostModel(CPU_I9_7900X).with_overrides(edge_ns=1000.0)
        fast = CpuCostModel(CPU_I9_7900X)
        r_slow = solve_dijkstra(small_road, 0, cost=slow)
        r_fast = solve_dijkstra(small_road, 0, cost=fast)
        assert r_slow.time_us > r_fast.time_us
        assert r_slow.work_count == r_fast.work_count  # timing only

    def test_deterministic(self, small_rmat):
        a = solve_dijkstra(small_rmat, 0)
        b = solve_dijkstra(small_rmat, 0)
        assert a.time_us == b.time_us
        assert a.work_count == b.work_count


def _reference_dijkstra(graph, source, sources=None, warm_from=None, updates=None):
    """The lazy-deletion loop indexing NumPy arrays per edge: the
    reference the solver's memoryview loop must match exactly."""
    n = graph.num_vertices
    srcs = resolve_sources(n, source, sources)
    if warm_from is not None:
        dist, frontier, frontier_dists, _ = incremental_seed(
            graph, warm_from, updates, source, sources
        )
        heap = [(float(d), int(v)) for d, v in zip(frontier_dists, frontier)]
        heapq.heapify(heap)
    else:
        dist = init_distances(n, source, sources)
        heap = [(0.0, int(s)) for s in srcs]
    pred = init_tree(n)
    row, cols, wts = graph.row_offsets, graph.col_indices, graph.weights
    heap_ops = len(heap)
    pops = expanded = edges_relaxed = 0
    while heap:
        d, v = heapq.heappop(heap)
        heap_ops += 1
        pops += 1
        if d > dist[v]:
            continue
        expanded += 1
        for i in range(int(row[v]), int(row[v + 1])):
            u = int(cols[i])
            nd = d + float(wts[i])
            edges_relaxed += 1
            if nd < dist[u]:
                dist[u] = nd
                pred[u] = v
                heapq.heappush(heap, (nd, u))
                heap_ops += 1
    return {
        "dist": dist.tobytes(),
        "predecessors": pred.tolist(),
        "heap_ops": heap_ops,
        "stale_pops": pops - expanded,
        "edges_relaxed": edges_relaxed,
        "work_count": expanded,
        "time_us": CpuCostModel(CPU_I9_7900X).dijkstra_us(
            edges_relaxed, heap_ops, n
        ),
    }


def _observed(r):
    assert r.dist.dtype == np.float64 and r.predecessors.dtype == np.int64
    return {
        "dist": r.dist.tobytes(),
        "predecessors": r.predecessors.tolist(),
        "heap_ops": r.stats["heap_ops"],
        "stale_pops": r.stats["stale_pops"],
        "edges_relaxed": r.stats["edges_relaxed"],
        "work_count": r.work_count,
        "time_us": r.time_us,
    }


_GRAPHS = {
    "road-int": lambda: grid_road(12, 10, seed=3),
    "road-float": lambda: grid_road(12, 10, seed=3).as_float(),
    "rmat-int": lambda: rmat(8, edge_factor=8, seed=5),
    "rmat-float": lambda: rmat(8, edge_factor=8, seed=5).as_float(),
}


class TestMatchesReferenceLoop:
    @pytest.mark.parametrize("name", sorted(_GRAPHS))
    def test_single_and_multi_source(self, name):
        g = _GRAPHS[name]()
        for source, sources in ((0, None), (40, None), (40, [0, 17, 40])):
            assert _observed(
                solve_dijkstra(g, source, sources=sources)
            ) == _reference_dijkstra(g, source, sources)

    @pytest.mark.parametrize("name", sorted(_GRAPHS))
    @pytest.mark.parametrize("topology", [False, True], ids=["weights", "topology"])
    def test_warm_after_batch(self, name, topology):
        g = _GRAPHS[name]()
        p = 0.5 if topology else 0.0
        (batch,) = update_stream(
            g, batches=1, batch_size=12, seed=9, p_insert=p, p_delete=p
        )
        assert batch.topology_changing == topology
        sources = [0, 17]
        before = solve_dijkstra(g, 0, sources=sources).dist
        res = apply_updates(g, batch)
        warm = solve_dijkstra(
            res.graph, 0, sources=sources, warm_from=before, updates=res.deltas
        )
        assert warm.stats["warm_start"]
        assert _observed(warm) == _reference_dijkstra(
            res.graph, 0, sources, warm_from=before, updates=res.deltas
        )

    def test_weight_patch_seen_without_re_preparing(self, line_graph):
        g = line_graph
        assert solve_dijkstra(g, 0).dist.tolist() == [0, 1, 2, 3, 4, 5]
        apply_updates(g, [EdgeUpdate("increase", 4, 5, 101)])
        assert solve_dijkstra(g, 0).dist.tolist() == [0, 1, 2, 3, 4, 105]
