"""CPU-DS specifics: bucket ordering, rounds, multicore timing."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.baselines import solve_cpu_ds, solve_dijkstra
from repro.errors import SolverError
from repro.gpu.costmodel import CpuCostModel
from repro.gpu.specs import CPU_I9_7900X, CpuSpec
from repro.graphs import grid_road


class TestOrdering:
    def test_fine_buckets_near_optimal_work(self, small_road):
        """Real delta-stepping with unbounded fine buckets should stay
        close to Dijkstra's work on ordering-sensitive graphs."""
        ds = solve_cpu_ds(small_road, 0, delta=16.0)
        dij = solve_dijkstra(small_road, 0)
        assert ds.work_count <= 1.6 * dij.work_count

    def test_coarse_delta_more_work(self, small_mesh):
        fine = solve_cpu_ds(small_mesh, 0, delta=4.0)
        coarse = solve_cpu_ds(small_mesh, 0, delta=1e9)
        assert coarse.work_count >= fine.work_count

    def test_no_clipping_ever(self, small_mesh):
        """Unlike ADDS's 32-bucket window, CPU-DS buckets are unbounded —
        any delta yields exact results with bounded redundancy."""
        r = solve_cpu_ds(small_mesh, 0, delta=0.5)
        dij = solve_dijkstra(small_mesh, 0)
        np.testing.assert_allclose(r.dist, dij.dist)


class TestRounds:
    def test_rounds_reported(self, small_road):
        r = solve_cpu_ds(small_road, 0)
        assert r.stats["rounds"] >= 1

    def test_inner_rounds_for_intra_bucket_chains(self, oracle):
        """A chain of tiny edges inside one bucket forces multiple inner
        rounds (the Meyer-Sanders light-edge loop)."""
        from repro.graphs import from_edge_list

        edges = [(i, i + 1, 1) for i in range(10)]
        g = from_edge_list(11, edges)
        r = solve_cpu_ds(g, 0, delta=100.0)
        assert r.stats["rounds"] >= 10  # one hop resolves per round

    def test_invalid_delta(self, small_road):
        with pytest.raises(SolverError):
            solve_cpu_ds(small_road, 0, delta=-1)

    def test_tiny_delta_bucket_ids_stay_defined(self):
        """With Δ = 1e-300 the bucket ids ``floor(d / Δ)`` exceed int64;
        the solve must stay exact and emit no cast warning."""
        g = grid_road(20, 20, max_weight=8192, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = solve_cpu_ds(g, 0, delta=1e-300)
        np.testing.assert_array_equal(r.dist, solve_dijkstra(g, 0).dist)


class TestTiming:
    def test_sync_overhead_per_round(self, line_graph):
        cost = CpuCostModel(CPU_I9_7900X)
        r = solve_cpu_ds(line_graph, 0, delta=1.0)
        assert r.time_us >= r.stats["rounds"] * cost.round_sync_us * 0.99

    def test_more_threads_faster_on_parallel_work(self, small_gnm):
        one_core = CpuCostModel(CpuSpec(name="uni", cores=1, threads=1, clock_ghz=3.3))
        many = CpuCostModel(CPU_I9_7900X)
        slow = solve_cpu_ds(small_gnm, 0, cost=one_core)
        fast = solve_cpu_ds(small_gnm, 0, cost=many)
        assert slow.time_us > fast.time_us
        assert slow.work_count == fast.work_count
