"""Targeted scheduler tests: MTB/WTB behaviours observed through small,
fully controlled ADDS runs (chunking, assignment priority, termination,
allocator interplay, stats plumbing)."""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.adds as adds_mod
from repro.core import AddsConfig, delta_controller, mtb, solve_adds
from repro.errors import AllocationError
from repro.graphs import clique_chain, from_edge_list, grid_road


def run_with_device(graph, config=None, **kw):
    """solve_adds but also returns the Device for inspection; its
    ``contexts`` are the BlockContexts ``add_block`` returned."""
    captured = {}
    orig = adds_mod.Device

    class Capturing(orig):
        def __init__(self, *a, **k):
            super().__init__(*a, **k)
            self.contexts = []
            captured["device"] = self

        def add_block(self, name, program):
            ctx = super().add_block(name, program)
            self.contexts.append(ctx)
            return ctx

    adds_mod.Device = Capturing
    try:
        result = solve_adds(graph, 0, config=config, **kw)
    finally:
        adds_mod.Device = orig
    return result, captured["device"]


class TestChunkSizing:
    def test_edge_budget_chunks_beat_item_chunks_on_dense_graphs(self):
        """High-degree graphs must get small item chunks so bursts spread
        over many WTBs; forcing whole-burst assignments (huge edge budget)
        hands the device to a single 256-thread block and slows down."""
        dense = clique_chain(8, 40, seed=1)  # degree ~39
        budgeted = solve_adds(dense, 0)
        monolithic = solve_adds(
            dense, 0,
            config=AddsConfig(target_chunk_edges=10**6, max_chunk=256),
        )
        assert monolithic.time_us > budgeted.time_us

    def test_explicit_chunk_target(self):
        g = grid_road(20, 15, seed=1)
        r = solve_adds(g, 0, config=AddsConfig(target_chunk_edges=8, max_chunk=4))
        assert r.work_count > 0  # tiny chunks still terminate correctly


class TestTermination:
    def test_all_blocks_finish(self):
        g = grid_road(12, 10, seed=2)
        _, dev = run_with_device(g)
        assert dev.contexts and all(b.finished for b in dev.contexts)

    def test_single_vertex(self):
        g = from_edge_list(1, [])
        r = solve_adds(g, 0)
        assert r.dist[0] == 0.0 and r.work_count == 1

    def test_no_outgoing_edges_from_source(self):
        g = from_edge_list(3, [(1, 2, 5)])
        r = solve_adds(g, 0)
        assert r.dist[0] == 0.0
        assert np.isinf(r.dist[1]) and np.isinf(r.dist[2])

    def test_termination_sweeps_config(self, monkeypatch):
        g = grid_road(8, 8, seed=3)
        monkeypatch.setattr(mtb, "TERMINATION_SWEEPS", 1)
        fast = solve_adds(g, 0)
        monkeypatch.setattr(mtb, "TERMINATION_SWEEPS", 5)
        slow = solve_adds(g, 0)
        np.testing.assert_array_equal(fast.dist, slow.dist)
        assert slow.time_us >= fast.time_us  # extra idle sweeps cost time


class TestWorkerCounts:
    @pytest.mark.parametrize("n_wtbs", [1, 2, 7, 15])
    def test_any_worker_count_correct(self, n_wtbs, oracle):
        g = grid_road(14, 11, seed=4)
        r = solve_adds(g, 0, config=AddsConfig(n_wtbs=n_wtbs))
        np.testing.assert_allclose(r.dist, oracle(g, 0))

    def test_single_worker_is_slowest(self):
        g = grid_road(25, 20, seed=5)
        one = solve_adds(g, 0, config=AddsConfig(n_wtbs=1))
        many = solve_adds(g, 0, config=AddsConfig(n_wtbs=15))
        assert one.time_us > many.time_us


class TestAllocatorInterplay:
    def test_small_blocks_force_allocator_traffic(self, oracle):
        """Tiny blocks make buckets span many blocks; the MTB must grow
        and retire them continuously without any protocol violation."""
        g = grid_road(20, 16, seed=6)
        cfg = AddsConfig(slots_per_block=64, segment_size=16, pool_blocks=256)
        r = solve_adds(g, 0, config=cfg)
        np.testing.assert_allclose(r.dist, oracle(g, 0))
        assert r.stats["pool_high_water"] > 4  # allocator genuinely cycled

    def test_pool_exhaustion_is_loud(self):
        g = clique_chain(6, 25, seed=7)
        cfg = AddsConfig(slots_per_block=32, segment_size=16, pool_blocks=33)
        with pytest.raises(AllocationError):
            solve_adds(g, 0, config=cfg)

    def test_blocks_recycled_through_pool(self):
        g = grid_road(24, 18, seed=8)
        cfg = AddsConfig(slots_per_block=128, segment_size=32, pool_blocks=512)
        r = solve_adds(g, 0, config=cfg)
        # high water far below total pushes / slots_per_block implies reuse
        blocks_if_never_freed = r.stats["total_pushed"] / cfg.slots_per_block
        assert r.stats["pool_high_water"] < blocks_if_never_freed + 3 * cfg.n_buckets


class TestPriorityOrder:
    def test_head_bucket_assigned_first(self):
        """With one worker and one active bucket, items must be consumed
        in band order — verify via monotone non-decreasing processed
        distances on a path graph where order is fully determined."""
        edges = [(i, i + 1, 10) for i in range(30)]
        g = from_edge_list(31, edges)
        cfg = AddsConfig(
            n_wtbs=1, min_active_buckets=1, max_active_buckets=1,
            dynamic_delta=False,
        )
        r = solve_adds(g, 0, config=cfg, delta=10.0)
        # exactly one expansion per vertex: band order == priority order
        assert r.work_count == 31

    def test_rotations_track_band_progress(self):
        edges = [(i, i + 1, 10) for i in range(64)]
        g = from_edge_list(65, edges)
        cfg = AddsConfig(dynamic_delta=False, n_wtbs=2)
        r = solve_adds(g, 0, config=cfg, delta=10.0)
        # distance range 640 over delta 10 = 64 bands; 32 fit in the
        # window, the rest need rotations
        assert r.stats["rotations"] >= 64 - 32


class TestStatsPlumbing:
    def test_delta_trace_times_monotone(self, monkeypatch):
        monkeypatch.setattr(delta_controller, "WARMUP_PASSES", 5)
        monkeypatch.setattr(delta_controller, "SETTLE_PASSES", 5)
        g = grid_road(30, 20, seed=9)
        r = solve_adds(g, 0)
        times = [t for t, _ in r.stats["delta_trace"]]
        assert times == sorted(times)

    def test_outstanding_edges_settles_to_zero(self):
        g = grid_road(15, 15, seed=11)
        captured = {}
        orig = adds_mod.AddsState

        class Capturing(orig):
            def __init__(self, *a, **k):
                super().__init__(*a, **k)
                captured["state"] = self

        adds_mod.AddsState = Capturing
        try:
            solve_adds(g, 0)
        finally:
            adds_mod.AddsState = orig
        assert captured["state"].outstanding_edges == pytest.approx(0.0)
