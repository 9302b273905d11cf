"""Tests for the parallelism timeline."""

from __future__ import annotations

import pytest

from repro.gpu import Timeline


class TestRecord:
    def test_basic_series(self):
        tl = Timeline("x")
        tl.record(0.0, 10)
        tl.record(5.0, 20)
        ts, vs = tl.series()
        assert ts == (0.0, 5.0)
        assert vs == (10.0, 20.0)

    def test_same_time_overwrites(self):
        tl = Timeline()
        tl.record(1.0, 5)
        tl.record(1.0, 9)
        assert tl.series() == ((1.0,), (9.0,))

    def test_out_of_order_clamped(self):
        tl = Timeline()
        tl.record(10.0, 1)
        tl.record(4.0, 2)  # clamped to t=10
        ts, _ = tl.series()
        assert ts == (10.0,)

    def test_clamps_counted(self):
        tl = Timeline()
        assert tl.clamps == 0
        tl.record(10.0, 1)
        tl.record(4.0, 2)
        tl.record(3.0, 3)
        tl.record(11.0, 4)
        assert tl.clamps == 2

    def test_clamps_surface_in_solver_stats(self):
        from repro.baselines.nearfar import solve_nf
        from repro.graphs import grid_road

        result = solve_nf(grid_road(8, 8, seed=1), 0)
        assert "timeline_clamps" in result.stats
        assert result.stats["timeline_clamps"] == result.timeline.clamps

    def test_len_and_duration(self):
        tl = Timeline()
        assert len(tl) == 0 and tl.duration_us == 0.0
        tl.record(0, 1)
        tl.record(8, 0)
        assert len(tl) == 2 and tl.duration_us == 8.0


class TestQueries:
    def make(self):
        tl = Timeline()
        tl.record(0.0, 100)
        tl.record(10.0, 300)
        tl.record(20.0, 0)
        return tl

    def test_time_average(self):
        tl = self.make()
        # 100 for 10us, 300 for 10us → 200
        assert tl.time_average() == pytest.approx(200.0)

    def test_time_average_single_sample(self):
        tl = Timeline()
        tl.record(3.0, 42)
        assert tl.time_average() == 42.0

    def test_empty_average(self):
        assert Timeline().time_average() == 0.0

    def test_to_rows(self):
        assert self.make().to_rows() == [(0.0, 100.0), (10.0, 300.0), (20.0, 0.0)]
