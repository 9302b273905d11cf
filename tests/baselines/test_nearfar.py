"""Near-Far specifics: dedup filter, far splits, delta sensitivity, BSP cost."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import davidson_delta, solve_dijkstra, solve_gun_nf, solve_nf
from repro.errors import SolverError
from repro.graphs import grid_road


class TestDeltaBehaviour:
    def test_huge_delta_degenerates_to_bellman_ford(self, small_mesh):
        """With Δ ≥ the whole distance range, Near-Far *is* Bellman-Ford."""
        from repro.baselines import solve_gun_bf

        nf = solve_nf(small_mesh, 0, delta=1e12)
        bf = solve_gun_bf(small_mesh, 0)
        assert nf.work_count == bf.work_count

    def test_small_delta_improves_work(self, small_mesh):
        h = davidson_delta(small_mesh)
        coarse = solve_nf(small_mesh, 0, delta=h * 64)
        fine = solve_nf(small_mesh, 0, delta=max(1.0, h / 8))
        assert fine.work_count < coarse.work_count

    def test_small_delta_more_supersteps(self, small_road):
        h = davidson_delta(small_road)
        coarse = solve_nf(small_road, 0, delta=h)
        fine = solve_nf(small_road, 0, delta=max(1.0, h / 16))
        assert fine.stats["supersteps"] > coarse.stats["supersteps"]

    def test_invalid_delta(self, small_road):
        with pytest.raises(SolverError):
            solve_nf(small_road, 0, delta=0)

    @pytest.mark.parametrize("solve", [solve_nf, solve_gun_nf])
    def test_delta_below_distance_ulp(self, solve):
        """A Δ the distances' ULP absorbs must still move τ past the
        nearest far vertex, not loop until the superstep budget."""
        g = grid_road(20, 20, max_weight=8192, seed=1)
        r = solve(g, 0, delta=1e-12)
        np.testing.assert_array_equal(r.dist, solve_dijkstra(g, 0).dist)

    def test_default_delta_is_davidson(self, small_road):
        r = solve_nf(small_road, 0)
        assert r.stats["delta"] == pytest.approx(davidson_delta(small_road))


class TestDedupFilter:
    def test_nf_filters_gun_nf_does_not(self, small_mesh):
        """NF dedups the near pile each superstep; Gun-NF re-expands
        duplicates, so it can never do less work (§6.1.2 / §6.3)."""
        nf = solve_nf(small_mesh, 0)
        gun = solve_gun_nf(small_mesh, 0)
        assert gun.work_count >= nf.work_count

    def test_filter_counter_populated(self, small_cliques):
        nf = solve_nf(small_cliques, 0)
        assert nf.stats["duplicates_filtered"] >= 0
        gun = solve_gun_nf(small_cliques, 0)
        assert gun.stats["duplicates_filtered"] == 0


class TestGunrockOverhead:
    def test_gun_nf_slower_per_superstep(self, small_road):
        nf = solve_nf(small_road, 0)
        gun = solve_gun_nf(small_road, 0)
        # same delta, same algorithm minus the filter: Gunrock's framework
        # overhead must show up in time
        assert gun.time_us > nf.time_us


class TestFarSplits:
    def test_far_splits_happen_on_wide_range(self, small_road):
        r = solve_nf(small_road, 0)
        assert r.stats["far_splits"] >= 1

    def test_no_splits_when_delta_covers_range(self, small_road):
        r = solve_nf(small_road, 0, delta=1e12)
        assert r.stats["far_splits"] == 0

    def test_timeline_reflects_supersteps(self, small_road):
        r = solve_nf(small_road, 0)
        # two samples per superstep (start and end)
        assert len(r.timeline) >= r.stats["supersteps"]


class TestDistancesExact:
    def test_stale_far_entries_dropped_correctly(self, oracle):
        """A vertex that is improved into an earlier band after being
        pushed far must not lose its better distance at the far split."""
        from repro.graphs import from_edge_list

        # 0->1 long direct edge (pushed far), 0->2->1 short path that
        # overtakes it within the first band
        g = from_edge_list(4, [(0, 1, 100), (0, 2, 1), (2, 1, 2), (1, 3, 1)])
        r = solve_nf(g, 0, delta=10)
        assert r.dist[1] == 3
        assert r.dist[3] == 4
