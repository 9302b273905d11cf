"""Gun-BF specifics: unordered worklist costs, BSP supersteps."""

from __future__ import annotations

import pytest

from repro.baselines import solve_gun_bf, solve_dijkstra, solve_nf


class TestRedundantWork:
    def test_never_less_work_than_dijkstra(self, small_mesh):
        bf = solve_gun_bf(small_mesh, 0)
        dij = solve_dijkstra(small_mesh, 0)
        assert bf.work_count >= dij.work_count

    def test_high_diameter_graphs_suffer(self, small_mesh, small_gnm):
        """§3.1: ordering matters most for high-diameter graphs; the
        work blow-up of BF relative to Dijkstra must be far larger on the
        mesh than on the low-diameter random graph."""
        mesh_ratio = (
            solve_gun_bf(small_mesh, 0).work_count
            / solve_dijkstra(small_mesh, 0).work_count
        )
        gnm_ratio = (
            solve_gun_bf(small_gnm, 0).work_count
            / solve_dijkstra(small_gnm, 0).work_count
        )
        assert mesh_ratio > 3 * gnm_ratio

    def test_ordered_nf_beats_bf_on_work(self, small_mesh):
        assert (
            solve_nf(small_mesh, 0).work_count
            < solve_gun_bf(small_mesh, 0).work_count
        )


class TestSupersteps:
    def test_superstep_count_at_most_hop_depth_plus_margin(self, line_graph):
        r = solve_gun_bf(line_graph, 0)
        # a path graph needs exactly one superstep per hop (+ final empty)
        assert r.stats["supersteps"] == pytest.approx(6, abs=1)

    def test_supersteps_bounded_by_diameter_like_quantity(self, small_gnm):
        from repro.graphs import pseudo_diameter

        r = solve_gun_bf(small_gnm, 0)
        d = pseudo_diameter(small_gnm, 0)
        # BF frontier advances >= one hop per superstep, but distance
        # corrections can add extra rounds; 4x hop-diameter is generous
        assert r.stats["supersteps"] <= 4 * (d + 2)

    def test_timeline_peak_at_most_total_edges(self, small_rmat):
        r = solve_gun_bf(small_rmat, 0)
        assert max(r.timeline.series()[1]) <= small_rmat.num_edges
