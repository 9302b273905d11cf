"""NV stand-in: float32 internals, setup charge, opaque work counts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import solve_gun_bf, solve_nv
from repro.baselines.nvgraph import NV_SETUP_US


class TestFloatInternals:
    def test_distances_are_float32_rounded(self, small_road):
        r = solve_nv(small_road, 0)
        finite = r.dist[np.isfinite(r.dist)]
        assert np.array_equal(finite, finite.astype(np.float32).astype(np.float64))

    def test_graph_name_preserved_for_int_input(self, small_road):
        r = solve_nv(small_road, 0)
        assert r.graph_name == small_road.name


class TestOverheads:
    def test_setup_charge_included(self, tiny_graph):
        r = solve_nv(tiny_graph, 0)
        assert r.time_us >= NV_SETUP_US

    def test_slowest_gpu_baseline(self, small_road):
        """The paper's ordering: NV is the weakest GPU implementation."""
        nv = solve_nv(small_road, 0)
        bf = solve_gun_bf(small_road, 0)
        assert nv.time_us > bf.time_us


class TestOpaqueness:
    def test_work_count_not_publicly_reported(self, small_road):
        """Table 4 has no NV row: 'without the source code, we cannot
        obtain this metric'."""
        r = solve_nv(small_road, 0)
        assert "work_count_public" not in r.stats
