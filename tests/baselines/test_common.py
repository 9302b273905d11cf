"""Tests for the shared result type and solver registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.common import (
    SOLVERS,
    SSSPResult,
    get_solver,
    init_distances,
    register_solver,
)
from repro.errors import SolverError


class TestRegistry:
    def test_all_seven_solvers_registered(self):
        import repro.core  # noqa: F401 - registers adds

        expected = {"adds", "nf", "gun-nf", "gun-bf", "nv", "cpu-ds", "dijkstra"}
        assert expected.issubset(SOLVERS.keys())

    def test_get_solver_unknown(self):
        with pytest.raises(SolverError, match="unknown solver"):
            get_solver("quantum-sssp")

    def test_get_solver_returns_callable(self):
        assert callable(get_solver("dijkstra").fn)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(SolverError, match="duplicate"):
            register_solver("dijkstra")(lambda g, s: None)


class TestInitDistances:
    def test_source_zero_rest_inf(self):
        d = init_distances(4, 1)
        assert d[1] == 0.0
        assert np.isinf(d[[0, 2, 3]]).all()

    def test_bad_source(self):
        with pytest.raises(SolverError):
            init_distances(3, 3)
        with pytest.raises(SolverError):
            init_distances(3, -1)


class TestSSSPResult:
    def make(self, work=10):
        return SSSPResult(
            solver="x",
            graph_name="g",
            source=0,
            dist=np.array([0.0, 2.0, np.inf]),
            work_count=work,
            time_us=1500.0,
        )

    def test_reached_counts_finite(self):
        assert self.make().reached() == 2

    def test_result_line_format(self):
        """The artifact's 'graph run_time work_count' line (seconds)."""
        line = self.make(7).result_line()
        name, t, w = line.split()
        assert name == "g"
        assert float(t) == pytest.approx(1500.0 / 1e6)
        assert int(w) == 7
