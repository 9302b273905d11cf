"""Tests for the run_all-style experiment driver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import bin_ratios
from repro.baselines.common import SSSPResult
from repro.errors import SolverError
from repro.graphs import build_suite
from repro.graphs.suite import SuiteEntry
from repro.graphs.generators import grid_road
from repro.harness import RunRecord, run_suite, write_result_files


@pytest.fixture
def tiny_suite():
    return [
        SuiteEntry(name="r1", category="road", factory=lambda: grid_road(8, 6, seed=1)),
        SuiteEntry(name="r2", category="road", factory=lambda: grid_road(10, 5, seed=2)),
    ]


class TestRunSuite:
    def test_records_per_graph(self, tiny_suite):
        run = run_suite(solvers=("adds", "nf"), suite=tiny_suite)
        assert len(run.records) == 2
        assert set(run.records[0].results) == {"adds", "nf"}

    def test_verification_clean(self, tiny_suite):
        run = run_suite(solvers=("adds", "nf", "dijkstra"), suite=tiny_suite)
        assert run.verification_failures == []

    def test_unknown_solver_fails_fast(self, tiny_suite):
        with pytest.raises(SolverError):
            run_suite(solvers=("quantum",), suite=tiny_suite)

    def test_speedups_and_distribution(self, tiny_suite):
        run = run_suite(solvers=("adds", "nf"), suite=tiny_suite)
        sp = run.speedups("adds", "nf")
        assert len(sp) == 2 and all(s > 0 for s in sp)
        assert bin_ratios(sp, label="NF").total == 2

    def test_work_ratio_convention(self, tiny_suite):
        """Table 4 reports ADDS's vertex count normalized to the baseline:
        a value < 1 means ADDS processed fewer vertices."""
        run = run_suite(solvers=("adds", "nf"), suite=tiny_suite)
        (rec,) = run.records[:1]
        expected = (
            rec.results["adds"].work_count / rec.results["nf"].work_count
        )
        assert run.work_ratios("adds", "nf")[0] == pytest.approx(expected)

    def test_solver_options_forwarded(self, tiny_suite):
        from repro.core import AddsConfig

        run = run_suite(
            solvers=("adds",),
            suite=tiny_suite,
            options={"config": AddsConfig(n_wtbs=2)},
        )
        assert run.records[0].results["adds"].stats["n_wtbs"] == 2

    def test_progress_callback(self, tiny_suite):
        seen = []
        run_suite(solvers=("nf",), suite=tiny_suite, progress=seen.append)
        assert len(seen) == 2

    def test_ratio_unknown_metric(self, tiny_suite):
        run = run_suite(solvers=("adds", "nf"), suite=tiny_suite)
        with pytest.raises(SolverError):
            run.records[0].ratio("energy", "adds", "nf")

    def test_clean_sweep_has_no_failures(self, tiny_suite):
        run = run_suite(solvers=("adds", "nf"), suite=tiny_suite)
        assert run.failures == []
        assert run.resumed == 0


def _fake_result(solver, time_us, work_count):
    return SSSPResult(
        solver=solver, graph_name="g", source=0,
        dist=np.zeros(4), work_count=work_count, time_us=time_us,
    )


class TestRatioValidation:
    """A zero-time/zero-work operand must raise, never be clamped into a
    fabricated ratio that silently poisons downstream means."""

    def _record(self, a, b):
        return RunRecord(graph="g", category="road", results={"a": a, "b": b})

    def test_zero_time_raises(self):
        rec = self._record(_fake_result("a", 0.0, 5), _fake_result("b", 3.0, 5))
        with pytest.raises(SolverError, match="time ratio"):
            rec.ratio("time", "a", "b")

    def test_zero_work_raises(self):
        rec = self._record(_fake_result("a", 2.0, 0), _fake_result("b", 3.0, 5))
        with pytest.raises(SolverError, match="work ratio"):
            rec.ratio("work", "a", "b")

    def test_valid_ratio_unclamped(self):
        rec = self._record(_fake_result("a", 2.0, 4), _fake_result("b", 3.0, 8))
        assert rec.ratio("time", "a", "b") == pytest.approx(1.5)
        assert rec.ratio("work", "a", "b") == pytest.approx(2.0)

    def test_default_suite_is_corpus(self):
        assert len(build_suite()) >= 40  # run_suite defaults to this


class TestResultFiles:
    def test_artifact_format(self, tiny_suite, tmp_path):
        run = run_suite(solvers=("adds", "nf"), suite=tiny_suite)
        paths = write_result_files(run, tmp_path)
        assert sorted(p.name for p in paths) == ["adds_result", "nf_result"]
        lines = (tmp_path / "adds_result").read_text().strip().split("\n")
        assert len(lines) == 2
        name, t, w = lines[0].split()
        assert name == "r1"
        assert float(t) > 0 and int(w) > 0
