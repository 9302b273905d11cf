"""Engine execution: parallel parity, failure paths, retry, resume."""

from __future__ import annotations

import numpy as np
import pytest

from repro.calibration import default_cost, default_gpu
from repro.engine import Cell, EngineConfig, ResultStore, plan_cells, run_cells
from repro.errors import EngineError
from repro.harness import run_suite

FAULT_MODULES = ("repro.engine.testing",)


def _plan(suite, solvers, config, **kw):
    return plan_cells(suite, solvers, config=config, **kw)


class TestConfigValidation:
    def test_bad_jobs(self):
        with pytest.raises(EngineError):
            EngineConfig(jobs=0)

    def test_bad_attempts(self):
        with pytest.raises(EngineError):
            EngineConfig(max_attempts=0)

    def test_bad_timeout(self):
        with pytest.raises(EngineError):
            EngineConfig(timeout_s=-1.0)

    def test_resume_needs_store(self):
        with pytest.raises(EngineError):
            EngineConfig(resume=True)


class TestParallelParity:
    def test_jobs2_matches_serial(self, mini_suite):
        """The acceptance bar: a parallel sweep is bit-identical to the
        serial reference path, device solvers included."""
        spec = default_gpu()
        cost = default_cost(spec)

        def sweep(jobs):
            config = EngineConfig(jobs=jobs)
            cells = _plan(mini_suite, ("adds", "dijkstra"), config,
                          spec=spec, cost=cost)
            return run_cells(cells, config)

        serial, parallel = sweep(1), sweep(2)
        assert serial.failures == [] and parallel.failures == []
        assert set(serial.results) == set(parallel.results)
        for key, res in serial.results.items():
            other = parallel.results[key]
            assert np.array_equal(res.dist, other.dist)
            assert res.work_count == other.work_count
            assert res.time_us == other.time_us

    def test_run_suite_jobs2_matches_serial(self, mini_suite):
        a = run_suite(solvers=("adds", "nf"), suite=mini_suite, jobs=1)
        b = run_suite(solvers=("adds", "nf"), suite=mini_suite, jobs=2)
        assert [r.graph for r in a.records] == [r.graph for r in b.records]
        for ra, rb in zip(a.records, b.records):
            for name in ra.results:
                assert np.array_equal(ra.results[name].dist, rb.results[name].dist)
                assert ra.results[name].time_us == rb.results[name].time_us


class TestFailurePaths:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_crashing_cell_degrades_gracefully(self, mini_suite, fault_solvers, jobs):
        config = EngineConfig(jobs=jobs, max_attempts=2,
                              solver_modules=FAULT_MODULES)
        cells = _plan(mini_suite, ("eng-const", "eng-crash"), config)
        out = run_cells(cells, config)
        # the sweep completed: every good cell has a result...
        assert {k for k in out.results} == {
            (e.name, "eng-const") for e in mini_suite
        }
        # ...and every crashing cell is a structured record, not an abort
        assert len(out.failures) == len(mini_suite)
        for failed in out.failures:
            assert failed.kind == "error"
            assert failed.solver == "eng-crash"
            assert failed.attempts == 2
            assert "eng-crash" in failed.message

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_hanging_cell_times_out(self, mini_suite, fault_solvers, jobs):
        config = EngineConfig(jobs=jobs, timeout_s=0.2, max_attempts=1,
                              solver_modules=FAULT_MODULES)
        cells = _plan(mini_suite[:1], ("eng-hang",), config)
        out = run_cells(cells, config)
        assert out.results == {}
        (failed,) = out.failures
        assert failed.kind == "timeout"
        assert "0.2" in failed.message

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_flaky_cell_succeeds_on_retry(self, mini_suite, fault_solvers,
                                          tmp_path, jobs):
        latch = tmp_path / "latch"
        config = EngineConfig(jobs=jobs, max_attempts=2,
                              solver_modules=FAULT_MODULES)
        cells = _plan(mini_suite[:1], ("eng-flaky",), config,
                      options={"latch": str(latch)})
        out = run_cells(cells, config)
        assert out.failures == []
        assert len(out.results) == 1
        assert latch.exists()  # first attempt really did run and fail

    def test_unknown_solver_fails_fast(self, mini_suite):
        config = EngineConfig()
        cells = _plan(mini_suite, ("dijkstra",), config)
        bad = [Cell(graph_name="g", category="c", solver="quantum")]
        from repro.errors import SolverError

        with pytest.raises(SolverError):
            run_cells(cells + bad, config)


class TestResume:
    def test_interrupted_sweep_resumes(self, mini_suite, tmp_path):
        store_path = tmp_path / "sweep.jsonl"
        config = EngineConfig(store_path=store_path)
        cells = _plan(mini_suite, ("dijkstra",), config)

        # "interrupt" after the first cell: only run a prefix
        first = run_cells(cells[:1], config)
        assert len(first.results) == 1
        assert len(ResultStore(store_path).load()) == 1

        # resume the full sweep against the same store
        config2 = EngineConfig(store_path=store_path, resume=True)
        out = run_cells(cells, config2)
        assert out.resumed == 1
        assert len(out.results) == len(cells)

        # the restored result is the persisted one, bit-exact
        fresh = run_cells(cells[:1], EngineConfig())
        key = cells[0].key
        assert np.array_equal(out.results[key].dist, fresh.results[key].dist)

    def test_failed_cells_are_retried_on_resume(self, mini_suite, fault_solvers,
                                                tmp_path):
        store_path = tmp_path / "sweep.jsonl"
        latch = tmp_path / "latch"
        config = EngineConfig(store_path=store_path, max_attempts=1,
                              solver_modules=FAULT_MODULES)
        cells = _plan(mini_suite[:1], ("eng-flaky",), config,
                      options={"latch": str(latch)})
        first = run_cells(cells, config)
        assert len(first.failures) == 1  # one attempt, latch now set

        config2 = EngineConfig(store_path=store_path, resume=True,
                               max_attempts=1, solver_modules=FAULT_MODULES)
        out = run_cells(cells, config2)
        assert out.resumed == 0  # failures are not "completed": re-run
        assert out.failures == []
        assert len(out.results) == 1

    def test_fresh_run_truncates_store(self, mini_suite, tmp_path):
        store_path = tmp_path / "sweep.jsonl"
        config = EngineConfig(store_path=store_path)
        cells = _plan(mini_suite, ("dijkstra",), config)
        run_cells(cells, config)
        run_cells(cells[:1], EngineConfig(store_path=store_path))
        assert len(ResultStore(store_path).load()) == 1


class TestGraphTransport:
    def test_spec_cells_ship_no_arrays(self, mini_suite):
        config = EngineConfig()
        cells = _plan(mini_suite, ("dijkstra",), config)
        assert all(c.graph is None and c.graph_spec is not None for c in cells)

    def test_factory_cells_ship_arrays(self):
        from repro.graphs.generators import grid_road
        from repro.graphs.suite import SuiteEntry

        suite = [SuiteEntry(name="f", category="road",
                            factory=lambda: grid_road(6, 5, seed=1))]
        config = EngineConfig(jobs=2)
        cells = _plan(suite, ("dijkstra",), config)
        assert cells[0].graph is not None
        out = run_cells(cells, config)  # prebuilt arrays pickle to workers
        assert len(out.results) == 1

    def test_cache_dir_prewarms_and_serves_workers(self, mini_suite, tmp_path):
        config = EngineConfig(jobs=2, cache_dir=tmp_path / "gcache")
        cells = _plan(mini_suite, ("dijkstra",), config)
        assert all(c.cache_dir is not None for c in cells)
        from repro.engine import GraphCache

        assert len(GraphCache(tmp_path / "gcache")) == len(mini_suite)
        out = run_cells(cells, config)
        assert len(out.results) == len(cells)
        serial = run_cells(
            _plan(mini_suite, ("dijkstra",), EngineConfig()), EngineConfig()
        )
        for key, res in serial.results.items():
            assert np.array_equal(res.dist, out.results[key].dist)
