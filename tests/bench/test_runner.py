"""BENCH_*.json schema, round-trip, and determinism of the pinned matrix."""

from __future__ import annotations

import json

import pytest

from repro.baselines.common import RESULT_SCHEMA_VERSION, get_solver
from repro.bench import (
    BENCH_SCHEMA_VERSION,
    load_report,
    matrix_entries,
    matrix_solvers,
    run_bench,
    write_report,
)
from repro.bench.matrix import MATRICES
from repro.errors import ReproError
from repro.validation import assert_results_match

from tests.bench.conftest import TINY_MATRIX, TINY_NAME

CELL_FIELDS = {
    "graph", "category", "solver", "source", "wall_s", "wall_s_runs",
    "time_us", "cycles", "work_count", "reached", "n_vertices",
    "dist_sha256", "peak_rss_kb", "atomics", "fences",
}


class TestSchema:
    def test_payload_is_schema_versioned(self, tiny_report):
        payload = tiny_report.to_json_dict()
        assert payload["schema"] == RESULT_SCHEMA_VERSION
        assert payload["bench_schema"] == BENCH_SCHEMA_VERSION
        assert payload["tag"] == "seed"
        assert payload["matrix"] == TINY_NAME
        assert payload["repeats"] == 2
        assert payload["totals"]["wall_s"] == pytest.approx(
            sum(c["wall_s"] for c in payload["cells"])
        )

    def test_cell_fields_complete(self, tiny_report):
        payload = tiny_report.to_json_dict()
        assert len(payload["cells"]) == 2  # 1 graph x 2 solvers
        for cell in payload["cells"]:
            assert set(cell) == CELL_FIELDS
            assert cell["wall_s"] == min(cell["wall_s_runs"])
            assert len(cell["wall_s_runs"]) == 2
            assert len(cell["dist_sha256"]) == 64
            assert cell["n_vertices"] == 144

    def test_write_and_load_round_trip(self, tiny_report, tmp_path):
        path = write_report(tiny_report, tmp_path)
        assert path.name == "BENCH_seed.json"
        payload = load_report(path)
        assert payload == tiny_report.to_json_dict()

    def test_load_rejects_foreign_json(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ReproError, match="not a bench report"):
            load_report(p)

    def test_load_rejects_future_schema(self, tiny_report, tmp_path):
        payload = tiny_report.to_json_dict()
        payload["bench_schema"] = BENCH_SCHEMA_VERSION + 1
        p = tmp_path / "BENCH_future.json"
        p.write_text(json.dumps(payload))
        with pytest.raises(ReproError, match="schema"):
            load_report(p)


class TestPeakRss:
    """ru_maxrss has no portable unit; the report must pin one."""

    def test_linux_kib_passthrough(self):
        from repro.bench.runner import _peak_rss_kb

        assert _peak_rss_kb(getrusage=lambda: 4096, sys_platform="linux") == 4096

    def test_darwin_bytes_normalized(self):
        from repro.bench.runner import _peak_rss_kb

        assert (
            _peak_rss_kb(getrusage=lambda: 4096 * 1024, sys_platform="darwin")
            == 4096
        )

    def test_monkeypatched_getrusage(self, monkeypatch):
        import resource

        from repro.bench.runner import _peak_rss_kb

        class FakeUsage:
            ru_maxrss = 12345

        monkeypatch.setattr(resource, "getrusage", lambda who: FakeUsage())
        assert _peak_rss_kb(sys_platform="linux") == 12345
        assert _peak_rss_kb(sys_platform="darwin") == 12345 // 1024

    def test_report_records_rss_unit(self, tiny_report):
        from repro.bench.runner import RSS_UNIT

        payload = tiny_report.to_json_dict()
        assert payload["host"]["rss_unit"] == RSS_UNIT == "KiB"


class TestMatrices:
    def test_pinned_matrices_exist(self):
        assert set(matrix_solvers("small")) == {"adds", "nf"}
        assert len(matrix_entries("small")) == 3
        assert len(matrix_entries("medium")) == 6

    def test_unknown_matrix_rejected(self):
        with pytest.raises(ReproError, match="unknown bench matrix"):
            matrix_entries("nope")

    def test_bad_repeats_rejected(self, tiny_matrix):
        with pytest.raises(ReproError, match="repeats"):
            run_bench(tiny_matrix, repeats=0)

    def test_failing_run_is_not_retried(self, tmp_path):
        """A cell whose first run fails fails the bench, even though a
        retry (``eng-flaky`` passes once its latch exists) would pass."""
        from repro.engine import testing

        testing.register()
        MATRICES[TINY_NAME] = (("eng-flaky",), TINY_MATRIX[1])
        try:
            with pytest.raises(ReproError, match="failed on run 1"):
                run_bench(TINY_NAME, repeats=1,
                          options={"latch": str(tmp_path / "latch")})
        finally:
            MATRICES.pop(TINY_NAME, None)
            testing.unregister()


class TestDeterminism:
    def test_rerun_reproduces_simulated_outputs(self, tiny_report, tiny_matrix):
        """Two independent bench runs of a pinned matrix agree on every
        simulated metric (wall-clock may differ; that is the point)."""
        again = run_bench(tiny_matrix, tag="again", repeats=1)
        for cell in tiny_report.cells:
            other = again.cell(cell.graph, cell.solver)
            assert other.time_us == cell.time_us
            assert other.work_count == cell.work_count
            assert other.dist_sha256 == cell.dist_sha256
            assert other.atomics == cell.atomics
            assert other.fences == cell.fences

    def test_solver_results_match_across_runs(self):
        """The harness invariant at the result level: identical distances
        and metric equality for repeated solves of a pinned cell."""
        _, entries = TINY_MATRIX
        _, _, spec = entries[0]
        graph = spec.build()
        fn = get_solver("adds").fn
        a = fn(graph, source=0)
        b = fn(graph, source=0)
        assert_results_match(a, b)
        assert a.work_count == b.work_count
        assert a.time_us == b.time_us
