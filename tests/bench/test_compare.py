"""The --compare simulated-output gate, over hand-built payloads (no solves)."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.bench import compare_reports
from repro.bench.compare import WALL_NOTE
from repro.errors import ReproError


def payload(cells):
    """A minimal bench payload: cells = {(graph, solver): wall_s or dict}."""
    out = []
    for (graph, solver), spec in cells.items():
        cell = {
            "graph": graph,
            "solver": solver,
            "wall_s": spec if isinstance(spec, (int, float)) else spec["wall_s"],
            "work_count": 100,
            "time_us": 42.0,
            "dist_sha256": "a" * 64,
        }
        if isinstance(spec, dict):
            cell.update(spec)
        out.append(cell)
    return {"bench_schema": 1, "cells": out}


BASE = {("g1", "adds"): 1.0, ("g2", "adds"): 2.0}


class TestGate:
    def test_identical_ok(self):
        cmp = compare_reports(payload(BASE), payload(BASE))
        assert cmp.ok
        assert cmp.summary_lines()[-1] == "OK"
        assert not cmp.mismatches and not cmp.missing and not cmp.field_gaps

    def test_improvement_ok(self):
        cur = payload({("g1", "adds"): 0.5, ("g2", "adds"): 1.0})
        cmp = compare_reports(payload(BASE), cur)
        assert cmp.ok
        assert cmp.total_current_s == pytest.approx(1.5)

    def test_slowdown_is_reported_not_gated(self):
        """Wall clock is a report: a 100x slower current run still passes,
        and its rows say where wall clock is judged instead."""
        cur = payload({("g1", "adds"): 100.0, ("g2", "adds"): 200.0})
        cmp = compare_reports(payload(BASE), cur)
        assert cmp.ok
        lines = cmp.summary_lines()
        assert lines[0] == "matrix wall-clock: 3000.0 ms -> 300000.0 ms"
        assert "  g1/adds: 1000.0 ms -> 100000.0 ms" in lines
        assert WALL_NOTE in lines and "perf/compare.py" in WALL_NOTE
        assert lines[-1] == "OK"

    def test_simulated_mismatch_is_fatal_regardless_of_speed(self):
        cur = payload({("g1", "adds"): {"wall_s": 0.1, "work_count": 999},
                       ("g2", "adds"): 2.0})
        cmp = compare_reports(payload(BASE), cur)
        assert not cmp.ok
        assert cmp.mismatches == ["g1/adds: work_count 100 -> 999"]
        assert "MISMATCH: g1/adds: work_count 100 -> 999" in cmp.summary_lines()
        assert cmp.summary_lines()[-1] == "FAIL"

    def test_time_us_mismatch_is_fatal(self):
        cur = payload({("g1", "adds"): 1.0,
                       ("g2", "adds"): {"wall_s": 2.0, "time_us": 42.5}})
        cmp = compare_reports(payload(BASE), cur)
        assert cmp.mismatches == ["g2/adds: time_us 42.0 -> 42.5"]
        assert not cmp.ok

    def test_dist_hash_mismatch_is_fatal(self):
        cur = payload({("g1", "adds"): {"wall_s": 1.0, "dist_sha256": "b" * 64},
                       ("g2", "adds"): 2.0})
        assert not compare_reports(payload(BASE), cur).ok

    def test_missing_cell_is_fatal(self):
        cur = payload({("g1", "adds"): 1.0})
        cmp = compare_reports(payload(BASE), cur)
        assert cmp.missing == [("g2", "adds")]
        assert not cmp.ok

    def test_added_cell_is_informational(self):
        cur = payload({**BASE, ("g3", "nf"): 9.0})
        cmp = compare_reports(payload(BASE), cur)
        assert cmp.added == [("g3", "nf")]
        assert cmp.ok  # new coverage never fails the gate

    def test_malformed_payload_rejected(self):
        with pytest.raises(ReproError, match="cells"):
            compare_reports({"bench_schema": 1}, payload(BASE))


class TestFieldGaps:
    """Cells lacking a required field are diagnosed per-cell and fail the
    gate cleanly instead of raising a bare KeyError (e.g. an old-schema
    baseline compared against a grown matrix)."""

    def test_missing_baseline_field_is_diagnosed_not_keyerror(self):
        base = payload(BASE)
        for cell in base["cells"]:
            del cell["dist_sha256"]
        cmp = compare_reports(base, payload(BASE))
        assert not cmp.ok
        assert len(cmp.field_gaps) == 2
        assert all(
            "missing in baseline" in m and "dist_sha256" in m
            for m in cmp.field_gaps
        )
        lines = cmp.summary_lines()
        assert any("missing in baseline" in l for l in lines)
        assert lines[-1] == "FAIL"

    def test_missing_current_field_is_diagnosed(self):
        cur = payload(BASE)
        del cur["cells"][0]["work_count"]
        cmp = compare_reports(payload(BASE), cur)
        assert not cmp.ok
        assert cmp.field_gaps == ["g1/adds: field 'work_count' missing in current"]
        # the intact cell still compares normally
        assert [d.graph for d in cmp.deltas] == ["g2"]

    def test_gapped_cell_skips_value_comparison(self):
        base = payload(BASE)
        del base["cells"][0]["time_us"]
        cur = payload({("g1", "adds"): 99.0, ("g2", "adds"): 2.0})
        cmp = compare_reports(base, cur)
        assert cmp.field_gaps and not cmp.ok
        # g1 is incomparable: neither a delta nor a mismatch is recorded
        assert [d.graph for d in cmp.deltas] == ["g2"]
        assert not cmp.mismatches

    def test_malformed_cell_raises_reproerror(self):
        bad = payload(BASE)
        del bad["cells"][0]["graph"]
        with pytest.raises(ReproError):
            compare_reports(bad, payload(BASE))


class TestLegacyPayloads:
    """Reports written by earlier versions carry top-level fields that
    current reports omit; they must still load as baselines."""

    @staticmethod
    def golden():
        path = Path(__file__).resolve().parents[2] / "BENCH_pr4.json"
        return json.loads(path.read_text())

    def assert_all_cells_match(self, base, cur):
        cmp = compare_reports(base, cur)
        assert cmp.ok
        assert not cmp.mismatches and not cmp.missing and not cmp.field_gaps
        assert len(cmp.deltas) == len(base["cells"])

    def test_retired_exec_mode_field_is_ignored(self):
        """Reports written while the batch execution mode existed carry a
        top-level ``exec_mode``."""
        cur = self.golden()
        base = copy.deepcopy(cur)
        base["exec_mode"] = "batch"
        self.assert_all_cells_match(base, cur)

    def test_retired_scheduler_field_is_ignored(self):
        """Reports written before the ``options`` object carry a top-level
        ``scheduler``."""
        base = self.golden()
        base["scheduler"] = "bucket"
        base["exec_mode"] = "batch"
        cur = copy.deepcopy(self.golden())
        cur["options"] = {}
        self.assert_all_cells_match(base, cur)

    def test_retired_scheduler_option_is_ignored(self):
        """Reports written while ADDS took a ``scheduler`` option carry
        it under ``options``."""
        base = self.golden()
        base["options"] = {"scheduler": "bucket"}
        cur = self.golden()
        cur["options"] = {}
        self.assert_all_cells_match(base, cur)
