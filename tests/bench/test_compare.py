"""The --compare regression gate, over hand-built payloads (no solves)."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.bench import compare_reports
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
        cmp = compare_reports(payload(BASE), payload(BASE), threshold_pct=10)
        assert cmp.ok
        assert cmp.summary_lines()[-1] == "OK"
        assert not cmp.regressions and not cmp.mismatches and not cmp.missing

    def test_improvement_ok(self):
        cur = payload({("g1", "adds"): 0.5, ("g2", "adds"): 1.0})
        cmp = compare_reports(payload(BASE), cur, threshold_pct=10)
        assert cmp.ok
        assert cmp.total_change_pct == pytest.approx(-50.0)

    def test_injected_slowdown_fails(self):
        cur = payload({("g1", "adds"): 1.5, ("g2", "adds"): 2.0})
        cmp = compare_reports(payload(BASE), cur, threshold_pct=10)
        assert not cmp.ok
        assert [d.graph for d in cmp.regressions] == ["g1"]
        assert cmp.summary_lines()[-1] == "FAIL"
        assert any("REGRESSION" in l for l in cmp.summary_lines())

    def test_slowdown_within_threshold_ok(self):
        cur = payload({("g1", "adds"): 1.05, ("g2", "adds"): 2.0})
        assert compare_reports(payload(BASE), cur, threshold_pct=10).ok

    def test_total_regression_fails_even_without_cell_regression(self):
        # every cell creeps up 8% (< 10%), but so does the total... use an
        # asymmetric threshold: total moves +8% which stays OK at 10, and
        # fails at 5.
        cur = payload({("g1", "adds"): 1.08, ("g2", "adds"): 2.16})
        assert compare_reports(payload(BASE), cur, threshold_pct=10).ok
        cmp = compare_reports(payload(BASE), cur, threshold_pct=5)
        assert cmp.total_regressed and not cmp.ok

    def test_simulated_mismatch_is_fatal_regardless_of_speed(self):
        cur = payload({("g1", "adds"): {"wall_s": 0.1, "work_count": 999},
                       ("g2", "adds"): 2.0})
        cmp = compare_reports(payload(BASE), cur, threshold_pct=50)
        assert not cmp.ok
        assert any("work_count" in m for m in cmp.mismatches)

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

    def test_negative_threshold_rejected(self):
        with pytest.raises(ReproError, match="non-negative"):
            compare_reports(payload(BASE), payload(BASE), threshold_pct=-1)

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
        cmp = compare_reports(base, payload(BASE), threshold_pct=10)
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
        cmp = compare_reports(payload(BASE), cur, threshold_pct=10)
        assert not cmp.ok
        assert cmp.field_gaps == ["g1/adds: field 'work_count' missing in current"]
        # the intact cell still compares normally
        assert [d.graph for d in cmp.deltas] == ["g2"]

    def test_gapped_cell_skips_value_comparison(self):
        base = payload(BASE)
        del base["cells"][0]["time_us"]
        cur = payload({("g1", "adds"): 99.0, ("g2", "adds"): 2.0})
        cmp = compare_reports(base, cur, threshold_pct=10)
        assert cmp.field_gaps and not cmp.ok
        # g1 is incomparable: neither a delta nor a regression is recorded
        assert [d.graph for d in cmp.deltas] == ["g2"]
        assert not cmp.regressions

    def test_malformed_cell_raises_reproerror(self):
        bad = payload(BASE)
        del bad["cells"][0]["graph"]
        with pytest.raises(ReproError):
            compare_reports(bad, payload(BASE))


class TestLegacyPayloads:
    def test_retired_exec_mode_field_is_ignored(self):
        """Reports written while the batch execution mode existed carry a
        top-level ``exec_mode``; they must still load as baselines against
        current reports, which omit it."""
        path = Path(__file__).resolve().parents[2] / "BENCH_pr10.json"
        base = json.loads(path.read_text())
        assert base["exec_mode"] == "batch"
        cur = copy.deepcopy(base)
        del cur["exec_mode"]
        cmp = compare_reports(base, cur, threshold_pct=10)
        assert cmp.ok
        assert not cmp.mismatches and not cmp.missing and not cmp.field_gaps
        assert len(cmp.deltas) == len(base["cells"])

    def test_retired_scheduler_field_is_ignored(self):
        """Reports written before the ``options`` object carry a top-level
        ``scheduler``; they must still load as baselines against current
        reports, which record it under ``options``."""
        path = Path(__file__).resolve().parents[2] / "BENCH_pr10.json"
        base = json.loads(path.read_text())
        assert base["scheduler"] == "bucket"
        cur = copy.deepcopy(base)
        cur["options"] = {"scheduler": cur.pop("scheduler")}
        del cur["exec_mode"]
        cmp = compare_reports(base, cur, threshold_pct=10)
        assert cmp.ok
        assert not cmp.mismatches and not cmp.missing and not cmp.field_gaps
        assert len(cmp.deltas) == len(base["cells"])
