"""The check runner: the 8-seed schedule-invariance property, fault
detection end-to-end, and the report payload."""

from __future__ import annotations

import pytest

from repro.baselines.common import get_solver
from repro.bench.matrix import matrix_entries
from repro.check import run_check, schedule_seed
from repro.check.testing import FAULTS, FaultyChecker
from repro.errors import ReproError

#: invariant tag each fault must be caught under (see repro.check.testing)
FAULT_TAGS = {
    "publish-overlap": "publish-bounds",
    "phantom-wcc": "fence-visibility",
    "lost-wakeup": "no-lost-work",
    "dist-raise": "dist-monotone",
}


def one_entry():
    """The smallest pinned cell (road-48x48) for single-cell runs."""
    return [matrix_entries("small")[0]]


class TestScheduleSeed:
    def test_deterministic(self):
        assert schedule_seed(0, 3) == schedule_seed(0, 3)

    def test_distinct_over_base_and_index(self):
        seeds = {schedule_seed(b, i) for b in range(4) for i in range(64)}
        assert len(seeds) == 4 * 64

    def test_negative_schedules_rejected(self):
        with pytest.raises(ReproError, match="schedules"):
            run_check("small", schedules=-1)


class TestScheduleInvariance:
    """The pinned property: on the small matrix, >= 8 perturbed schedules
    all terminate clean and agree bit-exactly on the final distances,
    and every seed replays to the identical schedule (which also pins
    its work_count)."""

    def test_small_matrix_eight_seeds(self):
        report = run_check("small", schedules=8, seed=0)
        assert report.ok, "\n".join(report.summary_lines())
        assert report.cross_solver_problems == []
        for cell in report.cells:
            expected = 1 + (8 if cell.perturbed else 0)
            assert len(cell.runs) == expected
            shas = {r.dist_sha256 for r in cell.runs}
            assert len(shas) == 1, f"{cell.graph}×{cell.solver} diverged"
            for r in cell.runs:
                assert r.violation is None
                assert r.missed_wakeups == 0
                if r.perturb_seed is not None:
                    assert r.replay_ok is True
            if cell.perturbed:
                assert all(r.checked_ops > 0 for r in cell.runs)

    def test_perturbed_solvers_are_the_checkable_ones(self):
        report = run_check("small", schedules=0, replay=False)
        for cell in report.cells:
            assert cell.perturbed == get_solver(cell.solver).accepts("checker")


class TestFaultDetection:
    """A sanitizer that has never seen a bug is untested tooling: every
    injected protocol fault must fail the run under its own invariant."""

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_fault_is_caught(self, fault):
        report = run_check(
            entries=one_entry(),
            schedules=1,
            replay=False,
            checker_factory=lambda: FaultyChecker(fault),
        )
        assert not report.ok
        text = "\n".join(p for c in report.cells for p in c.problems)
        assert FAULT_TAGS[fault] in text

    def test_violation_message_names_the_seed(self):
        report = run_check(
            entries=one_entry(),
            schedules=1,
            replay=False,
            checker_factory=lambda: FaultyChecker("publish-overlap"),
        )
        text = "\n".join(p for c in report.cells for p in c.problems)
        assert "perturb_seed=" in text

    def test_unknown_fault_rejected(self):
        with pytest.raises(ReproError, match="unknown fault"):
            FaultyChecker("nonsense")


class TestReportPayload:
    def test_json_round_trip_fields(self):
        report = run_check(entries=one_entry(), schedules=1, replay=False)
        payload = report.to_json_dict()
        assert payload["schema"] == 1
        assert payload["ok"] is True
        assert payload["schedules"] == 1
        (cell,) = payload["cells"]
        assert cell["solver"] == "adds"
        assert cell["perturbed"] is True
        assert len(cell["runs"]) == 2  # canonical + 1 perturbed
        for run in cell["runs"]:
            assert len(run["dist_sha256"]) == 64
            assert run["checked_ops"] > 0

    def test_summary_mentions_verdict(self):
        report = run_check(entries=one_entry(), schedules=0, replay=False)
        lines = report.summary_lines()
        assert lines[-1].startswith("PASS")
