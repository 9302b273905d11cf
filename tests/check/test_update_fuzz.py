"""Update-stream fuzz: incremental re-solves must be bit-identical to
from-scratch solves across seeds and perturbed schedules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.check import UpdateLane, run_update_check, schedule_seed
from repro.core.adds import solve_adds
from repro.dynamic import apply_updates
from repro.graphs import generators
from repro.graphs.generators import update_stream
from repro.graphs.suite import SuiteEntry

FUZZ_SEEDS = list(range(8))


def _entry(seed: int) -> SuiteEntry:
    return SuiteEntry(
        name=f"fuzz-grid-{seed}",
        category="fuzz",
        factory=lambda seed=seed: generators.grid_road(6, 6, seed=seed),
        source=0,
    )


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_incremental_bit_equal_across_seeds(seed):
    """Direct fuzz loop: one graph, one stream seed."""
    g = generators.grid_road(6, 6, seed=seed)
    warm = solve_adds(g, source=0).dist
    for batch in update_stream(g, batches=2, batch_size=6, seed=seed * 31 + 7):
        res = apply_updates(g, batch)
        g = res.graph
        full = solve_adds(g, source=0)
        inc = solve_adds(g, source=0, warm_from=warm, updates=res.deltas)
        assert np.array_equal(full.dist, inc.dist)
        warm = inc.dist


def test_run_update_check_report_shape_and_pass():
    """The runner itself: canonical + a perturbed lane, all green."""
    report = run_update_check(
        entries=[_entry(0), _entry(1)],
        batches=2,
        batch_size=6,
        schedules=1,
        seed=3,
    )
    assert report.ok
    assert len(report.cells) == 2
    for cell in report.cells:
        assert len(cell.batches) == 2
        # lanes: dijkstra + adds × (canonical + 1 perturbed)
        assert len(cell.lanes) == 3
        for bc in cell.batches:
            assert bc.oracle_sha256 is not None
            # every lane reported a sha, and all of them match the oracle
            assert set(bc.lane_sha256) == set(cell.lanes)
            assert all(s == bc.oracle_sha256 for s in bc.lane_sha256.values())
    payload = report.to_json_dict()
    assert payload["schema"] == 1
    assert payload["ok"] is True


def test_run_update_check_detects_divergence(monkeypatch):
    """Sanity that the oracle is live: sabotage the incremental path and
    the report must flag it."""
    import repro.check.dynamic as dynmod

    real = dynmod.dist_sha256
    calls = {"n": 0}

    def skewed(dist):
        calls["n"] += 1
        if calls["n"] == 3:  # corrupt one lane's sha (call 1 is the oracle)
            return "deadbeef" * 8
        return real(dist)

    monkeypatch.setattr(dynmod, "dist_sha256", skewed)
    report = run_update_check(
        entries=[_entry(2)], batches=1, batch_size=5, schedules=0, seed=1
    )
    assert not report.ok
    assert any("diverged" in p for c in report.cells for p in c.problems)


def test_lane_labels_and_default_lanes():
    from repro.check import default_update_lanes

    lanes = default_update_lanes(schedules=1, seed=0)
    labels = [lane.label for lane in lanes]
    assert labels == [
        "dijkstra/canonical",
        "adds/canonical",
        f"adds/seed={schedule_seed(0, 0)}",
    ]


def test_perturbed_lane_objects():
    lane = UpdateLane(solver="adds", options={"perturb_seed": 42})
    assert lane.label == "adds/seed=42"
    lane = UpdateLane(solver="adds", options={"delta": 5.0, "perturb_seed": 42})
    assert lane.label == "adds/5.0/seed=42"
