"""Tests for the §5.5 Δ controller logic (pure, no device)."""

from __future__ import annotations

import pytest

from repro.core import delta_controller
from repro.core.config import AddsConfig
from repro.core.delta_controller import DeltaController
from repro.gpu.specs import RTX_2080TI


@pytest.fixture(autouse=True)
def no_warmup(monkeypatch):
    monkeypatch.setattr(delta_controller, "WARMUP_PASSES", 0)


def make_ctrl(delta=100.0, **cfgkw):
    cfg = AddsConfig(**cfgkw)
    return DeltaController(
        config=cfg, spec=RTX_2080TI.scaled(1 / 16), avg_degree=8.0, delta=delta,
        delta_floor=0.01,
    )


def settle(ctrl, u_edges, passes=None):
    """Feed a steady utilization until the controller may act."""
    n = passes if passes is not None else delta_controller.SETTLE_PASSES
    for _ in range(n):
        ctrl.observe(u_edges)


class TestTargets:
    def test_low_degree_needs_fewer_edges(self):
        lo = make_ctrl()
        lo.avg_degree = 2.0
        hi = make_ctrl()
        hi.avg_degree = 64.0
        assert lo.target_edges() < hi.target_edges()

    def test_utilization_normalized(self):
        c = make_ctrl()
        assert c.utilization(c.target_edges()) == pytest.approx(1.0)


class TestActiveBuckets:
    def test_starved_widens_window(self):
        c = make_ctrl()
        settle(c, 0.0, passes=30)
        before = c.active_buckets
        c.adjust_active_buckets()
        assert c.active_buckets == before + 1

    def test_saturated_narrows_window(self):
        c = make_ctrl()
        c.active_buckets = 4
        settle(c, 100 * c.target_edges(), passes=30)
        c.adjust_active_buckets()
        assert c.active_buckets == 3

    def test_bounds_respected(self):
        c = make_ctrl()
        for _ in range(50):
            settle(c, 0.0, passes=5)
            c.adjust_active_buckets()
        assert c.active_buckets == c.config.max_active_buckets
        for _ in range(50):
            settle(c, 100 * c.target_edges(), passes=5)
            c.adjust_active_buckets()
        assert c.active_buckets == c.config.min_active_buckets


class TestSettling:
    def test_warmup_blocks_everything(self, monkeypatch):
        c = make_ctrl()
        monkeypatch.setattr(delta_controller, "WARMUP_PASSES", 1000)
        settle(c, 0.0, passes=500)
        assert not c.settled(rotations=100)

    def test_rotation_criterion(self):
        c = make_ctrl()
        settle(c, 0.0, passes=1)
        assert not c.settled(rotations=1)
        assert c.settled(rotations=2)  # settle_switches default 2

    def test_pass_fallback(self):
        c = make_ctrl()
        settle(c, 0.0, passes=delta_controller.SETTLE_PASSES)
        assert c.settled(rotations=0)

    def test_not_settled_right_after_change(self):
        c = make_ctrl()
        settle(c, 0.0)
        c.maybe_adjust_delta(0.0, rotations=10)
        assert not c.settled(rotations=10)
        assert not c.settled(rotations=11)
        assert c.settled(rotations=12)


class TestDeltaMoves:
    def test_starved_grows(self):
        c = make_ctrl(delta=100.0)
        settle(c, 0.0)
        assert c.maybe_adjust_delta(0.0, rotations=5) == 200.0

    def test_saturated_shrinks(self):
        c = make_ctrl(delta=100.0)
        settle(c, 100 * c.target_edges())
        assert c.maybe_adjust_delta(0.0, rotations=5) == 50.0

    def test_in_band_no_change(self):
        c = make_ctrl(delta=100.0)
        u_mid = 0.4 * c.target_edges()  # between util_low and util_high
        settle(c, u_mid)
        assert c.maybe_adjust_delta(0.0, rotations=5) == 100.0

    def test_clip_guard_overrides_saturation(self):
        """§5.5: below the clipping bound, Δ must grow even if work looks
        plentiful."""
        c = make_ctrl(delta=100.0)
        settle(c, 100 * c.target_edges())
        assert c.maybe_adjust_delta(tail_fraction=0.7, rotations=5) == 200.0

    def test_clip_guard_threshold_is_65_percent(self):
        c = make_ctrl(delta=100.0)
        u_mid = 0.4 * c.target_edges()
        settle(c, u_mid)
        assert c.maybe_adjust_delta(tail_fraction=0.64, rotations=5) == 100.0
        settle(c, u_mid)
        assert c.maybe_adjust_delta(tail_fraction=0.65, rotations=5) == 200.0

    def test_dynamic_disabled_never_moves(self):
        c = make_ctrl(delta=100.0, dynamic_delta=False)
        settle(c, 0.0)
        assert c.maybe_adjust_delta(0.9, rotations=50) == 100.0

    def test_delta_floor_respected(self):
        c = make_ctrl(delta=0.03)
        settle(c, 100 * c.target_edges())
        c.maybe_adjust_delta(0.0, rotations=5)
        assert c.delta >= 0.01

    def test_history_records_changes(self):
        c = make_ctrl(delta=100.0)
        settle(c, 0.0)
        c.maybe_adjust_delta(0.0, rotations=5)
        assert c.delta == 200.0
        assert c.adjustments == 1


class TestGrowthPlateau:
    def test_unhelpful_growth_reverted_and_frozen(self):
        """Growing Δ without gaining utilization must stop — otherwise a
        starved high-diameter graph degenerates to Bellman-Ford (§6.4)."""
        c = make_ctrl(delta=100.0)
        u0 = 0.1 * c.target_edges()  # starved, but work is flowing
        settle(c, u0)
        c.maybe_adjust_delta(0.0, rotations=5)  # grow to 200
        assert c.delta == 200.0
        settle(c, u0)  # ...same utilization: growth didn't help
        c.maybe_adjust_delta(0.0, rotations=10)
        assert c.delta == 100.0  # reverted
        assert c.growth_frozen
        settle(c, u0)
        c.maybe_adjust_delta(0.0, rotations=15)
        assert c.delta == 100.0  # frozen: no more growth

    def test_growth_at_zero_baseline_never_freezes(self):
        """Regression: growth applied while ``util_ewma == 0`` (start-up,
        before any work is in flight) used to satisfy the plateau test
        vacuously and freeze Δ growth permanently.  A zero baseline can't
        judge a growth step; the controller must keep growing."""
        c = make_ctrl(delta=100.0)
        settle(c, 0.0)
        c.maybe_adjust_delta(0.0, rotations=5)  # grow at zero utilization
        assert c.delta == 200.0
        assert c.util_at_growth == 0.0
        settle(c, 0.0)  # still nothing in flight
        c.maybe_adjust_delta(0.0, rotations=10)
        assert not c.growth_frozen
        assert c.delta == 400.0  # kept growing, not reverted

    def test_helpful_growth_continues(self):
        c = make_ctrl(delta=100.0)
        settle(c, 0.0)
        c.maybe_adjust_delta(0.0, rotations=5)
        # utilization doubled after the growth: keep going
        settle(c, 0.2 * c.target_edges())
        c.maybe_adjust_delta(0.0, rotations=10)
        assert c.delta == 400.0

    def test_saturation_unfreezes(self):
        c = make_ctrl(delta=100.0)
        u0 = 0.1 * c.target_edges()
        settle(c, u0)
        c.maybe_adjust_delta(0.0, rotations=5)
        settle(c, u0)
        c.maybe_adjust_delta(0.0, rotations=10)  # revert + freeze
        assert c.growth_frozen
        settle(c, 100 * c.target_edges())
        c.maybe_adjust_delta(0.0, rotations=15)  # shrink
        assert not c.growth_frozen


class TestSmallInitialDelta:
    """End to end: a solve started at a tiny Δ should settle, not oscillate."""

    @pytest.mark.xfail(
        strict=True,
        reason="the clip guard and the growth-plateau revert undo each "
        "other: Δ ping-pongs 5.75 <-> 11.5 for 19 adjustments (ROADMAP)",
    )
    def test_delta_reverses_direction_at_most_twice(self):
        from repro.core import solve_adds
        from repro.graphs import grid_road

        r = solve_adds(grid_road(20, 20, max_weight=8192, seed=1), 0, delta=1.0)
        trace = [r.stats["initial_delta"]] + [d for _, d in r.stats["delta_trace"]]
        grew = [b > a for a, b in zip(trace, trace[1:])]
        reversals = sum(x != y for x, y in zip(grew, grew[1:]))
        assert reversals <= 2
