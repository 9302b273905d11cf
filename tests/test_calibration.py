"""Tests for the simulation-scale calibration layer."""

from __future__ import annotations

import math

import pytest

from repro.calibration import (
    LAUNCH_SCALE,
    SIM_SCALE,
    default_cost,
    default_gpu,
    resolve_device,
    sim_cost,
    sim_gpu,
)
from repro.gpu.costmodel import CostModel
from repro.gpu.specs import RTX_2080TI, RTX_3090


class TestScaledDevices:
    def test_default_gpu_is_scaled_2080(self):
        d = default_gpu()
        assert "2080" in d.name
        assert d.sm_count == max(1, round(68 * SIM_SCALE))
        assert d.total_threads < RTX_2080TI.total_threads

    def test_default_gpu_cached(self):
        assert default_gpu() is default_gpu()

    def test_bandwidth_scales_by_sqrt(self):
        d = sim_gpu(RTX_2080TI)
        assert d.dram_bandwidth_gbs == pytest.approx(
            RTX_2080TI.dram_bandwidth_gbs * math.sqrt(SIM_SCALE)
        )

    def test_relative_3090_advantage_preserved(self):
        """Table 5's premise: the scaled 3090 keeps its bandwidth edge."""
        a = sim_gpu(RTX_2080TI)
        b = sim_gpu(RTX_3090)
        assert b.dram_bandwidth_gbs / a.dram_bandwidth_gbs == pytest.approx(
            RTX_3090.dram_bandwidth_gbs / RTX_2080TI.dram_bandwidth_gbs
        )
        assert b.total_threads > a.total_threads

    def test_per_sm_limits_untouched(self):
        d = sim_gpu(RTX_2080TI)
        assert d.threads_per_sm == RTX_2080TI.threads_per_sm
        assert d.max_clock_ghz == RTX_2080TI.max_clock_ghz
        assert d.scratchpad_kb_per_sm == RTX_2080TI.scratchpad_kb_per_sm

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            RTX_2080TI.scaled(0)


class TestScaledCost:
    def test_launch_scaled(self):
        cost = sim_cost(sim_gpu(RTX_2080TI))
        assert cost.kernel_launch_us == pytest.approx(6.0 * LAUNCH_SCALE)

    def test_overrides_pass_through(self):
        # sim_cost takes no overrides: other constants mean building the
        # CostModel directly, with the scaled launch carried over
        spec = sim_gpu(RTX_2080TI)
        launch = sim_cost(spec).kernel_launch_us
        cost = CostModel(spec, kernel_launch_us=launch, atomic_cycles=999.0)
        assert cost.atomic_cycles == 999.0
        assert cost.kernel_launch_us == pytest.approx(6.0 * LAUNCH_SCALE)

    def test_default_cost_matches_default_gpu(self):
        c = default_cost()
        assert c.spec == default_gpu()


class TestResolveDevice:
    def test_neither_given(self):
        spec, cost = resolve_device(None, None)
        assert spec is default_gpu()
        assert cost.kernel_launch_us == pytest.approx(6.0 * LAUNCH_SCALE)

    def test_spec_given_gets_stock_cost(self):
        """A full-size card keeps the full 6 us launch."""
        spec, cost = resolve_device(RTX_2080TI, None)
        assert spec is RTX_2080TI
        assert cost.kernel_launch_us == 6.0

    def test_both_given_used_as_is(self):
        my_cost = CostModel(RTX_3090, kernel_launch_us=1.0)
        spec, cost = resolve_device(RTX_3090, my_cost)
        assert spec is RTX_3090 and cost is my_cost
