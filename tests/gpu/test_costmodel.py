"""Tests for the cycle cost model.

The assertions here pin the *qualitative* behaviours the paper's analysis
depends on, not absolute constants: launch overhead dominating tiny BSP
iterations, bandwidth bounding saturated ones, divergence penalizing
low-degree graphs.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.gpu import CPU_I9_7900X, RTX_2080TI, RTX_3090, CostModel, Device
from repro.gpu.costmodel import CpuCostModel


@pytest.fixture
def cm():
    return CostModel(RTX_2080TI)


class TestEdgeTraffic:
    def test_divergence_penalty_for_low_degree(self, cm):
        assert cm.effective_edge_bytes(2.0) > cm.effective_edge_bytes(32.0)

    def test_high_degree_approaches_base(self, cm):
        assert cm.effective_edge_bytes(1e6) == pytest.approx(cm.base_edge_bytes, rel=0.01)

    def test_degree_below_one_clamped(self, cm):
        assert cm.effective_edge_bytes(0.1) == cm.effective_edge_bytes(1.0)


class TestBspSuperstep:
    def test_empty_superstep_costs_launch(self, cm):
        assert cm.bsp_superstep_cycles(0, 0, 4.0) == pytest.approx(
            cm.kernel_launch_cycles()
        )

    def test_tiny_iteration_dominated_by_launch(self, cm):
        """The paper's road-USA diagnosis: 800 items vs 68K threads."""
        dur = cm.bsp_superstep_cycles(800, 2000, 2.5)
        assert dur < 2.5 * cm.kernel_launch_cycles()
        assert dur > cm.kernel_launch_cycles()

    def test_saturated_iteration_bandwidth_bound(self, cm):
        items, deg = 4_000_000, 8.0
        edges = int(items * deg)
        dur = cm.bsp_superstep_cycles(items, edges, deg)
        bw = edges * cm.effective_edge_bytes(deg) / cm.spec.bytes_per_cycle
        assert dur == pytest.approx(cm.kernel_launch_cycles() + bw, rel=0.15)

    def test_more_items_never_faster(self, cm):
        d1 = cm.bsp_superstep_cycles(1000, 8000, 8.0)
        d2 = cm.bsp_superstep_cycles(100_000, 800_000, 8.0)
        assert d2 >= d1

    def test_float_weights_cost_more(self, cm):
        i = cm.bsp_superstep_cycles(500, 4000, 8.0)
        f = cm.bsp_superstep_cycles(500, 4000, 8.0, float_weights=True)
        assert f > i

    def test_3090_faster_when_saturated(self):
        items, deg = 2_000_000, 8.0
        edges = int(items * deg)
        t_2080 = CostModel(RTX_2080TI).bsp_superstep_cycles(items, edges, deg)
        t_3090 = CostModel(RTX_3090).bsp_superstep_cycles(items, edges, deg)
        us_2080 = RTX_2080TI.cycles_to_us(t_2080)
        us_3090 = RTX_3090.cycles_to_us(t_3090)
        assert us_3090 < us_2080


class TestWtbBatch:
    """A WTB batch is priced as a latency floor plus DRAM bytes; the
    device's reservation clock turns the bytes into bandwidth time."""

    def test_min_batch_floor(self, cm):
        assert cm.wtb_batch_latency(1) >= cm.min_batch_cycles

    def test_scales_with_edges(self, cm):
        assert cm.wtb_batch_latency(25600) > cm.wtb_batch_latency(256) * 10
        assert cm.wtb_batch_bytes(25600, 8.0) == pytest.approx(
            100 * cm.wtb_batch_bytes(256, 8.0)
        )

    def test_bandwidth_sharing(self, cm):
        # 64 concurrent batches queue on one DRAM reservation clock, so
        # together they outlast one batch alone.
        edges = 200_000
        event = ("relax", cm.wtb_batch_latency(edges), edges,
                 cm.wtb_batch_bytes(edges, 8.0))

        def run(blocks):
            d = Device(RTX_2080TI, cm)
            for i in range(blocks):
                d.add_block(f"w{i}", iter([event]))
            return d.run()

        transfer = event[3] / RTX_2080TI.bytes_per_cycle
        alone, crowded = run(1), run(64)
        assert alone == pytest.approx(max(event[1], transfer))
        assert crowded == pytest.approx(max(event[1], 64 * transfer))
        assert crowded > alone

    def test_empty_batch_cheap(self, cm):
        assert cm.wtb_batch_bytes(0, 8.0) == 0
        assert cm.wtb_batch_latency(0) == cm.wtb_batch_latency(1)

    def test_float_atomic_surcharge(self, cm):
        i = cm.wtb_batch_latency(256)
        f = cm.wtb_batch_latency(256, float_weights=True)
        assert f > i


class TestMtbPass:
    def test_base_cost(self, cm):
        assert cm.mtb_pass_cost(0, 0) == pytest.approx(cm.mtb_pass_cycles)

    def test_scales_with_segments_and_assignments(self, cm):
        assert cm.mtb_pass_cost(100, 10) > cm.mtb_pass_cost(10, 1)

    def test_is_cheap_relative_to_launch(self, cm):
        """Delegation only pays off if the MTB pass is far cheaper than a
        kernel launch — this is the crux of the paper's design."""
        assert cm.mtb_pass_cost(64, 16) < 0.2 * cm.kernel_launch_cycles()


class TestOverrides:
    def test_with_overrides(self, cm):
        """``dataclasses.replace`` re-derives the cached coefficients."""
        cm2 = replace(cm, kernel_launch_us=12.0)
        assert cm2.kernel_launch_us == 12.0
        assert cm2.kernel_launch_cycles() == 2 * cm.kernel_launch_cycles()
        assert cm.kernel_launch_us == 6.0  # original untouched
        assert cm2.spec is cm.spec


class TestCpuCostModel:
    def test_dijkstra_scales_with_work(self):
        cm = CpuCostModel(CPU_I9_7900X)
        t1 = cm.dijkstra_us(10_000, 5_000, 10_000)
        t2 = cm.dijkstra_us(100_000, 50_000, 10_000)
        assert t2 > 5 * t1

    def test_delta_round_has_sync_floor(self):
        cm = CpuCostModel(CPU_I9_7900X)
        assert cm.delta_round_us(0, 0) == pytest.approx(cm.round_sync_us)

    def test_parallelism_capped_by_threads(self):
        cm = CpuCostModel(CPU_I9_7900X)
        # 1M edges over 20 threads vs over "1M threads" — same result,
        # because usable concurrency is capped at spec.threads
        wide = cm.delta_round_us(1_000_000, 10_000_000)
        narrow = cm.delta_round_us(1_000_000, 20)
        assert wide == pytest.approx(narrow)
