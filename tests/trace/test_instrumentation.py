"""End-to-end tracing over the simulated GPU.

The acceptance contract: a traced run is bit-identical to an untraced
one, events are monotonically ordered per track, and the trace contains
the MTB / WTB / Δ-controller activity the paper's figures discuss.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.common import solver_names
from repro.baselines.nearfar import solve_nf
from repro.core.adds import solve_adds
from repro.errors import SolverError
from repro.graphs import clique_chain, grid_road
from repro.harness import run_traced_solve
from repro.trace import Tracer
from repro.trace.tracer import SPAN


@pytest.fixture(scope="module")
def road():
    return grid_road(24, 24, max_weight=8192, seed=3)


@pytest.fixture(scope="module")
def traced_road(road):
    tracer = Tracer()
    result = solve_adds(road, 0, tracer=tracer)
    return result, tracer


def test_traced_adds_bit_identical_to_untraced(road, traced_road):
    traced, _ = traced_road
    plain = solve_adds(road, 0)
    assert np.array_equal(plain.dist, traced.dist)
    assert plain.work_count == traced.work_count
    assert plain.time_us == traced.time_us  # bit-identical, not approx
    assert plain.stats == traced.stats


def test_events_monotonic_per_track(traced_road):
    _, tracer = traced_road
    assert len(tracer) > 0
    for track in tracer.tracks():
        ts = [ev.ts_us for ev in tracer.events_for(track)]
        assert ts == sorted(ts), f"track {track} out of order"


def test_trace_contains_mtb_wtb_and_queue_activity(traced_road):
    _, tracer = traced_road
    tracks = set(tracer.tracks())
    assert "MTB" in tracks
    assert any(t.startswith("WTB") for t in tracks)
    names = {ev.name for ev in tracer.events}
    assert {"mtb_pass", "assign", "relax_batch", "bucket_push",
            "kernel_launch"} <= names
    # WTB relax batches are spans with positive duration on WTB tracks
    batches = [e for e in tracer.by_name("relax_batch") if e.kind == SPAN]
    assert batches and all(e.dur_us > 0 for e in batches)
    assert all(e.track.startswith("WTB") for e in batches)


def test_delta_retune_events_match_counter():
    # the long-chain cliques graph forces at least one Δ adjustment
    g = clique_chain(12, 40, seed=0)
    tracer = Tracer()
    result = solve_adds(g, 0, tracer=tracer)
    retunes = tracer.by_name("delta_retune")
    assert result.stats["delta_adjustments"] >= 1
    assert len(retunes) == result.stats["delta_adjustments"]
    for ev in retunes:
        assert ev.track == "controller"
        assert ev.args["old"] != ev.args["new"]


def test_bsp_solver_traces_supersteps(road):
    tracer = Tracer()
    result = solve_nf(road, 0, tracer=tracer)
    steps = tracer.by_name("superstep")
    assert steps
    assert len(steps) == result.stats["supersteps"]
    assert result.stats["kernel_launches"] == result.stats["supersteps"]


def test_run_traced_solve_writes_artifacts(road, tmp_path):
    result, tracer, paths = run_traced_solve(road, "adds", out_dir=tmp_path)
    assert result.reached() == road.num_vertices
    assert len(tracer) > 0
    assert {p.name for p in paths} == {"trace.json", "counters.csv", "summary.txt"}


def test_run_traced_solve_rejects_untraceable_solver(road):
    assert "dijkstra" not in solver_names(traceable=True)
    with pytest.raises(SolverError):
        run_traced_solve(road, "dijkstra")
