"""Figure 6 — how Δ maps vertices to buckets, including clipping.

The paper's didactic example: four vertices at distances 15/35/55/75 are
added to a 4-bucket queue under Δ = 20 (one per bucket — best work
efficiency), Δ = 40 (two per bucket — more parallelism) and Δ = 5
(everything beyond the window clips into the last bucket — ordering lost).
This bench drives the *actual* BucketQueue mapping and then measures the
end-to-end cost of the clipping regime on a real graph.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import format_table
from repro.core import AddsConfig, solve_adds
from repro.core.bucket_queue import BucketQueue
from repro.gpu.memory import GlobalPool, SimMemory
from repro.graphs import named_graph

DISTS = np.array([15.0, 35.0, 55.0, 75.0])


def place(delta):
    cfg = AddsConfig(
        n_buckets=4, segment_size=4, slots_per_block=32, pool_blocks=16,
        max_active_buckets=4,
    )
    q = BucketQueue(
        SimMemory(), GlobalPool(16, words_per_block=32), cfg, initial_delta=delta
    )
    return q.rel_bands_list(DISTS), q.high_clips


def test_figure6_bucket_placement(rtx2080, benchmark, report):
    placements = {d: place(d) for d in (20.0, 40.0, 5.0)}
    rows = [
        [f"delta={int(d)}"]
        + [f"b{b}" for b in bands]
        + [f"{clips} clipped"]
        for d, (bands, clips) in placements.items()
    ]
    lines = [format_table(
        ["", "v@15", "v@35", "v@55", "v@75", ""],
        rows,
        title="Figure 6. Bucket placement of 4 vertices under 3 delta values "
              "(4 buckets)",
    )]

    # the three cases of the figure, verbatim
    assert placements[20.0][0] == [0, 1, 2, 3]  # (c) precise ordering
    assert placements[40.0][0] == [0, 0, 1, 1]  # (d) coarser, parallel
    assert placements[5.0][0] == [3, 3, 3, 3]   # (b) everything in the tail
    # v@15 lands in bucket 3 natively (15 // 5 == 3); the other three are
    # genuine clips past the window
    assert placements[5.0][1] == 3

    # end-to-end: force the clip regime on a real graph and show the
    # measured work/time penalty the paper's Figure 7 clip-points exhibit.
    # The road stand-in has uniform weights up to 8192, so a tiny delta
    # makes nearly every push overshoot the 32-band window — the true
    # Figure 6(b) pathology (heavy-tailed graphs clip more rarely).
    spec, cost = rtx2080
    g = named_graph("road-usa-mini")
    static = AddsConfig().static_delta_ablation()

    def run_clip_regime():
        good = solve_adds(g, 0, spec=spec, cost=cost, config=static, delta=2048.0)
        clip = solve_adds(g, 0, spec=spec, cost=cost, config=static, delta=8.0)
        return good, clip

    good, clip = benchmark.pedantic(run_clip_regime, rounds=1, iterations=1)
    lines.append("")
    lines.append(
        f"clip regime on {g.name}: delta=64 -> work {good.work_count}, "
        f"{good.time_us:.0f}us, {good.stats['high_clips']} clips; "
        f"delta=0.75 -> work {clip.work_count}, {clip.time_us:.0f}us, "
        f"{clip.stats['high_clips']} clips"
    )
    report("\n".join(lines))

    assert clip.stats["high_clips"] > good.stats["high_clips"]
    # "the clip-point always performs worse than the best-work-point,
    # since it causes dramatically more work without improving parallelism"
    assert clip.work_count > good.work_count
