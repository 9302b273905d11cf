"""Table 5 — the RTX 3090 robustness run and the two ablations.

Paper rows (speedup of ADDS over NF):
- RTX 2080 Ti: avg 2.9x  (same data as Table 3)
- RTX 3090:    avg 3.5x  — bigger win on the newer card (+52% bandwidth)
- Static-Δ   (3090, dynamic mechanism off): drops to 2.4x
- 2-Buckets  (3090, static Δ + two buckets): drops to 2.2x
"""

from __future__ import annotations

import pytest

from repro.analysis import bin_ratios, format_distribution_table
from repro.core import AddsConfig
from repro.harness import run_suite


def ablation_speedups(corpus, rtx3090, config):
    spec, cost = rtx3090
    run = run_suite(
        solvers=("adds", "nf"),
        suite=corpus,
        spec=spec,
        cost=cost,
        options={"config": config},
    )
    assert not run.verification_failures, run.verification_failures[:3]
    return run.speedups("adds", "nf")


def test_table5_rtx3090_and_ablations(
    suite_run_2080, adds_nf_run_3090, corpus, rtx3090, benchmark, report
):
    s_2080 = suite_run_2080.speedups("adds", "nf")
    s_3090 = adds_nf_run_3090.speedups("adds", "nf")

    def run_ablations():
        base = AddsConfig()
        return (
            ablation_speedups(corpus, rtx3090, base.static_delta_ablation()),
            ablation_speedups(corpus, rtx3090, base.two_buckets_ablation()),
        )

    s_static, s_2buck = benchmark.pedantic(run_ablations, rounds=1, iterations=1)

    rows = [
        bin_ratios(s_2080, label="RTX2080ti"),
        bin_ratios(s_3090, label="RTX3090"),
        bin_ratios(s_static, label="Static-d"),
        bin_ratios(s_2buck, label="2-Buckets"),
    ]
    lines = [format_distribution_table(
        rows,
        title=f"Table 5. Speedup of ADDS over NF across devices and ablations "
              f"({rows[0].total} graphs)",
    )]
    lines.append("")
    lines.append(f"{'config':10s} {'mean':>6s} {'geomean':>8s} {'paper':>6s}")
    paper = {"RTX2080ti": 2.9, "RTX3090": 3.5, "Static-d": 2.4, "2-Buckets": 2.2}
    for d in rows:
        lines.append(
            f"{d.label:10s} {d.arithmetic_mean:6.2f} {d.geomean:8.2f} "
            f"{paper[d.label]:6.1f}"
        )
    report("\n".join(lines))

    m2080 = rows[0].arithmetic_mean
    m3090 = rows[1].arithmetic_mean
    mstatic = rows[2].arithmetic_mean
    m2buck = rows[3].arithmetic_mean
    # --- shape assertions -------------------------------------------------
    # §6.5: the newer GPU widens ADDS's advantage
    assert m3090 > m2080 * 1.05
    # disabling the dynamic mechanism costs performance
    assert mstatic < m3090 * 0.92
    # the two-bucket restriction costs performance vs the full design
    assert m2buck < m3090 * 0.88
    # and every configuration still beats NF on average — the asynchronous
    # delegated worklist alone is worth it (the paper's last observation)
    assert m2buck > 1.3
