"""Near-Far delta-stepping (Davidson et al.) — the prior state of the art.

The paper's strongest baseline ``NF`` is LonestarGPU's highly-optimized
Near-Far; ``Gun-NF`` is Gunrock 0.2's version.  Near-Far approximates
delta-stepping with exactly **two** buckets under BSP (§1):

- a **near** pile holding vertices with tentative distance below the
  current threshold τ, processed superstep by superstep with double
  buffering;
- a **far** pile collecting everything else; when near drains, τ advances
  by Δ and a *far split* pass partitions the far pile against the new τ.

Differences between the two variants (per the paper):

- ``NF`` runs a duplicate-vertex-ID removal filter on the near pile each
  superstep ("ADDS does not have the duplicate vertex ID removal filter
  used by NF, since that requires a BSP model" — §6.3); ``Gun-NF`` does
  not, so it re-expands duplicates.
- Gunrock's generic frontier machinery adds per-iteration overhead.

Both use the Davidson Δ heuristic, as the paper's patched baselines do.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np

from repro.baselines.common import (
    SSSPResult,
    init_distances,
    init_tree,
    register_solver,
    resolve_sources,
    solver_metrics,
)
from repro.baselines.heuristics import davidson_delta
from repro.errors import SolverError
from repro.gpu.costmodel import CostModel
from repro.gpu.kernels import BspMachine
from repro.gpu.memory import SimMemory
from repro.calibration import resolve_device
from repro.gpu.specs import DeviceSpec
from repro.graphs.csr import CSRGraph, expand_frontier
from repro.trace.tracer import Tracer

__all__ = ["solve_nf", "solve_gun_nf", "near_far"]

#: Gunrock 0.2's per-superstep overhead relative to Lonestar's kernels.
GUN_NF_OVERHEAD = 1.8

#: Safety bound on supersteps (loud failure instead of a silent hang).
MAX_SUPERSTEPS = 2_000_000


def near_far(
    graph: CSRGraph,
    source: int,
    machine: BspMachine,
    *,
    delta: Optional[float] = None,
    dedup_filter: bool = True,
    solver_name: str,
    sources: Optional[Sequence[int]] = None,
) -> SSSPResult:
    """The shared Near-Far loop; ``dedup_filter`` selects NF vs Gun-NF."""
    if delta is None:
        delta = davidson_delta(graph)
    if delta <= 0:
        raise SolverError("near-far requires a positive delta")

    n = graph.num_vertices
    dist = init_distances(n, source, sources)
    pred = init_tree(n)
    mem = SimMemory()
    avg_deg = graph.average_degree()
    float_weights = not graph.is_integer_weighted

    near = resolve_sources(n, source, sources)
    far = np.empty(0, dtype=np.int64)
    # Pre-cast CSR twins (as the ADDS WTBs do): the relax path consumes
    # int64 indices and float64 weights, so casting once here removes
    # two array copies from every superstep.
    exp_graph = SimpleNamespace(
        row_offsets=graph.row_offsets,
        col_indices=graph.col_indices.astype(np.int64),
        weights=graph.weights.astype(np.float64),
    )
    threshold = float(delta)
    work = 0
    far_splits = 0
    duplicates_filtered = 0

    while near.size or far.size:
        if machine.supersteps > MAX_SUPERSTEPS:
            raise SolverError(f"{solver_name}: superstep budget exceeded")
        if near.size == 0:
            # ---- far split: advance τ to the band holding the nearest
            # pending vertex, then partition the far pile against it.
            live = far[dist[far] >= threshold]  # drop settled/stale entries
            if live.size == 0:
                break
            dmin = float(dist[live].min())
            # jump τ just past dmin in Δ-increments (the optimized split)
            bands = max(1.0, np.ceil((dmin - threshold) / delta + 1e-12))
            threshold += bands * delta
            mask = dist[live] < threshold
            near = live[mask]
            far = live[~mask]
            far_splits += 1
            # the split pass is one compaction kernel over the far pile
            machine.superstep(int(live.size), 0, avg_deg)
            continue

        pile = near
        if dedup_filter:
            filtered = np.unique(pile)
            duplicates_filtered += int(pile.size - filtered.size)
            pile = filtered
        # stale check: only vertices still inside the near band expand
        pile = pile[dist[pile] < threshold]
        if pile.size == 0:
            near = np.empty(0, dtype=np.int64)
            continue

        srcs, dsts, ws = expand_frontier(exp_graph, pile)
        machine.superstep(
            int(pile.size), int(dsts.size), avg_deg, float_weights=float_weights
        )
        work += int(pile.size)
        if dsts.size:
            cand = dist[srcs] + ws
            winners = mem.atomic_min_batch(
                dist, dsts, cand, payload=srcs, payload_out=pred
            )
            new_items = dsts[winners]
            new_d = dist[new_items]
            near = new_items[new_d < threshold]
            far = np.concatenate([far, new_items[new_d >= threshold]])
        else:
            near = np.empty(0, dtype=np.int64)

    metrics = solver_metrics(
        atomics=mem.stats.atomics,
        fences=mem.stats.fences,
        kernel_launches=machine.kernel_launches,
        work_count=work,
    )
    metrics.counter("supersteps").inc(machine.supersteps)
    metrics.counter("far_splits").inc(far_splits)
    metrics.counter("duplicates_filtered").inc(duplicates_filtered)
    metrics.counter("timeline_clamps").inc(machine.timeline.clamps)
    metrics.set("delta", delta)
    return SSSPResult(
        solver=solver_name,
        graph_name=graph.name,
        source=source,
        dist=dist,
        predecessors=pred,
        work_count=work,
        time_us=machine.elapsed_us,
        timeline=machine.timeline,
        metrics=metrics,
        stats=metrics.snapshot(),
    )


@register_solver("nf")
def solve_nf(
    graph: CSRGraph,
    source: int = 0,
    *,
    sources: Optional[Sequence[int]] = None,
    spec: Optional[DeviceSpec] = None,
    cost: Optional[CostModel] = None,
    delta: Optional[float] = None,
    tracer: Optional[Tracer] = None,
) -> SSSPResult:
    """LonestarGPU Near-Far: dedup filter on, lean kernels.

    ``delta`` overrides the Davidson heuristic (used by the Figure 4
    C-sweep bench); by default the heuristic is applied, matching the
    paper's patched baseline.  The profile kernel that samples the average
    weight is charged "much less than 1 % of run time" (Appendix A) —
    a fixed small setup charge here.
    """
    spec, cost = resolve_device(spec, cost)
    machine = BspMachine(spec, cost, label="nf", tracer=tracer)
    machine.charge_us(2.0)  # profile kernel for the delta heuristic
    return near_far(
        graph, source, machine, delta=delta, dedup_filter=True,
        solver_name="nf", sources=sources,
    )


@register_solver("gun-nf")
def solve_gun_nf(
    graph: CSRGraph,
    source: int = 0,
    *,
    sources: Optional[Sequence[int]] = None,
    spec: Optional[DeviceSpec] = None,
    cost: Optional[CostModel] = None,
    delta: Optional[float] = None,
    tracer: Optional[Tracer] = None,
) -> SSSPResult:
    """Gunrock 0.2 Near-Far: no dedup filter, heavier framework."""
    spec, cost = resolve_device(spec, cost)
    machine = BspMachine(
        spec, cost, label="gun-nf", overhead_multiplier=GUN_NF_OVERHEAD,
        tracer=tracer,
    )
    machine.charge_us(2.0)
    return near_far(
        graph, source, machine, delta=delta, dedup_filter=False,
        solver_name="gun-nf", sources=sources,
    )
