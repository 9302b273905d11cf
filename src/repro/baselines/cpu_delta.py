"""Shared-memory CPU delta-stepping (the Galois 4.0 ``CPU-DS`` baseline).

"This implementation uses multiple fine-grained buckets to implement its
priority queue" (§6.1.2) — i.e. real delta-stepping, not a two-bucket
approximation: buckets are indexed by ``floor(dist / Δ)`` with no cap, so
nothing is ever clipped.  Buckets are processed in priority order; work
re-entering the current bucket is processed in follow-up rounds before the
next bucket opens (the Meyer & Sanders inner loop).

Each round is executed by the simulated 10-core/20-thread CPU
(:class:`~repro.gpu.costmodel.CpuCostModel`): a synchronization overhead
plus the edge relaxations at the multicore's parallel rate.  The limited
thread count is what caps this baseline — Table 3 reports ADDS on a GPU
averaging 14.2× faster.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional, Sequence

import numpy as np

from repro.baselines.common import (
    SSSPResult,
    init_distances,
    init_tree,
    make_frontier_relax,
    register_solver,
    resolve_sources,
    uniform_stats,
)
from repro.baselines.heuristics import davidson_delta
from repro.errors import SolverError
from repro.gpu.costmodel import CpuCostModel
from repro.gpu.memory import SimMemory
from repro.gpu.specs import CPU_I9_7900X
from repro.gpu.timeline import Timeline
from repro.graphs.csr import CSRGraph

__all__ = ["solve_cpu_ds"]

MAX_ROUNDS = 2_000_000


def _bucket_ids(d: np.ndarray, delta: float) -> np.ndarray:
    """``floor(d / Δ)`` as float bucket ids.  Floats keep every id
    well-defined: a quotient past the float range is the ``+inf`` bucket,
    processed last, where an int cast would be undefined.  (NumPy flags
    that overflow, and for a subnormal Δ also "invalid", while the
    result is still ``+inf``.)"""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.floor_divide(d, delta)


@register_solver("cpu-ds")
def solve_cpu_ds(
    graph: CSRGraph,
    source: int = 0,
    *,
    sources: Optional[Sequence[int]] = None,
    cost: Optional[CpuCostModel] = None,
    delta: Optional[float] = None,
) -> SSSPResult:
    """Galois-style delta-stepping on the simulated multicore."""
    cost = cost if cost is not None else CpuCostModel(CPU_I9_7900X)
    if delta is None:
        delta = davidson_delta(graph)
    if not delta > 0:  # also rejects NaN
        raise SolverError(f"cpu-ds requires a positive delta (got {delta})")

    dist = init_distances(graph.num_vertices, source, sources)
    pred = init_tree(graph.num_vertices)
    mem = SimMemory()
    relax = make_frontier_relax(graph, mem, dist, pred)
    buckets = defaultdict(list)
    buckets[0.0].extend(
        resolve_sources(graph.num_vertices, source, sources).tolist()
    )

    work = 0
    rounds = 0
    time_us = 0.0
    tl = Timeline(label="cpu-ds")

    while buckets:
        cur = min(buckets)
        pending = np.unique(np.asarray(buckets.pop(cur), dtype=np.int64))
        while pending.size:
            rounds += 1
            if rounds > MAX_ROUNDS:
                raise SolverError("cpu-ds: round budget exceeded")
            # stale filter: only vertices still belonging to this bucket
            live = pending[_bucket_ids(dist[pending], delta) == cur]
            if live.size == 0:
                break
            edges, new_items = relax(live)
            tl.record(time_us, float(edges))
            time_us += cost.delta_round_us(edges, int(live.size))
            tl.record(time_us, 0.0)
            work += int(live.size)
            new_bucket = _bucket_ids(dist[new_items], delta)
            same = new_items[new_bucket == cur]
            for b in np.unique(new_bucket[new_bucket != cur]):
                sel = new_items[new_bucket == b]
                buckets[float(b)].extend(sel.tolist())
            pending = np.unique(same)

    # multicore CPU: atomic relaxations but no kernel launches
    stats = uniform_stats(
        atomics=mem.stats.atomics, fences=mem.stats.fences, work_count=work
    )
    stats["rounds"] = int(rounds)
    stats["delta"] = delta
    return SSSPResult(
        solver="cpu-ds",
        graph_name=graph.name,
        source=source,
        dist=dist,
        predecessors=pred,
        work_count=work,
        time_us=time_us,
        timeline=tl,
        stats=stats,
    )
