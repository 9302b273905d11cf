"""The ADDS solver: MTB + WTBs + bucket queue assembled on a Device.

``solve_adds`` is the reproduction of the artifact's ``ads_int`` /
``ads_float`` binaries: it builds the shared state (distance array, the
32-bucket queue over a pre-allocated arena, per-WTB assignment flags),
registers one manager and N worker thread-block programs on the simulated
GPU, seeds the source vertex, runs the event loop to termination and
returns the standard :class:`~repro.baselines.common.SSSPResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.common import (
    SSSPResult,
    init_distances,
    init_tree,
    register_solver,
    resolve_sources,
    uniform_stats,
)
from repro.baselines.heuristics import davidson_delta
from repro.calibration import resolve_device
from repro.core.bucket_queue import BucketQueue
from repro.core.config import AddsConfig
from repro.core.delta_controller import DeltaController
from repro.core.mtb import mtb_program
from repro.core.wtb import AF_IDLE, make_relax, wtb_program
from repro.errors import SolverError
from repro.gpu.costmodel import CostModel
from repro.gpu.device import Device
from repro.gpu.memory import GlobalPool
from repro.gpu.specs import DeviceSpec
from repro.graphs.csr import CSRGraph
from repro.trace import Tracer, coalesce

__all__ = ["solve_adds", "AddsState"]


@dataclass
class AddsState:
    """Shared state the MTB and WTB programs communicate through."""

    graph: CSRGraph
    device: Device
    queue: BucketQueue
    config: AddsConfig
    controller: DeltaController
    dist: np.ndarray
    pred: np.ndarray
    float_weights: bool
    # per-WTB assignment flags (scratchpad on the real device), one
    # Python int (float for the edge estimate) per worker
    af_state: List[int]
    af_slot: List[int]
    af_start: List[int]
    af_end: List[int]
    af_epoch: List[int]
    af_edges: List[float]
    # counters
    work_count: int = 0
    outstanding_edges: float = 0.0
    delta_trace: List[Tuple[float, float]] = field(default_factory=list)
    #: dynamic protocol checker (:class:`repro.check.ProtocolChecker`);
    #: set by ``checker.attach``, consulted by the MTB/WTB programs.
    checker: Optional[object] = None


@register_solver("adds")
def solve_adds(
    graph: CSRGraph,
    source: int = 0,
    *,
    sources: Optional[Sequence[int]] = None,
    spec: Optional[DeviceSpec] = None,
    cost: Optional[CostModel] = None,
    config: Optional[AddsConfig] = None,
    delta: Optional[float] = None,
    tracer: Optional[Tracer] = None,
    checker: Optional[object] = None,
    perturb_seed: Optional[int] = None,
    warm_from: Optional[np.ndarray] = None,
    updates: Optional[object] = None,
) -> SSSPResult:
    """Run ADDS on the (simulated) GPU.

    Parameters
    ----------
    spec / cost:
        Device and cost model; default to the calibrated scaled RTX 2080 Ti
        (see :mod:`repro.calibration`).
    config:
        :class:`AddsConfig`; the Table 5 ablations are
        ``config.static_delta_ablation()`` and
        ``config.two_buckets_ablation()``.
    delta:
        Overrides the *initial* Δ (and the static Δ when
        ``config.dynamic_delta`` is False) — the knob the Figure 7 sweep
        turns.  Default: the Davidson heuristic, like the baselines.
    tracer:
        A :class:`~repro.trace.Tracer` to receive structured events
        (MTB passes, WTB relax batches, bucket pushes, Δ retunes, …).
        Disabled by default; tracing never perturbs the simulation, so
        traced and untraced runs produce identical results.
    checker:
        A :class:`repro.check.ProtocolChecker` (one fresh instance per
        solve).  When given, every queue/memory/AF protocol operation is
        validated against the SRMW invariants and the no-lost-work
        oracle runs after termination; any violation raises
        :class:`~repro.errors.InvariantViolation`.
    perturb_seed:
        Seeds the device's schedule perturber (see
        :class:`~repro.gpu.device.Device`): same-timestamp event order
        and simultaneous-wake order are randomized deterministically.
        ``None`` (default) keeps the canonical, bit-reproducible
        schedule.  Final distances are schedule-invariant; ``work_count``
        and timing legitimately vary across seeds (racing relaxations).
    warm_from / updates:
        Incremental re-solve (ROADMAP item 2): ``warm_from`` is the
        exact distance array of the same source on the graph *before*
        the edge changes in ``updates`` (an
        :class:`~repro.dynamic.updates.EdgeDeltas`) were applied to it.
        The solver invalidates stale distances, seeds the queue from
        the **dirty frontier** (violated-edge tails at their warm
        distances) instead of the source, and converges — by the same
        label-correction property that makes schedules interchangeable
        — to distances bit-identical to a from-scratch solve.  The
        predecessor tree is rebuilt only for re-relaxed vertices
        (``-1`` elsewhere).
    """
    spec, cost = resolve_device(spec, cost)
    config = config or AddsConfig()
    if graph.num_vertices == 0:
        raise SolverError("cannot run SSSP on an empty graph")
    if updates is not None and warm_from is None:
        raise SolverError("updates= requires warm_from= distances")

    initial_delta = delta if delta is not None else davidson_delta(graph)
    if not initial_delta > 0:  # also rejects NaN
        raise SolverError(f"initial delta must be positive (got {initial_delta})")

    tracer = coalesce(tracer)
    device = Device(spec, cost, tracer=tracer, perturb_seed=perturb_seed)
    n_wtbs = config.n_wtbs
    if n_wtbs is None:
        n_wtbs = max(1, spec.max_resident_blocks - 1)
    if n_wtbs < 1:
        raise SolverError("ADDS needs at least one WTB")
    if n_wtbs + 1 > spec.max_resident_blocks:
        raise SolverError(
            f"{n_wtbs} WTBs + 1 MTB exceed the device's "
            f"{spec.max_resident_blocks} resident blocks"
        )

    pool = GlobalPool(config.pool_blocks, words_per_block=config.slots_per_block)
    queue = BucketQueue(device.mem, pool, config, initial_delta=initial_delta)
    # Δ floor: a quarter of the smallest positive weight.  Below it every
    # band boundary falls between weights, and shrinking further only
    # mints empty buckets and clipping.
    positive = graph.weights[graph.weights > 0]
    delta_floor = float(positive.min()) / 4.0 if positive.size else 1e-9
    controller = DeltaController(
        config=config,
        spec=spec,
        avg_degree=graph.average_degree(),
        delta=initial_delta,
        delta_floor=delta_floor,
    )
    if tracer.enabled:
        clock = lambda: device.now_us  # noqa: E731 - tiny shared closure
        queue.attach_tracer(tracer, clock)
        pool.attach_tracer(tracer, clock)
        controller.attach_tracer(tracer, clock)

    # Incremental mode: start from the warm distances and seed the
    # queue from the dirty frontier instead of the source.
    seed_info = None
    if warm_from is not None:
        from repro.dynamic.frontier import incremental_seed

        dist0, frontier, frontier_dists, seed_info = incremental_seed(
            graph, warm_from, updates, source, sources
        )
    else:
        dist0 = init_distances(graph.num_vertices, source, sources)

    state = AddsState(
        graph=graph,
        device=device,
        queue=queue,
        config=config,
        controller=controller,
        dist=dist0,
        pred=init_tree(graph.num_vertices),
        float_weights=not graph.is_integer_weighted,
        af_state=[AF_IDLE] * n_wtbs,
        af_slot=[0] * n_wtbs,
        af_start=[0] * n_wtbs,
        af_end=[0] * n_wtbs,
        af_epoch=[0] * n_wtbs,
        af_edges=[0.0] * n_wtbs,
    )

    # Seed: each source is one work item in the head bucket at distance 0.
    queue.bind_device(device)
    if checker is not None:
        # attach before seeding so the host-side seed reserve/publish is
        # accounted like any other writer's
        checker.attach(device=device, queue=queue, state=state)
    if warm_from is None:
        seed = resolve_sources(graph.num_vertices, source, sources)
        head = queue.head
        queue.ensure_capacity(
            head, config.segment_size * (1 + seed.size // config.segment_size)
        )
        start = queue.reserve(head, int(seed.size))
        queue.publish(head, start, seed, np.zeros(seed.size))
    elif frontier.size:
        # Warm start: seed the queue from the dirty frontier at its warm
        # distances.  base_dist is purely relative, so anchoring it at
        # the nearest frontier vertex avoids spinning through empty
        # bands; push_groups splits the frontier by bucket exactly as a
        # WTB push would.
        queue.base_dist = float(frontier_dists.min())
        for slot, verts, dists in queue.push_groups(
            frontier.tolist(), memoryview(dist0)
        ):
            queue.ensure_capacity(
                slot, config.segment_size * (1 + len(verts) // config.segment_size)
            )
            start = queue.reserve(slot, len(verts))
            queue.publish(slot, start, verts, dists)
    # (empty frontier: nothing to relax — the MTB terminates on its own)

    relax = make_relax(state)
    device.add_block("MTB", mtb_program(state))
    for w in range(n_wtbs):
        device.add_block(f"WTB{w}", wtb_program(state, w, relax))
    if tracer.enabled:
        # ADDS runs as one persistent kernel (MTB + WTBs, §5.1).
        tracer.instant(
            "device", "kernel_launch", 0.0, cat="kernel",
            blocks=n_wtbs + 1, solver="adds",
        )
    cycles = device.run()
    if checker is not None:
        checker.finalize()  # the no-lost-work oracle

    stats = uniform_stats(
        atomics=device.mem.stats.atomics,
        fences=device.mem.stats.fences,
        kernel_launches=1,  # one persistent kernel
        work_count=state.work_count,
    )
    for key, value in (
        ("delta_adjustments", controller.adjustments),
        ("rotations", queue.rotations),
        ("total_pushed", queue.total_pushed),
        ("total_completed", queue.total_completed),
        ("high_clips", queue.high_clips),
        ("low_clips", queue.low_clips),
        ("translation_hits", queue.mtb_cache.hits),
        ("translation_misses", queue.mtb_cache.misses),
        ("timeline_clamps", device.timeline.clamps),
        ("wakeups", device.wakeups),
        ("spurious_wakeups", device.spurious_wakeups),
        ("missed_wakeups", device.missed_wakeups),
    ):
        stats[key] = int(value)
    stats.update(
        initial_delta=initial_delta,
        final_delta=queue.delta,
        pool_high_water=pool.high_water,
        active_buckets_final=controller.active_buckets,
        n_wtbs=n_wtbs,
    )
    if perturb_seed is not None:
        # only on perturbed runs, so canonical stats stay bit-identical
        stats["perturb_seed"] = perturb_seed
    if seed_info is not None:
        # only on warm runs, so canonical stats stay bit-identical
        stats.update(
            warm_start=True,
            warm_roots=seed_info["roots"],
            warm_invalidated=seed_info["invalidated"],
            warm_frontier=seed_info["frontier"],
        )

    return SSSPResult(
        solver="adds",
        graph_name=graph.name,
        source=source,
        dist=state.dist,
        predecessors=state.pred,
        work_count=state.work_count,
        time_us=spec.cycles_to_us(cycles),
        timeline=device.timeline,
        stats={**stats, "delta_trace": list(state.delta_trace)},
    )
