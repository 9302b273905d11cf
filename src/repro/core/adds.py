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
)
from repro.baselines.heuristics import davidson_delta
from repro.calibration import resolve_device
from repro.core.config import AddsConfig
from repro.core.delta_controller import DeltaController
from repro.core.mtb import mtb_program
from repro.core.scheduler import (
    DEFAULT_SCHEDULER,
    WorkScheduler,
    get_scheduler_info,
)
from repro.core.wtb import AF_IDLE, make_relax, wtb_program
from repro.errors import SolverError
from repro.gpu.costmodel import CostModel
from repro.gpu.device import Device
from repro.gpu.memory import GlobalPool
from repro.gpu.specs import DeviceSpec
from repro.graphs.csr import CSRGraph
from repro.trace import MetricsRegistry, Tracer, coalesce

__all__ = ["solve_adds", "AddsState"]


@dataclass
class AddsState:
    """Shared state the MTB and WTB programs communicate through."""

    graph: CSRGraph
    device: Device
    queue: WorkScheduler
    config: AddsConfig
    controller: DeltaController
    dist: np.ndarray
    pred: np.ndarray
    float_weights: bool
    # per-WTB assignment flags (scratchpad on the real device)
    af_state: np.ndarray
    af_slot: np.ndarray
    af_start: np.ndarray
    af_end: np.ndarray
    af_epoch: np.ndarray
    af_edges: np.ndarray
    # counters
    work_count: int = 0
    outstanding_edges: float = 0.0
    head_switches: int = 0
    delta_trace: List[Tuple[float, float]] = field(default_factory=list)
    #: int64/float64 twins of the CSR arrays — the relax path consumes
    #: these dtypes, so cast once per solve instead of once per batch.
    #: Optional so hand-built states (tests) fall back to per-WTB casts.
    col64: Optional[np.ndarray] = None
    w64: Optional[np.ndarray] = None
    #: per-vertex adjacency cache, lazily filled by the WTB fast path:
    #: ``adj[v] = (srcs, cols, ws)`` where the latter two are views into
    #: the 64-bit twins.  Vertices are re-expanded a handful of times per
    #: solve, so caching the slice objects beats re-slicing the CSR.
    adj: Optional[list] = None
    #: dynamic protocol checker (:class:`repro.check.ProtocolChecker`);
    #: set by ``checker.attach``, consulted by the MTB/WTB programs.
    checker: Optional[object] = None


def _pool_blocks_for(graph: CSRGraph, config: AddsConfig) -> int:
    """Size the arena: live slots are bounded by in-flight + unread
    pushes, which for label-correcting SSSP stays within a small multiple
    of the edge count even in pathological schedules.  An explicit
    ``config.pool_blocks`` is honored exactly (and may overflow)."""
    if config.pool_blocks is not None:
        return config.pool_blocks
    need = (4 * max(graph.num_edges, graph.num_vertices)) // config.slots_per_block
    return max(512, need + 4 * config.n_buckets)


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
    scheduler: Optional[str] = None,
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
    scheduler:
        Registered :class:`~repro.core.scheduler.WorkScheduler` name
        (``"bucket"``, the paper's queue and the default, or
        ``"mlmq"``).  Final distances are scheduler-invariant — only
        the work schedule, and hence work/time, differ.
    warm_from / updates:
        Incremental re-solve (ROADMAP item 2): ``warm_from`` is the
        exact distance array of the same source on the graph *before*
        the edge changes in ``updates`` (an
        :class:`~repro.dynamic.updates.EdgeDeltas`) were applied to it.
        The solver invalidates stale distances, seeds the scheduler
        from the **dirty frontier** (violated-edge tails at their warm
        distances) instead of the source, and converges — by the same
        label-correction property that makes schedules and schedulers
        interchangeable — to distances bit-identical to a from-scratch
        solve.  Works with any registered scheduler.  The predecessor
        tree is rebuilt only for re-relaxed vertices (``-1`` elsewhere).
    """
    spec, cost = resolve_device(spec, cost)
    config = config or AddsConfig()
    if graph.num_vertices == 0:
        raise SolverError("cannot run SSSP on an empty graph")
    if updates is not None and warm_from is None:
        raise SolverError("updates= requires warm_from= distances")

    initial_delta = (
        delta
        if delta is not None
        else config.initial_delta
        if config.initial_delta is not None
        else davidson_delta(graph, config.delta_constant)
    )
    if initial_delta <= 0:
        raise SolverError("initial delta must be positive")

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

    pool = GlobalPool(
        _pool_blocks_for(graph, config), words_per_block=config.slots_per_block
    )
    scheduler_name = scheduler if scheduler is not None else DEFAULT_SCHEDULER
    queue = get_scheduler_info(scheduler_name).create(
        device.mem, pool, config, initial_delta=initial_delta
    )
    if config.delta_floor is not None:
        delta_floor = config.delta_floor
    else:
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

    # A prepared graph (CSRGraph.prepare(), e.g. a serving session's load
    # step) supplies the int64/float64 twins and the adjacency cache; the
    # fallback casts per solve, exactly as before — same values either way.
    prep = graph.prepared()
    if prep is None:
        col64 = graph.col_indices.astype(np.int64)
        w64 = graph.weights.astype(np.float64)
        adj: list = [None] * graph.num_vertices
    else:
        col64, w64, adj = prep.col64, prep.w64, prep.adj

    # Incremental mode: start from the warm distances and seed the
    # scheduler from the dirty frontier instead of the source.
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
        af_state=np.full(n_wtbs, AF_IDLE, dtype=np.int64),
        af_slot=np.zeros(n_wtbs, dtype=np.int64),
        af_start=np.zeros(n_wtbs, dtype=np.int64),
        af_end=np.zeros(n_wtbs, dtype=np.int64),
        af_epoch=np.zeros(n_wtbs, dtype=np.int64),
        af_edges=np.zeros(n_wtbs, dtype=np.float64),
        col64=col64,
        w64=w64,
        adj=adj,
    )

    # Seed: each source is one work item in the head bucket at distance 0.
    queue.bind_device(device)
    if checker is not None:
        # attach before seeding so the host-side seed reserve/publish is
        # accounted like any other writer's
        checker.attach(device=device, queue=queue, state=state)
    if warm_from is None:
        seed = resolve_sources(graph.num_vertices, source, sources)
        seed_slot = queue.seed_slot()
        queue.ensure_capacity(
            seed_slot, config.segment_size * (1 + seed.size // config.segment_size)
        )
        start = queue.reserve(seed_slot, int(seed.size))
        queue.publish(seed_slot, start, seed, np.zeros(seed.size))
    elif frontier.size:
        # Warm start: seed the scheduler from the dirty frontier at its
        # warm distances.  base_dist is purely relative, so anchoring it
        # at the nearest frontier vertex avoids spinning through empty
        # bands; push_slots_list maps each item to its physical slot
        # under whichever policy (bucket / mlmq) is installed.
        queue.base_dist = float(frontier_dists.min())
        slots = np.asarray(
            queue.push_slots_list(frontier, frontier_dists), dtype=np.int64
        )
        for slot in np.unique(slots):
            mask = slots == slot
            verts = frontier[mask]
            queue.ensure_capacity(
                int(slot),
                config.segment_size * (1 + verts.size // config.segment_size),
            )
            start = queue.reserve(int(slot), int(verts.size))
            queue.publish(int(slot), start, verts, frontier_dists[mask])
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

    metrics = MetricsRegistry()
    for key, value in (
        ("atomics", device.mem.stats.atomics),
        ("fences", device.mem.stats.fences),
        ("kernel_launches", 1),  # one persistent kernel
        ("work_count", state.work_count),
        ("delta_adjustments", controller.adjustments),
        ("rotations", queue.rotations),
        ("head_switches", state.head_switches),
        ("total_pushed", queue.total_pushed),
        ("total_completed", queue.total_completed),
        ("high_clips", queue.high_clips),
        ("low_clips", queue.low_clips),
        ("translation_hits", queue.mtb_cache.hits),
        ("translation_misses", queue.mtb_cache.misses),
        ("timeline_clamps", device.timeline.clamps),
        ("wakeups", device.wakeups),
        ("spurious_wakeups", device.spurious_wakeups),
        ("fallback_polls", device.fallback_polls),
        ("missed_wakeups", device.missed_wakeups),
    ):
        metrics.counter(key).inc(value)
    metrics.update(
        {
            "initial_delta": initial_delta,
            "final_delta": queue.delta,
            "pool_high_water": pool.high_water,
            "active_buckets_final": controller.active_buckets,
            "n_wtbs": n_wtbs,
        }
    )
    if perturb_seed is not None:
        # only on perturbed runs, so canonical stats stay bit-identical
        metrics.update({"perturb_seed": perturb_seed})
    if seed_info is not None:
        # only on warm runs, so canonical stats stay bit-identical
        metrics.update(
            {
                "warm_start": True,
                "warm_roots": seed_info["roots"],
                "warm_invalidated": seed_info["invalidated"],
                "warm_frontier": seed_info["frontier"],
            }
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
        metrics=metrics,
        stats={
            **metrics.snapshot(),
            "scheduler": scheduler_name,
            "delta_trace": list(state.delta_trace),
        },
    )
