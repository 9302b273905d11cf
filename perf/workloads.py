"""The benchmark's four workloads: pinned graphs, seeded inputs, timed loops.

A run repeats *units* until ``seconds`` of timed work have accumulated.
An ADDS unit is one pass over a fresh set of stratified sources, each
solved by ADDS and then by Near-Far.  A serve unit is one episode: a
fresh session with an empty cache replays a query trace of its own (and,
on ``serve-updates``, update batches) in a closed loop.  Only calls
into ``repro``'s public API are timed, and the oracle checks every
answer after its timer stops.  Every timed sample is reported at the
reference host speed (``hostspeed.py``).

The graphs are pinned; ``seed`` selects only the sources, the query
trace and the update batches.  ``fingerprints.json`` holds the sha256 of
every workload's seed-0 inputs, checked at the start of each run.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import math
import pstats
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

import repro
from repro.dynamic import apply_updates
from repro.errors import AdmissionError
from repro.graphs import CSRGraph, update_stream
from repro.serve import Session

import layers
import oracle
from hostspeed import HostSpeed
from metrics import percentiles_ms

FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"
clock = time.perf_counter

#: Set-ups timed before each unit; ``setup_s`` is the median of all of a
#: run's.  Spread over the run, they see the host as the units do.
SETUP_REPEATS = 5

ADDS_GRAPHS: Dict[str, Callable[[], CSRGraph]] = {
    # the medium bench matrix's road cell: large diameter, small frontiers
    "adds-road": lambda: repro.grid_road(140, 80, max_weight=8192, seed=111),
    # the medium bench matrix's rmat-13 cell: low diameter, wide frontiers
    "adds-powerlaw": lambda: repro.rmat(13, edge_factor=8, max_weight=100, seed=113),
}
PASS_SOURCES = 20
#: ADDS solves a run makes at least: p90 needs ten samples beyond it.
MIN_SOLVES = 100
#: Simulated counters the per-layer metrics sum from ADDS results.
SIM_STATS = (
    "wakeups", "spurious_wakeups", "fallback_polls", "atomics", "fences",
    "pool_high_water", "total_pushed", "rotations", "high_clips", "low_clips",
    "translation_hits", "translation_misses", "delta_adjustments",
    "total_completed",
)

SERVE_GRAPHS: Dict[str, Callable[[], CSRGraph]] = {
    "road": lambda: repro.grid_road(40, 40, max_weight=8192, seed=201),
    "rmat": lambda: repro.rmat(10, edge_factor=8, max_weight=100, seed=202),
    "mesh": lambda: repro.fem_mesh(1500, band=24, stride=3, max_weight=64, seed=203),
    "gnm": lambda: repro.random_gnm(2000, 8000, max_weight=100, seed=204),
}
SESSION_OPTIONS = dict(
    solver="dijkstra", window_s=0.0, max_batch=32, cache_entries=64,
    max_pending=64, jobs=1, autostart=False,
)
EPISODE_QUERIES = 1000
#: Closed loop: this many callers submit, then the session drains.
CALLERS = 32
HOT_SOURCES = 8
HOT_FRACTION = 0.8
TARGET_FRACTION = 0.5
MAX_TARGETS = 4
#: Update batches per graph per episode: on ``serve-updates`` one per
#: 200 queries.
UPDATE_BATCHES = {"serve-hot": 0, "serve-updates": 5}
UPDATE_SIZE = 8
#: Serving-layer counts a traced serve episode reports.
SERVE_COUNTS = (
    "serve.cache.query_hit_frac", "serve.cache.lookup_hit_frac",
    "serve.cache.evictions", "serve.cache.invalidated",
    "serve.batcher.batch_mean", "serve.session.warm_solves", "serve.session.stale",
)


class BenchError(Exception):
    """The benchmark cannot measure: its inputs or anchors moved."""


@dataclass
class Outcome:
    """What one run measured."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Traced runs: every repro module's self time and calls.
    layers: Dict[str, Dict[str, float]] = field(default_factory=dict)
    profile: Optional[cProfile.Profile] = None


def timed_setups(speed: HostSpeed, build: Callable[[], object],
                 release: Callable[[object], None], times: List[float]) -> None:
    """``build()`` :data:`SETUP_REPEATS` times, appending each one's
    seconds at the reference speed to ``times``."""
    for _ in range(SETUP_REPEATS):
        scale = speed.scale()
        t0 = clock()
        obj = build()
        times.append((clock() - t0) * scale)
        release(obj)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _dist_sha256(dist: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(dist, dtype="<f8").tobytes()).hexdigest()


def _hash_graph(h, graph: CSRGraph) -> None:
    for arr in (graph.row_offsets, graph.col_indices, graph.weights):
        h.update(str(arr.dtype).encode())
        h.update(np.ascontiguousarray(arr).tobytes())


def _traced(profile: cProfile.Profile, traced_s: float, untraced_s: float,
            attempted: int, failed: int, counts: Dict[str, float]) -> Outcome:
    """The outcome of a traced run: one unit untraced, then the same unit
    under ``profile``."""
    out = Outcome(attempted=attempted, failed=failed, profile=profile)
    out.layers = layers.attribute(
        pstats.Stats(profile).stats, Path(repro.__file__).resolve().parent
    )
    out.metrics = layers.layer_metrics(out.layers)
    out.metrics["trace_overhead"] = traced_s / untraced_s
    out.metrics["traced_s"] = traced_s
    out.metrics.update(sim_counts([]))
    out.metrics.update(dict.fromkeys(SERVE_COUNTS, 0))
    out.metrics.update(counts)
    return out


# -- ADDS workloads ---------------------------------------------------------- #


def source_passes(graph: CSRGraph, seed: int, size: int = PASS_SOURCES) -> Iterator[List[int]]:
    """Endless passes of ``size`` sources.  Each pass draws one vertex
    with an out-edge from each of ``size`` equal blocks of vertex ids and
    shuffles them, so every pass spans the graph and a seed changes the
    sources without changing their spread."""
    eligible = np.flatnonzero(np.diff(graph.row_offsets) > 0)
    bounds = np.linspace(0, eligible.size, size + 1).astype(np.int64)
    rng = np.random.default_rng(seed)
    while True:
        picks = eligible[rng.integers(bounds[:-1], bounds[1:])]
        yield [int(v) for v in rng.permutation(picks)]


def adds_pass(graph: CSRGraph, matrix, sources: List[int], speed: HostSpeed,
              profile: Optional[cProfile.Profile] = None) -> Tuple[List[dict], float]:
    """Solve each source with ADDS, then NF; returns one row per source
    and the timed seconds as measured."""
    rows = []
    wall = 0.0
    for s in sources:
        scale = speed.scale()
        if profile is not None:
            profile.enable()
        t0 = clock()
        adds = repro.sssp(graph, s)
        t1 = clock()
        nf = repro.sssp(graph, s, algorithm="nf")
        t2 = clock()
        if profile is not None:
            profile.disable()
        wall += t2 - t0
        ref = oracle.reference(matrix, s)
        rows.append({
            "adds_s": (t1 - t0) * scale,
            "nf_s": (t2 - t1) * scale,
            "scale": scale,
            "bad": int(not oracle.same_bits(ref, adds.dist))
            + int(not oracle.same_bits(ref, nf.dist)),
            "work": int(adds.work_count),
            "reached": adds.reached(),
            "adds_us": adds.time_us,
            "nf_us": nf.time_us,
            "stats": {k: adds.stats.get(k, 0) for k in SIM_STATS},
        })
    return rows, wall


def sim_counts(rows: List[dict]) -> Dict[str, float]:
    """The simulated machine's counts, summed over ADDS results (zero
    for workloads without ADDS solves)."""
    def tot(key):
        return int(sum(r["stats"][key] for r in rows))

    def frac(num, den):
        return num / den if den else 0.0

    return {
        "gpu.device.wakeups": tot("wakeups"),
        "gpu.device.spurious_frac": frac(tot("spurious_wakeups"), tot("wakeups")),
        "gpu.device.fallback_polls": tot("fallback_polls"),
        "gpu.memory.atomics": tot("atomics"),
        "gpu.memory.fences": tot("fences"),
        "gpu.memory.pool_high_water": max(
            (int(r["stats"]["pool_high_water"]) for r in rows), default=0
        ),
        "core.scheduler.pushed": tot("total_pushed"),
        "core.scheduler.rotations": tot("rotations"),
        "core.scheduler.clips": tot("high_clips") + tot("low_clips"),
        "core.block_alloc.translation_hit_frac": frac(
            tot("translation_hits"), tot("translation_hits") + tot("translation_misses")
        ),
        "core.delta_controller.adjustments": tot("delta_adjustments"),
        "core.wtb.live_frac": frac(sum(r["work"] for r in rows), tot("total_completed")),
    }


def run_adds(name: str, seed: int, seconds: float, speed: HostSpeed, *, trace: bool = False,
             min_solves: int = MIN_SOLVES, pass_sources: int = PASS_SOURCES) -> Outcome:
    def build():
        return ADDS_GRAPHS[name]().prepare()

    graph = build()
    matrix = oracle.to_matrix(graph)

    # untimed warm-up from source 0, which is also the medium bench cell
    warm = repro.sssp(graph, 0)
    repro.sssp(graph, 0, algorithm="nf")
    anchor = json.loads(FINGERPRINTS.read_text())["anchors"][name]
    if _dist_sha256(warm.dist) != anchor["dist_sha256"]:
        raise BenchError(
            f"{name}: source-0 ADDS dist_sha256 differs from {anchor['cell']}"
        )

    passes = source_passes(graph, seed, pass_sources)
    if trace:
        sources = next(passes)
        untraced, wall = adds_pass(graph, matrix, sources, speed)
        profile = cProfile.Profile()
        traced, traced_wall = adds_pass(graph, matrix, sources, speed, profile)
        both = untraced + traced
        return _traced(profile, traced_wall, wall, 2 * len(both),
                       sum(r["bad"] for r in both), sim_counts(traced))

    rows: List[dict] = []
    setups: List[float] = []
    wall = 0.0
    while len(rows) < min_solves or wall < seconds:
        timed_setups(speed, build, lambda _: None, setups)
        unit, dt = adds_pass(graph, matrix, next(passes), speed)
        rows += unit
        wall += dt

    out = Outcome(attempted=2 * len(rows), failed=sum(r["bad"] for r in rows))
    exact = rows[:min_solves]  # the same sources whatever the host's speed
    m = out.metrics
    m["setup_s"] = statistics.median(setups)
    m.update(percentiles_ms("latency_ms", [r["adds_s"] for r in rows]))
    m["throughput"] = sum(r["work"] for r in rows) / sum(r["adds_s"] for r in rows)
    m["nf_ms.p50"] = statistics.median(r["nf_s"] for r in rows) * 1e3
    m["sim_speedup"] = math.exp(
        statistics.fmean(math.log(r["nf_us"] / r["adds_us"]) for r in exact)
    )
    m["adds_work_per_vertex"] = sum(r["work"] for r in exact) / sum(
        r["reached"] for r in exact
    )
    m["failed_frac"] = out.failed / out.attempted
    m["solves"] = len(rows)
    m["host_speed"] = statistics.median(r["scale"] for r in rows)
    return out


# -- serve workloads ----------------------------------------------------------- #


@dataclass
class ServeInputs:
    trace: List[Tuple[str, int, Optional[Tuple[int, ...]]]]
    #: graph id -> update batches, applied in order
    batches: Dict[str, list]
    #: burst index -> [(graph id, batch index)] applied after that burst
    schedule: Dict[int, List[Tuple[str, int]]]


def query_trace(sizes: Dict[str, int], rng: np.random.Generator, queries: int):
    """A skewed trace: a few hot sources per graph take most queries,
    half the queries name a handful of targets.  The shares of graphs,
    hot queries and target queries are exact, in random order, so that
    episodes differ in which queries they ask but not in their mix."""
    ids = sorted(sizes)
    hot = {gid: rng.choice(sizes[gid], HOT_SOURCES, replace=False) for gid in ids}

    def shuffled(share_of):
        return rng.permutation([share_of(i) for i in range(queries)])

    graph_of = shuffled(lambda i: ids[i % len(ids)])
    is_hot = shuffled(lambda i: i < HOT_FRACTION * queries)
    has_targets = shuffled(lambda i: i < TARGET_FRACTION * queries)
    trace = []
    for gid, hot_query, targeted in zip(graph_of, is_hot, has_targets):
        n = sizes[gid]
        if hot_query:
            source = int(hot[gid][int(rng.integers(HOT_SOURCES))])
        else:
            source = int(rng.integers(n))
        targets = None
        if targeted:
            k = int(rng.integers(1, MAX_TARGETS + 1))
            targets = tuple(int(t) for t in rng.integers(0, n, size=k))
        trace.append((str(gid), source, targets))
    return trace


def serve_inputs(seed: int, episode: int, queries: int, update_batches: int) -> ServeInputs:
    """Episode ``episode`` of a run with ``seed``: each episode has its own
    trace and batches, so a run averages over several."""
    rng = np.random.default_rng([seed, episode])
    pristine = {gid: build() for gid, build in SERVE_GRAPHS.items()}
    trace = query_trace({gid: g.num_vertices for gid, g in pristine.items()}, rng, queries)
    ids = sorted(pristine)
    batches = {
        gid: update_stream(pristine[gid], batches=update_batches,
                           batch_size=UPDATE_SIZE, seed=int(rng.integers(2**31)))
        for gid in ids
    } if update_batches else {}
    # spread the batches evenly over the bursts, round-robin over graphs
    bursts = -(-queries // CALLERS)
    total = update_batches * len(ids)
    schedule: Dict[int, List[Tuple[str, int]]] = {}
    for k in range(total):
        schedule.setdefault((k + 1) * bursts // (total + 1), []).append(
            (ids[k % len(ids)], k // len(ids))
        )
    return ServeInputs(trace, batches, schedule)


def generations(inputs: ServeInputs) -> Dict[Tuple[str, int], object]:
    """Oracle matrices per ``(graph id, generation)``: generation ``k`` is
    the pristine graph after its first ``k`` update batches."""
    mats = {}
    for gid, build in SERVE_GRAPHS.items():
        graph = build()
        mats[(gid, 0)] = oracle.to_matrix(graph)
        for k, batch in enumerate(inputs.batches.get(gid, ())):
            graph = apply_updates(graph, batch).graph
            mats[(gid, k + 1)] = oracle.to_matrix(graph)
    return mats


def failed_answers(matrices: Dict[Tuple[str, int], object], answers: list) -> int:
    """How many of ``answers``, each ``(graph id, generation, source,
    targets, future)``, failed or differ from the oracle."""
    wanted = defaultdict(set)
    for gid, gen, source, _targets, _fut in answers:
        wanted[(gid, gen)].add(source)
    refs = {key: oracle.references(matrices[key], sorted(sources))
            for key, sources in wanted.items()}
    failed = 0
    for gid, gen, source, targets, fut in answers:
        if not fut.done() or fut.exception() is not None:
            failed += 1
            continue
        r = fut.result()
        if not oracle.answer_ok(refs[(gid, gen)][source], r.dist, targets, r.target_dist):
            failed += 1
    return failed


def serve_setup() -> Session:
    session = Session(**SESSION_OPTIONS)
    for gid, build in SERVE_GRAPHS.items():
        session.add_graph(gid, build())
    return session


def serve_episode(inputs: ServeInputs, speed: HostSpeed,
                  profile: Optional[cProfile.Profile] = None) -> dict:
    """Replay the episode on a fresh session, burst by burst, checking
    each burst's answers once its timer stops."""
    matrices = generations(inputs)
    session = serve_setup()
    latencies: List[float] = []
    update_s: List[float] = []
    scales: List[float] = []
    wall = scaled_wall = 0.0
    failed = 0
    applied = dict.fromkeys(SERVE_GRAPHS, 0)

    def stamp(t0, scale):
        return lambda _fut: latencies.append((clock() - t0) * scale)

    for burst, first in enumerate(range(0, len(inputs.trace), CALLERS)):
        scale = speed.scale()
        scales.append(scale)
        answers = []
        if profile is not None:
            profile.enable()
        start = clock()
        for gid, source, targets in inputs.trace[first:first + CALLERS]:
            t0 = clock()
            try:
                fut = session.submit(gid, source, targets)
            except AdmissionError:
                failed += 1
                continue
            fut.add_done_callback(stamp(t0, scale))
            answers.append((gid, applied[gid], source, targets, fut))
        session.serve_pending()
        for gid, k in inputs.schedule.get(burst, ()):
            t0 = clock()
            session.apply_updates(gid, inputs.batches[gid][k])
            update_s.append((clock() - t0) * scale)
            applied[gid] += 1
        dt = clock() - start
        if profile is not None:
            profile.disable()
        wall += dt
        scaled_wall += dt * scale
        failed += failed_answers(matrices, answers)

    counters = session.counters()
    cache = session.cache.stats()
    counts = {
        "serve.cache.query_hit_frac": counters["serve_cache_hits"] / len(inputs.trace),
        "serve.cache.lookup_hit_frac": cache["hit_rate"],
        "serve.cache.evictions": int(cache["evictions"]),
        "serve.cache.invalidated": int(cache["invalidated"]),
        "serve.batcher.batch_mean": statistics.fmean(session.batch_sizes),
        "serve.session.warm_solves": int(counters["serve_incremental"]),
        "serve.session.stale": int(counters["serve_stale"]),
    }
    session.close()
    return {
        "wall": wall, "scaled_wall": scaled_wall, "scales": scales,
        "latencies": latencies, "update_s": update_s,
        "attempted": len(inputs.trace), "failed": failed,
        "plans": len(session.batch_sizes), "counts": counts,
    }


def run_serve(name: str, seed: int, seconds: float, speed: HostSpeed, *, trace: bool = False,
              queries: int = EPISODE_QUERIES,
              update_batches: Optional[int] = None) -> Outcome:
    if update_batches is None:
        update_batches = UPDATE_BATCHES[name]

    def episode(k: int, profile: Optional[cProfile.Profile] = None) -> dict:
        return serve_episode(serve_inputs(seed, k, queries, update_batches), speed, profile)

    if trace:
        untraced = episode(0)
        profile = cProfile.Profile()
        traced = episode(0, profile)
        return _traced(profile, traced["wall"], untraced["wall"],
                       untraced["attempted"] + traced["attempted"],
                       untraced["failed"] + traced["failed"], traced["counts"])

    episodes: List[dict] = []
    setups: List[float] = []
    while not episodes or sum(e["wall"] for e in episodes) < seconds:
        timed_setups(speed, serve_setup, Session.close, setups)
        episodes.append(episode(len(episodes)))

    out = Outcome(
        attempted=sum(e["attempted"] for e in episodes),
        failed=sum(e["failed"] for e in episodes),
    )
    latencies = [x for e in episodes for x in e["latencies"]]
    m = out.metrics
    m["setup_s"] = statistics.median(setups)
    # queries resolved by one plan share a completion instant
    plans = sum(e["plans"] for e in episodes)
    m.update(percentiles_ms("latency_ms", latencies, independent=plans))
    m["throughput"] = out.attempted / sum(e["scaled_wall"] for e in episodes)
    update_s = [x for e in episodes for x in e["update_s"]]
    if update_s:
        m["update_ms.p50"] = statistics.median(update_s) * 1e3
    m["failed_frac"] = out.failed / out.attempted
    m["queries"] = len(latencies)
    m["plans"] = plans
    m["host_speed"] = statistics.median(x for e in episodes for x in e["scales"])
    return out


# -- registry ------------------------------------------------------------------ #

WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "adds-road": run_adds,
    "adds-powerlaw": run_adds,
    "serve-hot": run_serve,
    "serve-updates": run_serve,
}


def fingerprint(name: str) -> str:
    """sha256 of the workload's seed-0 inputs: the CSR arrays, the
    sources, the query trace and the update batches."""
    h = hashlib.sha256(name.encode())
    if name in ADDS_GRAPHS:
        graph = ADDS_GRAPHS[name]()
        _hash_graph(h, graph)
        passes = source_passes(graph, 0)
        h.update(json.dumps([next(passes) for _ in range(MIN_SOLVES // PASS_SOURCES)]).encode())
        return h.hexdigest()
    for gid, build in SERVE_GRAPHS.items():
        h.update(gid.encode())
        _hash_graph(h, build())
    inputs = serve_inputs(0, 0, EPISODE_QUERIES, UPDATE_BATCHES[name])
    batches = {
        gid: [[(u.kind, int(u.src), int(u.dst), None if u.weight is None else float(u.weight))
               for u in batch] for batch in bs]
        for gid, bs in inputs.batches.items()
    }
    h.update(json.dumps([inputs.trace, batches, sorted(inputs.schedule.items())],
                        sort_keys=True).encode())
    return h.hexdigest()


def run(name: str, seed: int, seconds: float, *, trace: bool = False, **counts) -> Outcome:
    """Check the workload's input fingerprint, then run it.  ``counts``
    shrink the workload (tests only)."""
    speed = HostSpeed(simulator=name in ADDS_GRAPHS)
    # the process's footprint before the workload allocates anything:
    # interpreter, numpy, scipy, repro and the host-speed kernel
    floor_mb = _peak_rss_mb()
    pinned = json.loads(FINGERPRINTS.read_text())["workloads"][name]
    if fingerprint(name) != pinned:
        raise BenchError(
            f"{name}: seed-0 inputs no longer match fingerprints.json; a "
            f"generator changed, so results would not compare with earlier runs"
        )
    out = WORKLOADS[name](name, seed, seconds, speed, trace=trace, **counts)
    if not trace:
        out.metrics["peak_rss_mb"] = _peak_rss_mb() - floor_mb
    return out
