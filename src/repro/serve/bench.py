"""``python -m repro serve-bench``: replay a synthetic query trace.

The serving analogue of :mod:`repro.bench`: where ``bench`` times
*solves*, ``serve-bench`` exercises the whole serving path — admission,
window batching, multi-query coalescing, the distance cache — by
replaying a deterministic synthetic trace (default ~10k queries) over
suite graphs and reporting service-level numbers: latency percentiles,
throughput, the batch-size histogram, and cache hit rate, as a
schema-versioned JSON payload (see ``docs/schema.md``).

The trace is seeded and skewed the way query traffic actually is: most
queries come from a small *hot set* of sources per graph (hit the
cache), the rest are uniform cold sources (force solves); about half
name explicit targets (exercise landmark target slicing).  Replay
happens in bursts through a synchronous session
(``autostart=False``), so runs are deterministic — no thread timing in
the numbers.

With verification on (the default), every distinct ``(graph, source)``
that was served is re-solved **directly** — fresh graph build,
straight solver call, no session, no cache — and compared
bit-for-bit against the served full distance array.  Zero tolerated
mismatches: this is the acceptance gate that serving infrastructure
never changes an answer.

``--updates`` adds a dynamic-graph dimension (see ``docs/dynamic.md``):
edge-update batches are interleaved through the replay via
:meth:`Session.apply_updates`, the whole mix is replayed twice (warm
incremental re-solves vs forced from-scratch re-solves), the two passes
must answer bit-identically, and direct verification runs per *(graph,
generation, source)* against an independently rebuilt copy of each
generation.  The payload's ``updates`` block reports the
incremental-vs-full wall ratio.
"""

from __future__ import annotations

import time
from collections import Counter as TallyCounter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.common import SolveRequest, get_solver
from repro.engine.scheduler import sweep_options
from repro.errors import ServeError
from repro.graphs.csr import CSRGraph
from repro.graphs.suite import SuiteEntry, build_suite
from repro.serve.session import Session

__all__ = [
    "SERVE_BENCH_SCHEMA_VERSION",
    "run_serve_bench",
    "synthesize_trace",
]

#: Version of the JSON payload emitted by :func:`run_serve_bench`.
SERVE_BENCH_SCHEMA_VERSION = 3

#: (graph_id, source, targets-or-None) — one query of a replay trace.
TraceQuery = Tuple[str, int, Optional[Tuple[int, ...]]]

#: Share of :func:`synthesize_trace` queries drawn from the hot sources
#: (the cache-friendly mass).
HOT_FRACTION = 0.8
#: Share of queries that ask for explicit targets instead of the full
#: array, and the most targets such a query asks for.
TARGET_FRACTION = 0.5
MAX_TARGETS = 4


def synthesize_trace(
    graphs: Dict[str, int],
    n_queries: int,
    *,
    seed: int = 0,
    hot_sources: int = 8,
) -> List[TraceQuery]:
    """Generate a deterministic skewed query trace.

    ``graphs`` maps graph id -> vertex count.  Per graph a hot set of
    ``hot_sources`` vertices is drawn once; each query picks a graph
    uniformly, then a hot source with probability :data:`HOT_FRACTION`
    or a uniform cold source otherwise, and with probability
    :data:`TARGET_FRACTION` asks for 1..:data:`MAX_TARGETS` explicit
    targets instead of the full array.
    """
    if not graphs:
        raise ServeError("synthesize_trace needs at least one graph")
    rng = np.random.default_rng(seed)
    ids = sorted(graphs)
    hot: Dict[str, np.ndarray] = {
        gid: rng.choice(graphs[gid], size=min(hot_sources, graphs[gid]), replace=False)
        for gid in ids
    }
    trace: List[TraceQuery] = []
    for _ in range(n_queries):
        gid = ids[int(rng.integers(len(ids)))]
        n = graphs[gid]
        if rng.random() < HOT_FRACTION:
            source = int(hot[gid][int(rng.integers(hot[gid].size))])
        else:
            source = int(rng.integers(n))
        targets: Optional[Tuple[int, ...]] = None
        if rng.random() < TARGET_FRACTION:
            k = int(rng.integers(1, MAX_TARGETS + 1))
            targets = tuple(int(t) for t in rng.integers(0, n, size=k))
        trace.append((gid, source, targets))
    return trace


def _percentiles_ms(latencies_s: Sequence[float]) -> Dict[str, float]:
    arr = np.asarray(latencies_s, dtype=np.float64) * 1e3
    if arr.size == 0:
        return {"p50": 0.0, "p90": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}
    return {
        "p50": float(np.percentile(arr, 50)),
        "p90": float(np.percentile(arr, 90)),
        "p99": float(np.percentile(arr, 99)),
        "mean": float(arr.mean()),
        "max": float(arr.max()),
    }


def _fresh_graph(entry: SuiteEntry):
    """An independent build of a suite entry — the verify path must not
    share arrays with the session, whose weights update in place."""
    if entry.spec is not None:
        g = entry.spec.build()
    else:
        g = entry.factory()
    return g


def run_serve_bench(
    *,
    queries: int = 10_000,
    scale: float = 0.25,
    max_graphs: int = 4,
    categories: Optional[List[str]] = None,
    solver: str = "dijkstra",
    options: Optional[Dict[str, object]] = None,
    max_batch: int = 32,
    cache_entries: int = 64,
    burst: int = 32,
    seed: int = 0,
    jobs: int = 1,
    spec=None,
    cost=None,
    tag: Optional[str] = None,
    verify: bool = True,
    updates: int = 0,
    update_size: int = 8,
    progress: Optional[Callable[[str], None]] = None,
) -> dict:
    """Replay a synthetic trace through a :class:`Session`; return the
    schema-versioned payload.

    Defaults are sized so the full 10k-query replay finishes in seconds:
    a handful of quarter-scale suite graphs and the ``dijkstra`` CPU
    reference.  ``burst`` is how many submissions accumulate before each
    synchronous drain — the deterministic stand-in for the wall-clock
    window an asynchronous session would use; the replay never sleeps.

    ``updates > 0`` turns the replay into a sustained **update + query
    mix**: per graph, ``updates`` edge-update batches of ``update_size``
    updates (seeded from ``seed``) are applied through
    :meth:`Session.apply_updates` at evenly spaced points of the trace.
    The same trace and update schedule then run **twice** — once with
    incremental (warm) re-solves, once forcing from-scratch re-solves —
    and the payload's ``updates`` block reports both walls and their
    ratio (the incremental-vs-full speedup), after checking the two
    passes answered every query bit-identically.  Direct verification
    re-solves each distinct ``(graph, generation, source)`` on an
    independently rebuilt copy of that generation's graph.

    A verification mismatch is reported in the payload, not raised — the
    CLI turns a nonzero mismatch count into a nonzero exit.
    """
    if queries < 1:
        raise ServeError(f"queries must be >= 1 (got {queries})")
    if burst < 1:
        raise ServeError(f"burst must be >= 1 (got {burst})")
    if updates < 0:
        raise ServeError(f"updates must be >= 0 (got {updates})")
    if update_size < 1:
        raise ServeError(f"update_size must be >= 1 (got {update_size})")
    options = sweep_options([solver], options)[solver]  # fail fast
    say = progress or (lambda msg: None)

    entries = build_suite(scale=scale, categories=categories, max_graphs=max_graphs)
    if not entries:
        raise ServeError("suite selection produced no graphs")
    by_id: Dict[str, SuiteEntry] = {e.name: e for e in entries}

    def _make_session(incremental: bool = True) -> Session:
        session = Session(
            solver=solver,
            options=options,
            max_batch=max_batch,
            max_pending=max(burst * 2, 64),
            cache_entries=cache_entries,
            jobs=jobs,
            spec=spec,
            cost=cost,
            autostart=False,
            incremental=incremental,
        )
        for e in entries:
            # each session gets an independent build: SuiteEntry.graph()
            # memoizes, and apply_updates patches weights in place, so a
            # shared object would leak pass-1 updates into pass 2
            g = _fresh_graph(e)
            session.add_graph(
                e.name,
                CSRGraph(
                    row_offsets=g.row_offsets,
                    col_indices=g.col_indices,
                    weights=g.weights,
                    name=e.name,
                ),
            )
        return session

    session = _make_session()
    graphs_meta = []
    sizes: Dict[str, int] = {}
    for e in entries:
        g = session.graph(e.name)
        sizes[e.name] = g.num_vertices
        graphs_meta.append(
            {
                "id": e.name,
                "category": e.category,
                "vertices": int(g.num_vertices),
                "edges": int(g.num_edges),
            }
        )
    say(f"loaded {len(entries)} graphs (scale {scale:g})")

    trace = synthesize_trace(sizes, queries, seed=seed)

    # update schedule: (trace index -> [(graph id, batch)]), batches
    # generated per graph from its pristine build so they chain in order
    events: Dict[int, List[Tuple[str, object]]] = {}
    streams: Dict[str, list] = {}
    if updates:
        from repro.graphs.generators import update_stream

        ids = sorted(sizes)
        for j, gid in enumerate(ids):
            streams[gid] = update_stream(
                _fresh_graph(by_id[gid]),
                batches=updates,
                batch_size=update_size,
                seed=seed * 7919 + j,
            )
        total = updates * len(ids)
        for k in range(total):
            pos = min(len(trace) - 1, (k + 1) * len(trace) // (total + 1))
            gid = ids[k % len(ids)]
            events.setdefault(pos, []).append(
                (gid, streams[gid][k // len(ids)])
            )
    say(
        f"replaying {len(trace)} queries in bursts of {burst}"
        + (f" with {updates * len(sizes)} update batches" if updates else "")
    )

    def _replay(sess: Session):
        """One full pass; returns (results, generation-at-answer, wall)."""
        applied: Dict[str, int] = {gid: 0 for gid in sizes}
        results = []
        gens: List[int] = []
        t0 = time.monotonic()
        pending: List[Tuple[object, str]] = []

        def drain():
            sess.serve_pending()
            for f, gid in pending:
                results.append(f.result())
                gens.append(applied[gid])
            pending.clear()

        for i, (gid, source, targets) in enumerate(trace):
            pending.append((sess.submit(gid, source, targets), gid))
            if len(pending) >= burst or i == len(trace) - 1:
                drain()
            if i in events:
                drain()  # answers before the update keep their generation
                for egid, batch in events[i]:
                    sess.apply_updates(egid, batch)
                    applied[egid] += 1
        drain()
        return results, gens, time.monotonic() - t0

    updates_block: Optional[dict] = None
    with session:
        results, gens, wall_s = _replay(session)

        if updates:
            say("re-replaying with incremental re-solves disabled")
            with _make_session(incremental=False) as full_session:
                full_results, _full_gens, full_wall_s = _replay(full_session)
            pass_mismatches = sum(
                1
                for a, b in zip(results, full_results)
                if not np.array_equal(a.dist, b.dist)
            )
            updates_block = {
                "batches": updates * len(sizes),
                "update_size": update_size,
                "incremental_wall_s": wall_s,
                "full_wall_s": full_wall_s,
                "speedup": (full_wall_s / wall_s) if wall_s > 0 else 0.0,
                "incremental_solves": session.counters()["serve_incremental"],
                "pass_mismatches": int(pass_mismatches),
            }

        latencies = [r.latency_s for r in results]
        hist = TallyCounter(session.batch_sizes)
        cache_stats = session.cache.stats()
        counters = session.counters()

        verify_block: dict = {"enabled": bool(verify), "checked": 0, "mismatches": []}
        if verify:
            served: Dict[Tuple[str, int, int], np.ndarray] = {}
            for r, gen in zip(results, gens):
                served.setdefault((r.graph_id, gen, r.source), r.dist)
            say(
                f"verifying {len(served)} distinct (graph, generation, "
                f"source) solves directly"
            )
            info = get_solver(solver)
            fresh: Dict[Tuple[str, int], object] = {}
            for gid in sorted(sizes):
                g = _fresh_graph(by_id[gid])
                fresh[(gid, 0)] = g
                for gen in range(1, len(streams.get(gid, ())) + 1):
                    from repro.dynamic import apply_updates as _apply

                    prev = fresh[(gid, gen - 1)]
                    # weight-only batches patch in place: clone so each
                    # generation keeps an independent snapshot
                    clone = CSRGraph(
                        prev.row_offsets.copy(),
                        prev.col_indices.copy(),
                        prev.weights.copy(),
                        name=prev.name,
                    )
                    fresh[(gid, gen)] = _apply(clone, streams[gid][gen - 1]).graph
            mismatches = []
            for (gid, gen, source), dist in sorted(served.items()):
                direct = info.solve(
                    SolveRequest(
                        graph=fresh[(gid, gen)], source=source,
                        spec=spec, cost=cost, options=options,
                    )
                )
                if not np.array_equal(direct.dist, dist):
                    bad = int(np.flatnonzero(direct.dist != dist)[0])
                    mismatches.append(
                        {
                            "graph": gid,
                            "generation": gen,
                            "source": source,
                            "first_vertex": bad,
                            "served": float(dist[bad]),
                            "direct": float(direct.dist[bad]),
                        }
                    )
            verify_block["checked"] = len(served)
            verify_block["mismatches"] = mismatches

    return {
        "schema_version": SERVE_BENCH_SCHEMA_VERSION,
        "kind": "serve-bench",
        "tag": tag,
        "config": {
            "queries": queries,
            "scale": scale,
            "max_graphs": max_graphs,
            "categories": categories,
            "solver": solver,
            "options": options.to_json(),
            "max_batch": max_batch,
            "cache_entries": cache_entries,
            "burst": burst,
            "seed": seed,
            "jobs": jobs,
            "updates": updates,
            "update_size": update_size,
        },
        "graphs": graphs_meta,
        "results": {
            "served": len(results),
            "wall_s": wall_s,
            "throughput_qps": len(results) / wall_s if wall_s > 0 else 0.0,
            "latency_ms": _percentiles_ms(latencies),
            "batch_size_hist": {str(k): int(v) for k, v in sorted(hist.items())},
            "batch_mean": (
                float(np.mean(session.batch_sizes)) if session.batch_sizes else 0.0
            ),
            "cache": cache_stats,
            "counters": counters,
        },
        "updates": updates_block,
        "verify": verify_block,
    }
