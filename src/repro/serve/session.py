"""The long-lived serving session: graphs loaded once, queries batched.

A :class:`Session` is the front-end of :mod:`repro.serve`:

1. **Load time** — :meth:`Session.add_graph` registers a graph under an
   id; solvers read its arrays as they are, so loading builds nothing.
2. **Admission** — :meth:`Session.submit` enqueues a query and returns a
   :class:`~concurrent.futures.Future`.  Past ``max_pending`` waiting
   queries it raises :class:`~repro.errors.AdmissionError` immediately:
   back-pressure at the door, not a deferred failure.
3. **Batching** — queries accumulate for ``window_s``; the
   :class:`~repro.serve.batcher.Batcher` then coalesces same-graph
   queries into :class:`~repro.serve.batcher.BatchPlan`\\ s (unique
   sources deduplicated, ≤ ``max_batch`` solves per dispatch).
4. **Execution** — each plan's uncached sources run as ordinary engine
   cells through :func:`~repro.engine.worker.execute_cell`, inline on
   the serving thread (``jobs=1``) or on the session's process pool;
   cached sources are served from the
   :class:`~repro.serve.cache.DistanceCache` (landmark reuse: one full
   solve answers every later query from that source).
5. **Demux** — every query's future resolves to a :class:`QueryResult`
   carrying the full distance array (read-only), sliced target
   distances when requested, and latency metadata.  A query whose
   deadline passed resolves exceptionally with
   :class:`~repro.errors.ServeTimeout` — before dispatch when possible
   (planning drops it), after the solve otherwise (the answer arrived
   too late; it still warms the cache).

Two drive modes share all of that machinery: ``autostart=True`` (the
default) runs a daemon batcher thread — submit from anywhere, futures
complete asynchronously; ``autostart=False`` is the synchronous mode
used by tests and the bench replay — the caller invokes
:meth:`Session.serve_pending` to drain deterministically.

Graphs are not necessarily static: :meth:`Session.apply_updates` feeds
an edge-update batch (:mod:`repro.dynamic`) to a loaded graph.  Weight
changes patch in place with *selective* cache invalidation (a cached
source survives when :func:`~repro.dynamic.frontier.changes_affect`
proves nothing moved); topology changes swap in a rebuilt graph and
drop the whole graph's cache.  Invalidated entries are stashed as warm
starts — old distances plus net deltas — so the next solve of that
source is incremental when the solver takes ``warm_from=``.  Every
update bumps the graph's generation, and answers whose solve straddled
a generation change are failed at demux instead of served or cached.

Counters (``SERVE_COUNTER_KEYS``) live in a plain dict of ``int`` counts
(:meth:`Session.counters`): every submission increments
``serve_admitted`` or ``serve_rejected``; every answered query
increments exactly one of ``serve_cache_hits`` (source was cached at
planning time), ``serve_batched`` (source solved by this dispatch) or
``serve_timeouts``.  Batch sizes are kept as raw samples, one per
dispatched plan (:attr:`Session.batch_sizes`).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from numbers import Integral
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.common import Options, get_solver
from repro.engine.scheduler import Cell, sweep_options
from repro.engine.worker import Outcome, execute_cell, future_outcome
from repro.errors import AdmissionError, EngineError, ServeError, ServeTimeout
from repro.graphs.csr import CSRGraph
from repro.serve.batcher import Batcher, BatchPlan, Query
from repro.serve.cache import DistanceCache
from repro.trace import SERVE_COUNTER_KEYS

__all__ = ["QueryResult", "Session"]


def _is_vertex_id(v: object, n: int) -> bool:
    """Whether ``v`` names one of ``n`` vertices.  Python or NumPy
    integers only: ``int()`` would silently truncate a float or parse a
    string, and a bool is no vertex id."""
    return isinstance(v, Integral) and not isinstance(v, bool) and 0 <= v < n


@dataclass(frozen=True)
class QueryResult:
    """What a query's future resolves to."""

    graph_id: str
    source: int
    #: Full distance array from ``source`` (read-only, shared with the
    #: cache) — bit-identical to a direct single-source solve.
    dist: np.ndarray
    #: ``dist[targets]`` when the query named targets, else ``None``.
    target_dist: Optional[np.ndarray]
    targets: Optional[Tuple[int, ...]]
    #: Whether the answer came from the distance cache (landmark reuse)
    #: rather than a solve dispatched for this batch.
    from_cache: bool
    #: Queries coalesced into the dispatch that served this one.
    batch_size: int
    #: Submission→completion, on the session's monotonic clock.
    latency_s: float
    #: Wall-clock epoch timestamps (submission / completion).
    submitted_at: float
    completed_at: float


class Session:
    """A serving session over a fixed set of prebuilt graphs.

    Parameters
    ----------
    solver:
        Registry name every query is answered with (default
        ``"dijkstra"``, the fast exact CPU reference; any registered
        solver works — device solvers get ``spec``/``cost``).
    options:
        Per-solve options applied to every solve this session dispatches
        (e.g. ``delta`` for ``adds``).  An option the solver does not
        take raises :class:`~repro.errors.EngineError` at construction,
        not per query (:func:`~repro.engine.sweep_options`).
    window_s / max_batch:
        Batching window and per-dispatch unique-source cap (see
        :class:`~repro.serve.batcher.Batcher`).
    max_pending:
        Admission limit on *waiting* queries; submissions beyond it
        raise :class:`AdmissionError`.
    cache_entries:
        Distance-cache capacity (full solves retained across batches).
    jobs:
        The default ``1`` solves inline on the serving thread —
        deterministic, and the in-memory graphs are never pickled.
        ``N > 1`` solves on a pool of ``N`` worker processes the session
        owns; each cell pickles its graph to the worker, and a pool that
        lost a worker is replaced at the next plan.
    spec / cost:
        Device model forwarded to each dispatched :class:`SolveRequest`
        (used by device solvers only).
    autostart:
        Start the daemon batcher thread (asynchronous mode).  With
        ``False`` the caller drains via :meth:`serve_pending`.
    incremental:
        Allow warm (incremental) re-solves after :meth:`apply_updates`
        when the solver takes ``warm_from=`` (default).  ``False`` forces
        every invalidated source back through a from-scratch solve —
        the baseline ``serve-bench --updates`` compares against.
    """

    def __init__(
        self,
        *,
        solver: str = "dijkstra",
        options: Optional[Dict[str, object]] = None,
        window_s: float = 0.005,
        max_batch: int = 32,
        max_pending: int = 1024,
        cache_entries: int = 64,
        jobs: int = 1,
        spec=None,
        cost=None,
        autostart: bool = True,
        incremental: bool = True,
    ) -> None:
        # fail at construction, not first query
        self.options = sweep_options([solver], options)[solver]
        if max_pending < 1:
            raise ServeError(f"max_pending must be >= 1 (got {max_pending})")
        if jobs < 1:
            raise EngineError(f"jobs must be >= 1 (got {jobs})")
        self.solver = solver
        #: Warm re-solves need both a capable solver and the session-level
        #: opt-in (``incremental=False`` forces from-scratch re-solves —
        #: the comparison baseline ``serve-bench --updates`` measures).
        self._warm_starts = (
            get_solver(solver).accepts("warm_from") and incremental
        )
        self.max_pending = max_pending
        self.spec = spec
        self.cost = cost
        self.batcher = Batcher(window_s=window_s, max_batch=max_batch)
        self.cache = DistanceCache(cache_entries)
        self.jobs = jobs
        self._pool = ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else None
        #: Solves dispatched over the session's lifetime.
        self.dispatched = 0
        self._counters: Dict[str, int] = dict.fromkeys(SERVE_COUNTER_KEYS, 0)
        #: Raw batch-size samples, one per dispatched plan.
        self.batch_sizes: List[int] = []
        self._graphs: Dict[str, CSRGraph] = {}
        #: Per-graph update generation, bumped by any mutation of the
        #: registry (add/remove/apply_updates).  A solve dispatched under
        #: one generation whose graph changed before it finished is
        #: discarded at demux — an in-place weight patch can tear a
        #: concurrent solve, so its answer cannot be trusted or cached.
        self._generation: Dict[str, int] = {}
        #: Warm-start stash: invalidated cache entries kept as
        #: ``(old dist, net EdgeDeltas since)`` so the next solve of that
        #: (graph, source) can re-seed incrementally instead of from
        #: scratch.  Bounded like the cache; only used when the session
        #: solver takes ``warm_from=``.
        self._warm: "OrderedDict[Tuple[str, int], Tuple[np.ndarray, object]]" = (
            OrderedDict()
        )
        self._pending: Deque[Query] = deque()
        self._lock = threading.Condition()
        self._closed = False
        self._thread: Optional[threading.Thread] = None
        if autostart:
            self._thread = threading.Thread(
                target=self._serve_loop, name="repro-serve-batcher", daemon=True
            )
            self._thread.start()

    # -- graph registry ----------------------------------------------------- #

    def add_graph(self, graph_id: str, graph: CSRGraph) -> CSRGraph:
        """Register ``graph`` under ``graph_id``.  Replacing an existing
        id invalidates its cached distances."""
        with self._lock:
            if self._closed:
                raise ServeError("session is closed")
            if graph_id in self._graphs:
                self.cache.invalidate(graph_id)
            self._graphs[graph_id] = graph
            self._bump_generation(graph_id)
        return graph

    def remove_graph(self, graph_id: str) -> None:
        with self._lock:
            self._graphs.pop(graph_id, None)
            self.cache.invalidate(graph_id)
            self._bump_generation(graph_id)

    def apply_updates(self, graph_id: str, batch) -> "object":
        """Apply an :class:`~repro.dynamic.updates.UpdateBatch` to a
        loaded graph; returns the :class:`~repro.dynamic.updates.
        UpdateResult`.

        Weight-only batches patch the loaded graph in place and
        invalidate **selectively**: each cached source is kept when
        :func:`~repro.dynamic.frontier.changes_affect` proves the batch
        cannot move any of its distances.  Topology-changing batches
        swap in the rebuilt graph and drop the whole
        graph's cache.  Either way, every invalidated entry is stashed
        with the net deltas since it was computed, so a later query for
        that source re-solves incrementally from the warm distances
        (when the session solver takes ``warm_from=``).  Any update bumps
        the graph's generation: solves already in flight on the old
        state are discarded at demux rather than served or cached.
        """
        from repro.dynamic.frontier import changes_affect
        from repro.dynamic.updates import apply_updates as _apply

        with self._lock:
            if self._closed:
                raise ServeError("session is closed")
            graph = self.graph(graph_id)
            result = _apply(graph, batch)  # raises DynamicError untouched
            self._bump_generation(graph_id, drop_warm=False)
            # stashed entries predate this batch: extend their deltas
            if result.deltas.size:
                for key in list(self._warm):
                    if key[0] == graph_id:
                        d0, acc = self._warm[key]
                        self._warm[key] = (d0, acc.merge(result.deltas))
            if result.topology_changed:
                self._graphs[graph_id] = result.graph
                for src in self.cache.sources(graph_id):
                    self._stash_warm(graph_id, src, result.deltas)
                self.cache.invalidate(graph_id)
            elif result.deltas.size:
                for src in self.cache.sources(graph_id):
                    dist = self.cache.peek(graph_id, src)
                    if changes_affect(dist, result.deltas):
                        self._stash_warm(graph_id, src, result.deltas)
                        self.cache.drop(graph_id, src)
            return result

    def _bump_generation(self, graph_id: str, *, drop_warm: bool = True) -> None:
        self._generation[graph_id] = self._generation.get(graph_id, 0) + 1
        if drop_warm:
            # replacement/removal severs the delta chain: stashed warm
            # starts no longer describe any loaded graph
            for key in [k for k in self._warm if k[0] == graph_id]:
                del self._warm[key]

    def _stash_warm(self, graph_id: str, source: int, deltas) -> None:
        key = (graph_id, int(source))
        dist = self.cache.peek(graph_id, source)
        if dist is None:
            return
        # a prior stash for this key is superseded: the cached distances
        # are newer, and need only this batch's deltas
        self._warm.pop(key, None)
        self._warm[key] = (dist, deltas)
        while len(self._warm) > self.cache.max_entries:
            self._warm.popitem(last=False)

    def invalidate(self, graph_id: str) -> int:
        """Drop all cached distances of ``graph_id`` (e.g. after its
        weights changed upstream); the graph itself stays loaded."""
        with self._lock:
            return self.cache.invalidate(graph_id)

    def graph(self, graph_id: str) -> CSRGraph:
        try:
            return self._graphs[graph_id]
        except KeyError:
            raise ServeError(
                f"unknown graph id {graph_id!r}; loaded: {sorted(self._graphs)}"
            ) from None

    # -- admission ----------------------------------------------------------- #

    def submit(
        self,
        graph_id: str,
        source: int,
        targets: Optional[Sequence[int]] = None,
        *,
        timeout_s: Optional[float] = None,
    ) -> "Future[QueryResult]":
        """Enqueue one query; the future resolves to a
        :class:`QueryResult` (or :class:`ServeTimeout` /
        :class:`ServeError` exceptionally).  ``timeout_s`` is the
        query's deadline, in seconds from submission; ``None`` (default)
        sets none.

        Raises :class:`AdmissionError` synchronously when the pending
        queue is full and :class:`ServeError` for unknown graph ids or
        out-of-range vertices — bad requests never consume queue space.
        """
        with self._lock:
            if self._closed:
                raise ServeError("session is closed")
            graph = self.graph(graph_id)
            n = graph.num_vertices
            if not _is_vertex_id(source, n):
                raise ServeError(
                    f"source {source!r} not an integer or out of range for "
                    f"{graph_id!r} ({n} vertices)"
                )
            tgt: Optional[Tuple[int, ...]] = None
            if targets is not None:
                tgt = tuple(targets)
                bad = [t for t in tgt if not _is_vertex_id(t, n)]
                if bad:
                    raise ServeError(
                        f"targets {bad!r} not integers or out of range for "
                        f"{graph_id!r} ({n} vertices)"
                    )
                tgt = tuple(int(t) for t in tgt)
            if len(self._pending) >= self.max_pending:
                self._counters["serve_rejected"] += 1
                raise AdmissionError(
                    f"pending queue full ({self.max_pending} queries); "
                    f"retry after the current window drains"
                )
            now_mono = time.monotonic()
            q = Query(
                graph_id=graph_id,
                source=int(source),
                targets=tgt,
                submitted_at=time.time(),
                submitted_mono=now_mono,
                deadline=None if timeout_s is None else now_mono + timeout_s,
            )
            self._pending.append(q)
            self._counters["serve_admitted"] += 1
            self._lock.notify_all()
            return q.future

    def query(
        self,
        graph_id: str,
        source: int,
        targets: Optional[Sequence[int]] = None,
        *,
        timeout_s: Optional[float] = None,
    ) -> QueryResult:
        """Synchronous convenience: submit and wait for the answer.

        In synchronous mode (``autostart=False``) this also drains the
        queue itself, so single-query callers need no extra plumbing.
        """
        fut = self.submit(graph_id, source, targets, timeout_s=timeout_s)
        if self._thread is None:
            self.serve_pending()
        return fut.result()

    # -- serving ------------------------------------------------------------- #

    def serve_pending(self) -> int:
        """Drain the pending queue now: plan batches, solve, demux.

        Returns how many queries reached a final state (answered, timed
        out, or errored).  The synchronous drive mode for tests and the
        bench replay; the batcher thread calls the same method.
        """
        with self._lock:
            drained = list(self._pending)
            self._pending.clear()
        if not drained:
            return 0
        plans, expired = self.batcher.plan(drained, time.monotonic())
        settled = 0
        for q in expired:
            self._fail_timeout(q)
            settled += 1
        for plan in plans:
            settled += self._execute_plan(plan)
        return settled

    def _serve_loop(self) -> None:
        while True:
            with self._lock:
                while not self._pending and not self._closed:
                    self._lock.wait()
                if self._closed and not self._pending:
                    return
            # let the coalescing window fill before draining
            if self.batcher.window_s:
                time.sleep(self.batcher.window_s)
            self.serve_pending()

    def _execute_plan(self, plan: BatchPlan) -> int:
        # snapshot graph + generation together: answers computed on this
        # snapshot are only served (and cached) if the graph is still on
        # the same generation when the solve returns
        with self._lock:
            graph = self._graphs.get(plan.graph_id)
            generation = self._generation.get(plan.graph_id, 0)
        if graph is None:  # unloaded between admission and dispatch
            for q in plan.queries:
                q.future.set_exception(
                    ServeError(f"graph {plan.graph_id!r} was removed")
                )
            return len(plan.queries)

        self.batch_sizes.append(plan.size)

        # one full solve per unique uncached source; cached sources are
        # the landmark-reuse path, stashed warm starts the incremental one
        dists: Dict[int, np.ndarray] = {}
        cached: Dict[int, bool] = {}
        errors: Dict[int, str] = {}
        to_solve: List[int] = []
        warm: Dict[int, Tuple[np.ndarray, object]] = {}
        with self._lock:
            for src in plan.sources:
                hit = self.cache.get(plan.graph_id, src)
                if hit is not None:
                    dists[src] = hit
                    cached[src] = True
                else:
                    to_solve.append(src)
                    if self._warm_starts:
                        entry = self._warm.pop((plan.graph_id, src), None)
                        if entry is not None:
                            warm[src] = entry
        outcomes = self._solve([
            Cell(
                graph_name=plan.graph_id,
                category="serve",
                solver=self.solver,
                source=src,
                graph=graph,
                spec=self.spec,
                cost=self.cost,
                options=(
                    Options(
                        self.options,
                        warm_from=warm[src][0],
                        updates=warm[src][1],
                    )
                    if src in warm
                    else self.options
                ),
            )
            for src in to_solve
        ])
        self._counters["serve_incremental"] += len(warm)
        for src, (kind, detail, _elapsed) in zip(to_solve, outcomes):
            if kind != "ok":
                errors[src] = f"{kind}: {detail}"
                continue
            with self._lock:
                if self._generation.get(plan.graph_id, 0) != generation:
                    # the graph was updated while this solve ran; an
                    # in-place patch may have torn it mid-relaxation, so
                    # the answer is untrustworthy — fail, don't cache
                    self._counters["serve_stale"] += 1
                    errors[src] = (
                        "stale: the graph was updated while the solve "
                        "was in flight; resubmit against the new state"
                    )
                    continue
                dists[src] = self.cache.put(
                    plan.graph_id, src, detail.dist, own=True
                )
            cached[src] = False

        # demux: every query resolves from its source's single solve
        settled = 0
        now_mono = time.monotonic()
        for q in plan.queries:
            settled += 1
            if q.source in errors:
                q.future.set_exception(
                    ServeError(
                        f"solve for ({plan.graph_id!r}, source {q.source}) "
                        f"failed — {errors[q.source]}"
                    )
                )
                continue
            if q.expired(now_mono):
                # the answer exists (and warmed the cache) but came too
                # late for this caller — timeout degradation, not an error
                self._fail_timeout(q)
                continue
            dist = dists[q.source]
            target_dist = (
                dist[np.asarray(q.targets, dtype=np.int64)]
                if q.targets is not None
                else None
            )
            if cached[q.source]:
                self._counters["serve_cache_hits"] += 1
            else:
                self._counters["serve_batched"] += 1
            q.future.set_result(
                QueryResult(
                    graph_id=plan.graph_id,
                    source=q.source,
                    dist=dist,
                    target_dist=target_dist,
                    targets=q.targets,
                    from_cache=cached[q.source],
                    batch_size=plan.size,
                    latency_s=now_mono - q.submitted_mono,
                    submitted_at=q.submitted_at,
                    completed_at=time.time(),
                )
            )
        return settled

    def _solve(self, cells: List[Cell]) -> List[Outcome]:
        """Each cell's :func:`~repro.engine.worker.execute_cell` outcome:
        solved inline with ``jobs=1``, else all submitted to the pool
        before any is awaited."""
        self.dispatched += len(cells)
        if self._pool is None:
            return [execute_cell(cell) for cell in cells]
        try:
            futures = [self._pool.submit(execute_cell, c) for c in cells]
        except BrokenProcessPool:
            # a worker died in an earlier plan, whose solves have already
            # failed; this plan gets a fresh pool
            self._pool.shutdown(wait=False)
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            futures = [self._pool.submit(execute_cell, c) for c in cells]
        return [future_outcome(fut) for fut in futures]

    def _fail_timeout(self, q: Query) -> None:
        self._counters["serve_timeouts"] += 1
        q.future.set_exception(
            ServeTimeout(
                f"query ({q.graph_id!r}, source {q.source}) missed its "
                f"deadline before an answer was served"
            )
        )

    # -- reporting / lifecycle ----------------------------------------------- #

    def counters(self) -> Dict[str, int]:
        """A copy of the serve counters (all keys always present)."""
        return dict(self._counters)

    def close(self) -> None:
        """Settle outstanding queries, stop the thread, free the pool.

        Queries still pending at close are drained (served, not
        abandoned) before the worker pool shuts down.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._lock.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None
        self.serve_pending()  # anything the thread didn't get to
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
