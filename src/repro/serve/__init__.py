"""``repro.serve`` — the batched SSSP query service.

The ROADMAP's serving layer: everything below this package answers *one*
solve at a time; this package turns the stack into a query service for
heavy traffic.  A :class:`Session` holds graphs loaded once, admits
queries through a bounded queue (``submit`` → future, :class:`~repro.errors.
AdmissionError` past the limit), coalesces same-graph queries within a
batching window (:class:`~repro.serve.batcher.Batcher`), answers
repeated sources from an LRU :class:`~repro.serve.cache.DistanceCache`
(one full solve is the landmark that answers every later ``(s, t)``
query), and solves the rest through the engine's
:func:`~repro.engine.worker.execute_cell`, inline or on a process pool
the session owns.

Served answers are *exact by construction*: every distance handed out is
a full single-source solve (fresh or cached), bit-identical to calling
the solver directly — verified end-to-end by ``python -m repro
serve-bench`` (:func:`~repro.serve.bench.run_serve_bench`), which
replays a ~10k-query synthetic trace and re-solves every served
``(graph, source)`` directly.

See ``docs/serving.md`` for the lifecycle, batching-window semantics and
the cache/invalidation contract.
"""

from repro.serve.batcher import Batcher, BatchPlan, Query
from repro.serve.bench import (
    SERVE_BENCH_SCHEMA_VERSION,
    run_serve_bench,
    synthesize_trace,
)
from repro.serve.cache import DistanceCache
from repro.serve.session import QueryResult, Session

__all__ = [
    "Batcher",
    "BatchPlan",
    "DistanceCache",
    "Query",
    "QueryResult",
    "SERVE_BENCH_SCHEMA_VERSION",
    "Session",
    "run_serve_bench",
    "synthesize_trace",
]
