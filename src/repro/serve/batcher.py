"""Query coalescing: turn a drained pending queue into batched solves.

The serving analogue of the paper's lazy batching (and of Dong et al.'s
stepping observation that batching pending work amortizes per-item
overhead): instead of paying solver setup per query, the session lets
queries accumulate for a short window, then the batcher groups everything
that arrived by graph, deduplicates sources, and emits
:class:`BatchPlan`\\ s — one dispatch per graph per ``max_batch`` unique
sources.  Each *unique* source in a plan is solved once (a full
single-source solve, so answers stay bit-identical to direct solves —
see :mod:`repro.serve.cache` for why full solves, not a merged
multi-source envelope: the solvers' native ``sources=`` mode computes a
min-over-sources *nearest-facility* envelope, which is a different
answer than per-source distances); every query of that source is then
demultiplexed from the one result.

The batcher is pure planning — no threads, no clocks of its own, no
solver calls — which is what makes coalescing unit-testable: feed
queries and a ``now``, assert on the plans.  The session supplies the
window timing and executes the plans.
"""

from __future__ import annotations

import itertools
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["Batcher", "BatchPlan", "Query"]

_query_ids = itertools.count(1)


@dataclass
class Query:
    """One submitted request, from admission to future resolution.

    ``deadline`` is in the session's monotonic clock (``None`` = no
    per-request timeout).  ``submitted_at`` (epoch) and
    ``submitted_mono`` are both recorded so results can report
    wall-clock timestamps while latencies are computed monotonic-only.
    """

    graph_id: str
    source: int
    targets: Optional[Tuple[int, ...]]
    submitted_at: float
    submitted_mono: float
    deadline: Optional[float] = None
    future: Future = field(default_factory=Future, repr=False)
    id: int = field(default_factory=lambda: next(_query_ids))

    def expired(self, now_mono: float) -> bool:
        return self.deadline is not None and now_mono > self.deadline


@dataclass
class BatchPlan:
    """One coalesced dispatch: a set of same-graph queries and the
    unique sources that must be solved (or fetched) to answer them."""

    graph_id: str
    #: Live queries, in submission order.
    queries: List[Query]
    #: Unique sources among :attr:`queries`, in first-seen order.  The
    #: session solves exactly these; demux fans each solve back out.
    sources: List[int]

    @property
    def size(self) -> int:
        """Batch size as reported in the histogram: queries coalesced
        into this one dispatch."""
        return len(self.queries)


class Batcher:
    """Group a drained queue into :class:`BatchPlan`\\ s.

    Parameters
    ----------
    window_s:
        How long the session lets queries accumulate before draining
        (carried here so session and bench read one knob; the batcher
        itself never sleeps).
    max_batch:
        Upper bound on *unique sources* per plan — the unit that bounds
        solver work.  A graph's queries spill into as many plans as
        needed; queries always land in the plan that solves their
        source.
    """

    def __init__(self, *, window_s: float = 0.005, max_batch: int = 32) -> None:
        if window_s < 0:
            raise ValueError(f"window_s must be >= 0 (got {window_s})")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1 (got {max_batch})")
        self.window_s = window_s
        self.max_batch = max_batch

    def plan(
        self, queries: Sequence[Query], now_mono: float
    ) -> Tuple[List[BatchPlan], List[Query]]:
        """Partition drained ``queries`` into plans plus the expired.

        Returns ``(plans, expired)``: expired queries (deadline already
        past at planning time) never reach a solver — the session fails
        their futures with :class:`~repro.errors.ServeTimeout`.  Order
        is preserved throughout: graphs appear in first-submission
        order, queries within a plan in submission order.
        """
        expired: List[Query] = []
        by_graph: Dict[str, List[Query]] = {}
        for q in queries:
            if q.expired(now_mono):
                expired.append(q)
            else:
                by_graph.setdefault(q.graph_id, []).append(q)

        plans: List[BatchPlan] = []
        for graph_id, group in by_graph.items():
            # chunk the unique-source list, then route each query to the
            # chunk that solves its source
            order: List[int] = []
            seen: Dict[int, int] = {}
            for q in group:
                if q.source not in seen:
                    seen[q.source] = len(order)
                    order.append(q.source)
            n_chunks = (len(order) + self.max_batch - 1) // self.max_batch
            chunk_queries: List[List[Query]] = [[] for _ in range(n_chunks)]
            for q in group:
                chunk_queries[seen[q.source] // self.max_batch].append(q)
            for i in range(n_chunks):
                plans.append(
                    BatchPlan(
                        graph_id=graph_id,
                        queries=chunk_queries[i],
                        sources=order[i * self.max_batch : (i + 1) * self.max_batch],
                    )
                )
        return plans, expired
