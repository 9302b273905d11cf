"""The shared stats vocabularies of solvers and the serving session.

Every solver reports its counts in the plain ``stats`` dict of its
:class:`~repro.baselines.common.SSSPResult`; every count is a Python
``int``, so it serializes as ``189``, never ``189.0``.  The paper's
cross-solver tables (3 and 4) compare atomics, kernel launches and work
across algorithms, so every solver spells those keys the same way:
:data:`UNIFORM_SOLVER_KEYS` (asserted by the parity test in
``tests/trace/test_stats_parity.py``).
"""

from __future__ import annotations

__all__ = ["SERVE_COUNTER_KEYS", "UNIFORM_SOLVER_KEYS"]

#: Keys every solver must report (the cross-solver comparison contract).
UNIFORM_SOLVER_KEYS = ("atomics", "fences", "kernel_launches", "work_count")

#: Counters a serving session (:mod:`repro.serve`) maintains — the
#: serving-side analogue of ``UNIFORM_SOLVER_KEYS``.
#: ``serve_admitted``/``serve_rejected`` partition submissions at the
#: admission gate; admitted queries then split into ``serve_cache_hits``
#: (answered from the distance cache), ``serve_batched`` (dispatched in
#: a coalesced batch) and ``serve_timeouts`` (expired before an answer).
#: Dynamic-graph sessions additionally count ``serve_incremental``
#: (solves seeded from a stashed warm start instead of scratch) and
#: ``serve_stale`` (answers discarded because the graph was updated
#: while their solve was in flight).
SERVE_COUNTER_KEYS = (
    "serve_admitted",
    "serve_rejected",
    "serve_batched",
    "serve_cache_hits",
    "serve_timeouts",
    "serve_incremental",
    "serve_stale",
)
