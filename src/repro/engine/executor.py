"""The long-lived query executor: the engine's substrate, re-plumbed for
serving.

:func:`~repro.engine.scheduler.run_cells` is sweep-shaped: build a grid,
execute it, tear everything down.  A serving session
(:mod:`repro.serve`) has the opposite lifecycle — the executor outlives
any individual request, the worker pool stays warm and the result log
persists across queries.  :class:`QueryExecutor` packages the
engine's reusable pieces behind that lifecycle:

- **execution** — cells run through the same
  :func:`repro.engine.worker.execute_cell` fault-isolation boundary the
  sweep scheduler uses, either inline (``jobs=1``, the deterministic
  reference: the solve happens on the calling thread, zero
  serialization) or on a persistent ``ProcessPoolExecutor``;
- **result log** — an optional JSONL :class:`~repro.engine.store.
  ResultStore` that every completed solve is appended to, turning the
  sweep's resume store into a serving-side query log.

Every path returns the worker outcome tuple
``(kind, detail, elapsed_s, (started_at, ended_at))`` — see
:mod:`repro.engine.worker` — via a :class:`concurrent.futures.Future`,
so callers batch, demux and time-out uniformly regardless of where the
solve ran.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor
from pathlib import Path
from typing import Optional, Union

from repro.engine.store import ResultStore
from repro.engine.worker import execute_cell
from repro.errors import EngineError

__all__ = ["QueryExecutor"]


class QueryExecutor:
    """Dispatch target for long-lived query traffic.

    Parameters
    ----------
    jobs:
        ``1`` (default) executes inline on the calling thread — the
        bit-identical reference path, and the right choice when cells
        carry prebuilt in-memory graphs (nothing is pickled).  ``N > 1``
        keeps a persistent pool of ``N`` worker processes; cells should
        then carry picklable :class:`~repro.graphs.suite.GraphSpec`\\ s
        (workers memoize built graphs per process).
    store_path:
        When set, every successful solve is appended to a JSONL
        :class:`ResultStore` (category ``cell.category``) — an audit log
        of what the executor actually served, in the exact store format
        sweeps resume from.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        store_path: Optional[Union[str, Path]] = None,
    ) -> None:
        if jobs < 1:
            raise EngineError(f"jobs must be >= 1 (got {jobs})")
        self.jobs = jobs
        self._pool: Optional[ProcessPoolExecutor] = None
        self._store: Optional[ResultStore] = None
        if store_path is not None:
            self._store = ResultStore(store_path)
        self._closed = False
        #: Cells dispatched over the executor's lifetime.
        self.dispatched = 0

    # -- lifecycle --------------------------------------------------------- #

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def close(self) -> None:
        """Shut the pool down and close the result log (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        if self._store is not None:
            self._store.close()

    def __enter__(self) -> "QueryExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- dispatch ---------------------------------------------------------- #

    def submit(self, cell) -> "Future":
        """Dispatch one cell; the future resolves to its outcome tuple.

        Inline mode (``jobs=1``) executes before returning — the future
        is already done — which keeps single-threaded callers simple and
        deterministic; pool mode returns a pending future.  Solver-level
        failures surface as ``("error"|"timeout", ...)`` outcomes, never
        as future exceptions (the fault-isolation contract of
        :func:`~repro.engine.worker.execute_cell`).
        """
        if self._closed:
            raise EngineError("QueryExecutor is closed")
        self.dispatched += 1
        if self.jobs == 1:
            fut: Future = Future()
            fut.set_result(self._record(cell, execute_cell(cell)))
            return fut
        pool_fut = self._ensure_pool().submit(execute_cell, cell)
        out: Future = Future()

        def _relay(f) -> None:
            try:
                outcome = f.result()
            except Exception as exc:  # BrokenProcessPool, pickling, ...
                import time

                now = time.time()
                outcome = (
                    "error",
                    f"worker failed: {type(exc).__name__}: {exc}",
                    0.0,
                    (now, now),
                )
            out.set_result(self._record(cell, outcome))

        pool_fut.add_done_callback(_relay)
        return out

    def execute(self, cell):
        """Dispatch one cell and block for its outcome tuple."""
        return self.submit(cell).result()

    def _record(self, cell, outcome):
        if self._store is not None and outcome[0] == "ok":
            self._store.append_result(cell.category, outcome[1])
        return outcome
