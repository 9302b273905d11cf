"""``repro.engine`` — the parallel, fault-tolerant experiment engine.

The substrate under :func:`repro.harness.run_suite`: it turns a
(suite × solvers) sweep into independent *cells*, fans them over worker
processes, bounds each cell with a time budget and retry policy, records
failed cells as structured :class:`FailedRun`\\ s instead of dying,
streams completed cells into a resumable JSONL :class:`ResultStore`, and
caches built suite graphs on disk (:class:`GraphCache`) so repeated
sweeps skip regeneration.

Layers, adoptable independently:

- :mod:`repro.engine.worker` — worker-side primitives (graph
  materialization, the cell alarm, :func:`execute_cell`'s
  fault-isolation boundary), which a serving session
  (:mod:`repro.serve`) and ``repro bench`` call directly;
- :mod:`repro.engine.scheduler` — cell planning and sweep policy
  (:class:`EngineConfig`, :func:`plan_cells`, :func:`run_cells`, and
  :func:`sweep_options`, the rule that splits a sweep's options);
- :mod:`repro.engine.store` — incremental JSONL persistence and resume;
- :mod:`repro.engine.cache` — content-addressed on-disk graph cache;
- :mod:`repro.engine.failure` — the :class:`FailedRun` record;
- :mod:`repro.engine.testing` — fault-injection solvers for exercising
  the failure paths.
"""

from repro.engine.cache import CACHE_FORMAT_VERSION, GraphCache
from repro.engine.failure import FAILURE_KINDS, FailedRun
from repro.engine.scheduler import (
    Cell,
    EngineConfig,
    EngineResult,
    plan_cells,
    run_cells,
    sweep_options,
)
from repro.engine.store import ResultStore, result_from_json, result_to_json
from repro.engine.worker import execute_cell, materialize_graph, worker_init

__all__ = [
    "Cell",
    "EngineConfig",
    "EngineResult",
    "plan_cells",
    "run_cells",
    "sweep_options",
    "execute_cell",
    "materialize_graph",
    "worker_init",
    "FailedRun",
    "FAILURE_KINDS",
    "GraphCache",
    "CACHE_FORMAT_VERSION",
    "ResultStore",
    "result_to_json",
    "result_from_json",
]
