"""The parallel, fault-tolerant sweep scheduler.

A sweep is a grid of *cells* — (graph, solver) pairs.  The scheduler fans
cells out over a ``ProcessPoolExecutor`` (``jobs`` workers; auto-detected
from the CPU count by default), applies a per-cell time budget, retries
failed cells a bounded number of times, and degrades gracefully: a cell
that still fails becomes a :class:`~repro.engine.failure.FailedRun` while
the rest of the sweep completes.  Completed cells stream into an optional
:class:`~repro.engine.store.ResultStore`, which is also how an interrupted
sweep resumes.

Timeout enforcement is two-layered:

1. **In-worker alarm** (primary): each worker arms ``SIGALRM`` around the
   solve, so a cell stuck in Python code raises ``CellTimeout`` right
   inside the worker and the worker survives to take the next cell.
2. **Parent-side stall watchdog** (backstop): if *no* cell completes for
   ``timeout_s + POOL_GRACE_S`` seconds, the pool is presumed wedged
   (e.g. a worker stuck in native code where the alarm can't fire); the
   parent terminates the workers, fails the in-flight cells, requeues the
   never-started ones, and continues on a fresh pool.

Cells are shipped to workers as picklable values: the graph travels as a
:class:`~repro.graphs.suite.GraphSpec` (workers rebuild it, memoized
per-process, optionally through the shared on-disk
:class:`~repro.engine.cache.GraphCache`) or — for legacy factory-based
suite entries — as pre-built CSR arrays.  Workers submit
:class:`~repro.baselines.common.SolveRequest`\\ s through the uniform
registry entry point, so the engine never special-cases solver names.

Determinism: cells are independent and every solver is deterministic, so
``jobs=N`` produces bit-identical :class:`SSSPResult` fields to the
serial ``jobs=1`` path — only wall-clock order differs.

The worker-side primitives (cell execution, graph memo, alarm) live in
:mod:`repro.engine.worker`, which serving and the bench call directly;
this module keeps the sweep-shaped policy (planning, fan-out, retries,
stall watchdog, resume).
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.baselines.common import Options, SSSPResult, get_solver, solver_names
from repro.engine.cache import GraphCache
from repro.engine.failure import FailedRun
from repro.engine.store import ResultStore
from repro.engine.worker import execute_cell, future_outcome, worker_init
from repro.errors import EngineError
from repro.graphs.csr import CSRGraph
from repro.graphs.suite import GraphSpec, SuiteEntry

__all__ = [
    "Cell",
    "EngineConfig",
    "EngineResult",
    "run_cells",
    "plan_cells",
    "sweep_options",
]

#: Slack added to ``timeout_s`` for the parent-side stall watchdog: a
#: pool with no completion for that long is presumed wedged.
POOL_GRACE_S = 30.0


@dataclass
class EngineConfig:
    """Execution policy for one sweep.

    Attributes
    ----------
    jobs:
        Worker processes.  ``None`` auto-detects (CPU count, capped by
        the cell count); ``1`` runs cells in-process — the reference
        serial path, with identical results.
    timeout_s:
        Per-cell time budget in seconds; ``None`` disables both the
        in-worker alarm and the parent watchdog.
    max_attempts:
        Total tries per cell (first run + retries) before it becomes a
        :class:`FailedRun`.
    cache_dir:
        Directory for the on-disk graph cache; ``None`` disables caching
        (spec-backed graphs are then rebuilt in each worker process,
        memoized per process).
    store_path:
        JSONL result store path; ``None`` disables persistence.
    resume:
        With ``store_path``: load previously completed cells and skip
        them (previously *failed* cells are retried).  Without it the
        store is truncated and the sweep starts fresh.
    solver_modules:
        Extra modules to import in every worker (and the parent) before
        solving — the plugin hook for solvers registered outside
        :mod:`repro`; each must call ``register_solver`` at import time.
    """

    jobs: Optional[int] = 1
    timeout_s: Optional[float] = None
    max_attempts: int = 2
    cache_dir: Optional[Union[str, Path]] = None
    store_path: Optional[Union[str, Path]] = None
    resume: bool = False
    solver_modules: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.jobs is not None and self.jobs < 1:
            raise EngineError(f"jobs must be >= 1 (got {self.jobs})")
        if self.max_attempts < 1:
            raise EngineError(
                f"max_attempts must be >= 1 (got {self.max_attempts})"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise EngineError(f"timeout_s must be positive (got {self.timeout_s})")
        if self.resume and self.store_path is None:
            raise EngineError("resume=True requires a store_path")


@dataclass(frozen=True)
class Cell:
    """One unit of sweep work, fully picklable.

    ``graph_spec`` XOR ``graph`` carries the input (spec preferred — it
    ships as a few hundred bytes; prebuilt arrays are the fallback for
    legacy factory entries).  ``spec``/``cost`` are the device model
    forwarded to device solvers; ``options`` are the solver's per-solve
    options (see :class:`~repro.baselines.common.SolveRequest`).
    """

    graph_name: str
    category: str
    solver: str
    source: int = 0
    graph_spec: Optional[GraphSpec] = None
    graph: Optional[CSRGraph] = field(default=None, repr=False)
    spec: Optional[object] = field(default=None, repr=False)
    cost: Optional[object] = field(default=None, repr=False)
    options: Options = field(default_factory=Options, repr=False)
    timeout_s: Optional[float] = None
    cache_dir: Optional[str] = None

    @property
    def key(self) -> Tuple[str, str]:
        return (self.graph_name, self.solver)


@dataclass
class EngineResult:
    """Everything :func:`run_cells` learned about the sweep."""

    #: ``(graph_name, solver) -> SSSPResult`` for every completed cell.
    results: Dict[Tuple[str, str], SSSPResult] = field(default_factory=dict)
    failures: List[FailedRun] = field(default_factory=list)
    #: Cells restored from the result store instead of executed.
    resumed: int = 0


# --------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------- #

def sweep_options(solvers: Sequence[str], options=None) -> Dict[str, Options]:
    """Split one sweep's ``options`` into each solver's share.

    Each option goes only to the solvers that accept it, so a sweep
    mixing ADDS with baselines stays valid.  An option that *no* solver
    of the sweep accepts is an :class:`EngineError` (it would be
    silently dead).
    """
    options = Options(options)
    infos = {name: get_solver(name) for name in solvers}
    for key in options:
        if not any(info.accepts(key) for info in infos.values()):
            raise EngineError(
                f"option {key!r} has no effect: none of {sorted(infos)} "
                f"accepts it; solvers that do: "
                f"{solver_names(accepts=key) or 'none'}"
            )
    return {
        name: Options({k: v for k, v in options.items() if info.accepts(k)})
        for name, info in infos.items()
    }


def plan_cells(
    suite: Sequence[SuiteEntry],
    solvers: Sequence[str],
    *,
    spec=None,
    cost=None,
    options=None,
    config: EngineConfig,
) -> List[Cell]:
    """Expand (suite × solvers) into the cell grid.

    Spec-backed entries ship their :class:`GraphSpec` (and are pre-warmed
    into the graph cache when one is configured, so workers only ever
    *read* generated graphs); factory-backed entries are built here and
    ship arrays.  ``options`` are split across the solvers by
    :func:`sweep_options`.
    """
    worker_init(config.solver_modules)  # plugin solvers register first
    per_solver = sweep_options(solvers, options)
    cache = GraphCache(config.cache_dir) if config.cache_dir else None
    cells: List[Cell] = []
    for entry in suite:
        graph = None
        if entry.spec is None:
            graph = entry.graph()
        elif cache is not None:
            cache.get_or_build(entry.spec, name=entry.name)
        for name in solvers:
            cells.append(
                Cell(
                    graph_name=entry.name,
                    category=entry.category,
                    solver=name,
                    source=entry.source,
                    graph_spec=entry.spec,
                    graph=graph,
                    spec=spec,
                    cost=cost,
                    options=per_solver[name],
                    timeout_s=config.timeout_s,
                    cache_dir=str(config.cache_dir) if config.cache_dir else None,
                )
            )
    return cells


def _resolve_jobs(config: EngineConfig, n_cells: int) -> int:
    jobs = config.jobs if config.jobs is not None else (os.cpu_count() or 1)
    return max(1, min(jobs, max(1, n_cells)))


def run_cells(
    cells: Sequence[Cell],
    config: EngineConfig,
    *,
    progress: Optional[Callable[[str], None]] = None,
) -> EngineResult:
    """Execute a planned cell grid under ``config``'s policy."""
    worker_init(config.solver_modules)  # plugins register before the check
    for name in {c.solver for c in cells}:
        get_solver(name)  # fail fast on typos, before any work

    out = EngineResult()
    notify = progress or (lambda msg: None)

    store: Optional[ResultStore] = None
    todo: List[Cell] = list(cells)
    if config.store_path is not None:
        store = ResultStore(config.store_path, truncate=not config.resume)
        if config.resume:
            contents = store.load()
            kept: List[Cell] = []
            for cell in todo:
                hit = contents.results.get(cell.key)
                if hit is not None:
                    out.results[cell.key] = hit[1]
                    out.resumed += 1
                else:
                    kept.append(cell)
            todo = kept
            if out.resumed:
                notify(f"resume: {out.resumed} cells restored from store")

    attempts: Dict[Tuple[str, str], int] = {c.key: 0 for c in todo}

    def handle(cell: Cell, outcome) -> bool:
        """Record one attempt's outcome; True means "retry this cell"."""
        attempts[cell.key] += 1
        kind, detail, elapsed = outcome
        if kind == "ok":
            result = detail
            out.results[cell.key] = result
            if store is not None:
                store.append_result(cell.category, result)
            notify(f"{cell.graph_name}: {cell.solver} done")
            return False
        if attempts[cell.key] < config.max_attempts:
            notify(
                f"{cell.graph_name}: {cell.solver} {kind} "
                f"(attempt {attempts[cell.key]}/{config.max_attempts}), retrying"
            )
            return True
        failed = FailedRun(
            graph=cell.graph_name,
            category=cell.category,
            solver=cell.solver,
            kind=kind,
            message=str(detail),
            attempts=attempts[cell.key],
            elapsed_s=float(elapsed),
        )
        out.failures.append(failed)
        if store is not None:
            store.append_failure(failed)
        notify(f"FAILED {failed.describe()}")
        return False

    jobs = _resolve_jobs(config, len(todo))
    try:
        if todo:
            if jobs == 1:
                _run_serial(todo, handle)
            else:
                _run_parallel(todo, config, jobs, handle)
    finally:
        if store is not None:
            store.close()
    return out


def _run_serial(cells: Sequence[Cell], handle) -> None:
    """The in-process reference path (``jobs=1``), same retry semantics."""
    queue = deque(cells)
    while queue:
        cell = queue.popleft()
        if handle(cell, execute_cell(cell)):
            queue.append(cell)


def _run_parallel(
    cells: Sequence[Cell], config: EngineConfig, jobs: int, handle
) -> None:
    """Fan cells over a process pool; rebuild the pool if it wedges."""
    stall_limit = (
        None if config.timeout_s is None
        else config.timeout_s + POOL_GRACE_S
    )
    pending = deque(cells)
    while pending:
        executor = ProcessPoolExecutor(
            max_workers=jobs,
            initializer=worker_init,
            initargs=(config.solver_modules,),
        )
        wedged = False
        progressed = False
        fut_to_cell: Dict[object, Cell] = {}
        not_done = set()

        def submit(cell: Cell) -> bool:
            """Queue one cell; False when the pool can't take work."""
            try:
                fut = executor.submit(execute_cell, cell)
            except Exception:  # broken/shut-down pool
                pending.append(cell)
                return False
            fut_to_cell[fut] = cell
            not_done.add(fut)
            return True

        try:
            while pending and submit(pending.popleft()):
                pass

            while not_done:
                done, not_done = wait(
                    not_done, timeout=stall_limit, return_when=FIRST_COMPLETED
                )
                if not done:
                    # Nothing finished inside the grace window: the pool
                    # is wedged beyond what the in-worker alarm can fix
                    # (e.g. native code masking the alarm).  Fail what is
                    # running, requeue what never started, start fresh.
                    wedged = True
                    for fut in not_done:
                        cell = fut_to_cell[fut]
                        if fut.cancel():
                            pending.append(cell)  # never started: no attempt
                            continue
                        outcome = (
                            future_outcome(fut)
                            if fut.done()
                            else (
                                "timeout",
                                "worker wedged past the stall watchdog "
                                f"({stall_limit:g}s without progress)",
                                float(stall_limit),
                            )
                        )
                        progressed = True
                        if handle(cell, outcome):
                            pending.append(cell)
                    for proc in list(executor._processes.values()):
                        proc.terminate()
                    break
                for fut in done:
                    cell = fut_to_cell.pop(fut)
                    progressed = True
                    if handle(cell, future_outcome(fut)):
                        submit(cell)
        finally:
            executor.shutdown(wait=not wedged, cancel_futures=True)
        if pending and not progressed:
            raise EngineError(
                "engine cannot make progress: the worker pool dies before "
                f"completing any of the {len(pending)} remaining cells"
            )
