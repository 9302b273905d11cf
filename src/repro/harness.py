"""The experiment driver: the artifact's ``run_all.sh`` as a library.

``run_suite`` executes a set of solvers over a corpus on a chosen device
model, collecting :class:`~repro.baselines.common.SSSPResult`s, verifying
them against each other, and producing the pairwise ratios the paper's
tables are built from.  ``write_result_files`` emits the artifact's
``<solver>_result`` text format.

Since PR 2 the sweep itself runs on :mod:`repro.engine`: ``run_suite``
plans (graph, solver) cells and hands them to the engine, which executes
them serially (``jobs=1``, the default — identical to the historic loop)
or across a process pool, with per-cell timeouts, bounded retries,
graceful failure records, an on-disk graph cache, and a resumable JSONL
result store.  Which solvers need a device or can be traced comes from
each solver's own keyword parameters
(:meth:`~repro.baselines.common.SolverInfo.accepts`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.baselines.common import Options, SSSPResult, SolveRequest, get_solver
from repro.calibration import resolve_device
from repro.engine import (
    EngineConfig,
    FailedRun,
    plan_cells,
    run_cells,
)
from repro.errors import SolverError
from repro.gpu.costmodel import CostModel
from repro.gpu.specs import DeviceSpec
from repro.graphs.csr import CSRGraph
from repro.graphs.suite import SuiteEntry, build_suite
from repro.trace import Tracer, write_trace_artifacts
from repro.validation import verify_results

__all__ = [
    "RunRecord",
    "SuiteRun",
    "run_suite",
    "run_traced_solve",
    "write_result_files",
]

#: Tolerances of ``run_suite``'s cross-solver check
#: (:func:`~repro.validation.verify_results`).
VERIFY_ATOL = 1e-2
VERIFY_RTOL = 1e-5


@dataclass(frozen=True)
class RunRecord:
    """All solvers' results for one graph."""

    graph: str
    category: str
    results: Dict[str, SSSPResult]

    def ratio(self, metric: str, solver_a: str, solver_b: str) -> float:
        """``b / a`` for time (speedup of a over b) or work.

        A zero-time or zero-work operand raises :class:`SolverError` —
        such a result means the solver did not actually run (or its cost
        model is broken), and fabricating a clamped ratio would silently
        poison every downstream mean and table.
        """
        a, b = self.results[solver_a], self.results[solver_b]
        if metric == "time":
            if a.time_us <= 0 or b.time_us <= 0:
                raise SolverError(
                    f"cannot form a time ratio on {self.graph}: "
                    f"{solver_a}={a.time_us}us, {solver_b}={b.time_us}us"
                )
            return b.time_us / a.time_us
        if metric == "work":
            if a.work_count <= 0 or b.work_count <= 0:
                raise SolverError(
                    f"cannot form a work ratio on {self.graph}: "
                    f"{solver_a}={a.work_count}, {solver_b}={b.work_count}"
                )
            return b.work_count / a.work_count
        raise SolverError(f"unknown metric {metric!r}")


@dataclass
class SuiteRun:
    """The outcome of :func:`run_suite`."""

    records: List[RunRecord] = field(default_factory=list)
    verification_failures: List[str] = field(default_factory=list)
    #: Cells that produced no result (solver raised / timed out) after
    #: the engine's bounded retries.  A non-empty list means the sweep's
    #: aggregates cover fewer cells than requested — never that it died.
    failures: List[FailedRun] = field(default_factory=list)
    #: Cells restored from the resume store instead of executed.
    resumed: int = 0

    def _both(self, solver: str, baseline: str) -> List[RunRecord]:
        return [
            r for r in self.records
            if solver in r.results and baseline in r.results
        ]

    def speedups(self, solver: str, baseline: str) -> List[float]:
        """Per-graph time ratios, over records where both solvers ran."""
        return [r.ratio("time", solver, baseline) for r in self._both(solver, baseline)]

    def work_ratios(self, solver: str, baseline: str) -> List[float]:
        """ADDS-work / baseline-work convention of Table 4 is baseline
        over solver inverted — Table 4 reports the solver's vertex count
        normalized *to* the baseline, i.e. solver/baseline."""
        return [
            1.0 / r.ratio("work", solver, baseline)
            for r in self._both(solver, baseline)
        ]


def run_suite(
    *,
    solvers: Sequence[str] = ("adds", "nf"),
    suite: Optional[Sequence[SuiteEntry]] = None,
    spec: Optional[DeviceSpec] = None,
    cost: Optional[CostModel] = None,
    options: Optional[Dict[str, object]] = None,
    verify: bool = True,
    progress: Optional[Callable[[str], None]] = None,
    jobs: Optional[int] = 1,
    timeout_s: Optional[float] = None,
    max_attempts: int = 2,
    cache_dir: Optional[Union[str, Path]] = None,
    store_path: Optional[Union[str, Path]] = None,
    resume: bool = False,
    solver_modules: Tuple[str, ...] = (),
) -> SuiteRun:
    """Run ``solvers`` over ``suite`` (default: the full corpus).

    GPU solvers receive ``spec``/``cost`` (default: the calibrated scaled
    RTX 2080 Ti); CPU solvers ignore them.  ``options`` are per-solve
    options, each applied to the solvers in the sweep that accept it
    (see :func:`repro.engine.sweep_options`).  With ``verify=True`` every
    solver's distances are checked against the first solver's within
    ``VERIFY_ATOL``/``VERIFY_RTOL`` (the ``verify_against_*`` step);
    failures are recorded, not raised, so one bad run doesn't lose a
    whole sweep.

    Engine knobs (see :class:`repro.engine.EngineConfig`):

    - ``jobs`` — worker processes; ``1`` (default) runs in-process and
      bit-identically to the pre-engine serial loop, ``None``
      auto-detects from the CPU count.
    - ``timeout_s``/``max_attempts`` — per-cell budget and bounded retry;
      exhausted cells land in :attr:`SuiteRun.failures`.
    - ``cache_dir`` — on-disk graph cache (repeat sweeps skip
      regeneration).
    - ``store_path``/``resume`` — incremental JSONL persistence; with
      ``resume=True`` previously completed cells are restored instead of
      re-run.
    - ``solver_modules`` — extra modules imported in every worker so
      out-of-tree solvers exist in the worker registry.
    """
    solvers = tuple(solvers)
    if suite is None:
        suite = build_suite()
    spec, cost = resolve_device(spec, cost)

    config = EngineConfig(
        jobs=jobs,
        timeout_s=timeout_s,
        max_attempts=max_attempts,
        cache_dir=cache_dir,
        store_path=store_path,
        resume=resume,
        solver_modules=solver_modules,
    )
    cells = plan_cells(
        suite, solvers,
        spec=spec, cost=cost, options=options, config=config,
    )
    engine_out = run_cells(cells, config, progress=progress)

    run = SuiteRun(failures=engine_out.failures, resumed=engine_out.resumed)
    for entry in suite:
        results: Dict[str, SSSPResult] = {}
        for name in solvers:
            result = engine_out.results.get((entry.name, name))
            if result is not None:
                results[name] = result
        if not results:
            continue  # every solver failed on this graph; failures say so
        if verify and len(results) > 1:
            ref_name = next(s for s in solvers if s in results)
            for name in solvers:
                if name == ref_name or name not in results:
                    continue
                mism = verify_results(
                    results[ref_name], results[name],
                    atol=VERIFY_ATOL, rtol=VERIFY_RTOL,
                )
                if mism:
                    run.verification_failures.append(
                        f"{entry.name}: {name} vs {ref_name}: "
                        f"{len(mism)}+ mismatches (first: {mism[0]})"
                    )
        run.records.append(
            RunRecord(
                graph=entry.name,
                category=entry.category,
                results=results,
            )
        )
    return run


def run_traced_solve(
    graph: CSRGraph,
    solver: str = "adds",
    *,
    source: int = 0,
    spec: Optional[DeviceSpec] = None,
    cost: Optional[CostModel] = None,
    out_dir: Optional[Union[str, Path]] = None,
    options: Optional[Dict[str, object]] = None,
):
    """Run one solver with tracing enabled; optionally write artifacts.

    Returns ``(result, tracer, paths)`` where ``paths`` is the artifact
    list (``trace.json`` / ``counters.csv`` / ``summary.txt``) written
    into ``out_dir``, or ``[]`` when ``out_dir`` is None.  The tracer
    travels as one more option, so a solver without a ``tracer=``
    parameter, or one given an option it does not take, is rejected
    loudly rather than producing a silently empty trace.
    """
    spec, cost = resolve_device(spec, cost)
    tracer = Tracer()
    result = get_solver(solver).solve(
        SolveRequest(
            graph=graph, source=source, spec=spec, cost=cost,
            options=Options(options, tracer=tracer),
        )
    )
    paths: List[Path] = []
    if out_dir is not None:
        paths = write_trace_artifacts(
            out_dir, tracer, result.stats,
            title=f"{solver} on {graph.name} (source {source})",
        )
    return result, tracer, paths


def write_result_files(run: SuiteRun, out_dir: Union[str, Path]) -> List[Path]:
    """Emit the artifact's ``<solver>_result`` files: one line per graph,
    ``graph_name run_time(s) work_count``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    solvers = set()
    for rec in run.records:
        solvers.update(rec.results)
    paths = []
    for name in sorted(solvers):
        path = out_dir / f"{name.replace('-', '_')}_result"
        with open(path, "w") as fh:
            for rec in run.records:
                if name in rec.results:
                    fh.write(rec.results[name].result_line() + "\n")
        paths.append(path)
    return paths
