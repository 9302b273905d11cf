"""``repro check`` — the seeded schedule fuzzer over the protocol checker.

For each (graph, solver) cell the runner executes:

1. the **canonical schedule** (no perturbation) under the invariant
   checker — the bit-reproducible reference;
2. ``schedules`` **perturbed schedules**, each with a distinct seed
   derived from ``--seed`` (see :func:`schedule_seed`), under the
   checker;
3. a **replay** of every perturbed schedule *without* the checker.

and fails the cell on any of:

- an invariant violation (or any solver error) on any schedule;
- **distance divergence**: final distances must be bit-identical across
  the canonical schedule, every perturbed schedule, and every solver of
  the same graph — a shortest-path tree is schedule-invariant even
  though the work done to build it is not;
- a **replay mismatch**: re-running a seed must reproduce its
  ``dist_sha256``, ``work_count`` and ``time_us`` bit-exactly.  Because
  the replay runs unchecked, this simultaneously proves the checker is
  passive (attaching it changes nothing) and that a violating schedule
  can be reproduced from the seed printed in its violation message;
- ``missed_wakeups != 0`` on any schedule — every wake must arrive
  through its channel, never via the deadlock rescue.

``work_count`` is deliberately **not** compared across different seeds:
redundant work is exactly what same-timestamp relaxation races decide,
so it legitimately varies with the schedule (the paper's premise).  The
schedule-invariant work oracle is the checker's conservation law
(reserved == published == read == completed) plus per-seed replay
determinism; the observed spread is reported per cell.

Solvers without a simulated device (the BSP baselines) have no schedule
to perturb; they run canonically and join the cross-solver distance
oracle only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.baselines.common import Options, SolveRequest, get_solver, solver_names
from repro.bench.matrix import matrix_entries, matrix_solvers
from repro.calibration import resolve_device
from repro.check.invariants import ProtocolChecker
from repro.engine.scheduler import sweep_options
from repro.errors import ReproError
from repro.validation import dist_sha256

__all__ = [
    "CHECKABLE_SOLVERS",
    "ScheduleRun",
    "CellCheck",
    "CheckReport",
    "schedule_seed",
    "run_check",
]

#: Solvers that accept ``checker=``/``perturb_seed=`` (run on a Device
#: with schedule freedom).  The BSP baselines are deterministic host
#: loops — nothing to perturb, nothing to check beyond their output.
CHECKABLE_SOLVERS = frozenset(solver_names(accepts="checker"))


def schedule_seed(seed: int, index: int) -> int:
    """The perturbation seed of schedule ``index`` under base ``--seed``.

    Deterministic and collision-free over any sane schedule count, and
    printed in every violation/report line — reproducing schedule ``i``
    is ``solve_adds(..., perturb_seed=schedule_seed(seed, i))``.
    """
    return (seed * 1_000_003 + index) % (2**31 - 1)


@dataclass
class ScheduleRun:
    """One schedule's outcome within a cell."""

    perturb_seed: Optional[int]  # None = canonical schedule
    dist_sha256: Optional[str] = None
    work_count: Optional[int] = None
    time_us: Optional[float] = None
    reached: Optional[int] = None
    missed_wakeups: int = 0
    checked_ops: int = 0
    violation: Optional[str] = None
    replay_ok: Optional[bool] = None  # None = replay not run

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "perturb_seed": self.perturb_seed,
            "dist_sha256": self.dist_sha256,
            "work_count": self.work_count,
            "time_us": self.time_us,
            "reached": self.reached,
            "missed_wakeups": int(self.missed_wakeups),
            "checked_ops": int(self.checked_ops),
            "violation": self.violation,
            "replay_ok": self.replay_ok,
        }


@dataclass
class CellCheck:
    """All schedules of one (graph, solver) cell."""

    graph: str
    solver: str
    perturbed: bool  #: False for solvers with no schedule to perturb
    runs: List[ScheduleRun] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def work_counts(self) -> List[int]:
        """Distinct work counts across schedules (spread is legitimate)."""
        return sorted({r.work_count for r in self.runs if r.work_count is not None})

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "graph": self.graph,
            "solver": self.solver,
            "perturbed": self.perturbed,
            "ok": self.ok,
            "problems": list(self.problems),
            "work_counts": self.work_counts(),
            "runs": [r.to_json_dict() for r in self.runs],
        }


@dataclass
class CheckReport:
    """One ``repro check`` invocation's findings."""

    target: str  #: matrix name or graph label
    schedules: int
    seed: int
    cells: List[CellCheck] = field(default_factory=list)
    cross_solver_problems: List[str] = field(default_factory=list)
    #: JSON-native per-solve options the solvers were fuzzed with.
    options: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.cross_solver_problems and all(c.ok for c in self.cells)

    def summary_lines(self) -> List[str]:
        lines = []
        for c in self.cells:
            n = len(c.runs)
            wc = c.work_counts()
            if not wc:
                spread = "no completed runs"
            elif len(wc) == 1:
                spread = f"work {wc[0]}"
            else:
                spread = f"work {wc[0]}..{wc[-1]} ({len(wc)} distinct)"
            mode = "perturbed" if c.perturbed else "canonical only"
            status = "ok" if c.ok else "FAIL"
            lines.append(
                f"{status:4s} {c.graph} × {c.solver}: {n} schedules "
                f"({mode}), {spread}"
            )
            for p in c.problems:
                lines.append(f"     - {p}")
        for p in self.cross_solver_problems:
            lines.append(f"FAIL cross-solver: {p}")
        verdict = "PASS" if self.ok else "FAIL"
        opts = "".join(f", {k} {v}" for k, v in self.options.items())
        lines.append(
            f"{verdict}: {len(self.cells)} cells × "
            f"{self.schedules} perturbed schedules (base seed {self.seed}"
            f"{opts})"
        )
        return lines

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "schema": 1,
            "target": self.target,
            "schedules": int(self.schedules),
            "seed": int(self.seed),
            "options": dict(self.options),
            "ok": self.ok,
            "cross_solver_problems": list(self.cross_solver_problems),
            "cells": [c.to_json_dict() for c in self.cells],
        }


def _run_schedule(
    graph,
    solver: str,
    source: int,
    spec,
    cost,
    options: Options,
    perturb_seed: Optional[int],
    checker_factory: Callable[[], ProtocolChecker],
) -> ScheduleRun:
    run = ScheduleRun(perturb_seed=perturb_seed)
    info = get_solver(solver)
    checker = None
    if info.accepts("checker"):
        checker = checker_factory()
        options = Options(options, checker=checker, perturb_seed=perturb_seed)
    try:
        result = info.solve(
            SolveRequest(
                graph=graph, source=source, spec=spec, cost=cost,
                options=options,
            )
        )
    except ReproError as exc:
        run.violation = f"{type(exc).__name__}: {exc}"
        if checker is not None:
            run.checked_ops = checker.checked_ops
        return run
    run.dist_sha256 = dist_sha256(result.dist)
    run.work_count = int(result.work_count)
    run.time_us = float(result.time_us)
    run.reached = int(result.reached())
    run.missed_wakeups = int((result.stats or {}).get("missed_wakeups", 0))
    if checker is not None:
        run.checked_ops = checker.checked_ops
    return run


def run_check(
    matrix: str = "small",
    *,
    schedules: int = 8,
    seed: int = 0,
    entries=None,
    solvers: Optional[Tuple[str, ...]] = None,
    spec=None,
    cost=None,
    replay: bool = True,
    checker_factory: Optional[Callable[[], ProtocolChecker]] = None,
    options: Optional[Dict[str, object]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> CheckReport:
    """Fuzz a matrix (or explicit ``entries``) across perturbed schedules.

    ``entries`` overrides the matrix with an explicit list of
    :class:`~repro.graphs.suite.SuiteEntry`; ``solvers`` overrides the
    solver list (default: the matrix's, or ``("adds",)`` with explicit
    entries).  ``checker_factory`` builds the per-run checker — the
    fault-injection tests pass a factory for a sabotaged subclass (see
    :mod:`repro.check.testing`).

    ``options`` are per-solve options, each applied to the solvers that
    accept it (:func:`~repro.engine.sweep_options`); the others run
    without it and still join the cross-solver distance oracle.
    """
    if schedules < 0:
        raise ReproError(f"schedules must be >= 0 (got {schedules})")
    spec, cost = resolve_device(spec, cost)
    notify = progress or (lambda msg: None)
    factory = checker_factory or ProtocolChecker

    if entries is None:
        target = matrix
        entries = matrix_entries(matrix)
        if solvers is None:
            solvers = matrix_solvers(matrix)
    else:
        target = ",".join(e.name for e in entries)
        if solvers is None:
            solvers = ("adds",)
    per_solver = sweep_options(solvers, options)

    report = CheckReport(
        target=target, schedules=schedules, seed=seed,
        options=Options(options).to_json(),
    )
    for entry in entries:
        graph = entry.graph()
        source = entry.source
        by_solver_sha: Dict[str, str] = {}
        for solver in solvers:
            perturbable = get_solver(solver).accepts("checker")
            opts = per_solver[solver]
            cell = CellCheck(graph=entry.name, solver=solver, perturbed=perturbable)
            report.cells.append(cell)

            canonical = _run_schedule(
                graph, solver, source, spec, cost, opts, None, factory
            )
            cell.runs.append(canonical)
            if canonical.violation is not None:
                cell.problems.append(
                    f"canonical schedule: {canonical.violation}"
                )
            elif canonical.missed_wakeups:
                cell.problems.append(
                    f"canonical schedule: missed_wakeups = "
                    f"{canonical.missed_wakeups}"
                )
            if canonical.dist_sha256 is not None:
                by_solver_sha[solver] = canonical.dist_sha256

            n_perturbed = schedules if perturbable else 0
            for i in range(n_perturbed):
                pseed = schedule_seed(seed, i)
                run = _run_schedule(
                    graph, solver, source, spec, cost, opts, pseed, factory
                )
                cell.runs.append(run)
                if run.violation is not None:
                    cell.problems.append(f"seed {pseed}: {run.violation}")
                    continue
                if run.missed_wakeups:
                    cell.problems.append(
                        f"seed {pseed}: missed_wakeups = {run.missed_wakeups}"
                    )
                if (
                    canonical.dist_sha256 is not None
                    and run.dist_sha256 != canonical.dist_sha256
                ):
                    cell.problems.append(
                        f"seed {pseed}: distances diverged from the "
                        f"canonical schedule ({run.dist_sha256} != "
                        f"{canonical.dist_sha256})"
                    )
                if replay:
                    again = _run_schedule(
                        graph, solver, source, spec, cost, opts, pseed,
                        lambda: None,  # unchecked: proves checker passivity
                    )
                    run.replay_ok = (
                        again.violation is None
                        and again.dist_sha256 == run.dist_sha256
                        and again.work_count == run.work_count
                        and again.time_us == run.time_us
                    )
                    if not run.replay_ok:
                        cell.problems.append(
                            f"seed {pseed}: replay did not reproduce the "
                            f"schedule (work {run.work_count} vs "
                            f"{again.work_count}, time_us {run.time_us} vs "
                            f"{again.time_us})"
                        )
            notify(
                f"{entry.name} × {solver}: {len(cell.runs)} schedules, "
                f"{'ok' if cell.ok else 'FAIL'}"
            )
        if len({s for s in by_solver_sha.values()}) > 1:
            report.cross_solver_problems.append(
                f"{entry.name}: solvers disagree on distances: "
                + ", ".join(
                    f"{s}={h[:12]}" for s, h in sorted(by_solver_sha.items())
                )
            )
    return report
