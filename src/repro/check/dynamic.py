"""``repro check --updates`` — the update-stream correctness oracle.

For each suite entry the runner generates a deterministic edge-update
stream (:func:`repro.graphs.generators.update_stream`), applies it
batch by batch, and after every batch compares

- a **from-scratch** solve of the post-update graph (serial Dijkstra,
  the repo's reference oracle), against
- an **incremental** re-solve per *lane*: each lane is one warm-start
  capable solver plus its options (Dijkstra warm mode; ADDS under each
  registered WorkScheduler × canonical + perturbed schedules)
  seeded from the lane's *own previous answer* plus the batch's
  :class:`~repro.dynamic.updates.EdgeDeltas`.

The acceptance bar is **bit-equality** (sha256 of the float64 distance
array): an incremental solve must be indistinguishable from throwing
the warm state away.  Chaining each lane on its own prior answer makes
the test compounding — a drifted distance in batch ``k`` poisons batch
``k+1`` instead of being silently repaired by the oracle's distances.
After a mismatch the lane is re-synced to the oracle so one failure is
reported once, not cascaded.

Why bit-equality is the right bar (and not just a tolerance): every
solver here computes distances as float64 telescoped sums along tight
paths, and the warm seeding rule (see :mod:`repro.dynamic.frontier`)
preserves exactly that value set — so any difference at all is a real
invalidation or seeding bug, never harmless float noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.baselines.common import Options, SolveRequest, get_solver
from repro.bench.matrix import matrix_entries
from repro.calibration import default_cost, default_gpu
from repro.check.runner import _dist_sha256, schedule_seed
from repro.dynamic import apply_updates
from repro.errors import ReproError
from repro.graphs.generators import update_stream

__all__ = [
    "UpdateLane",
    "UpdateBatchCheck",
    "UpdateCellCheck",
    "UpdateCheckReport",
    "run_update_check",
]


@dataclass(frozen=True)
class UpdateLane:
    """One incremental configuration chained across the stream: a solver
    and its per-solve options (e.g. ``scheduler``, ``perturb_seed``)."""

    solver: str
    options: Mapping[str, object] = field(default_factory=Options)

    def __post_init__(self) -> None:
        object.__setattr__(self, "options", Options(self.options))

    @property
    def label(self) -> str:
        """``solver/<option values>/canonical`` or ``.../seed=<n>``."""
        seed = self.options.get("perturb_seed")
        values = [
            str(v) for k, v in sorted(self.options.items())
            if k != "perturb_seed"
        ]
        return "/".join(
            [self.solver, *values, "canonical" if seed is None else f"seed={seed}"]
        )


@dataclass
class UpdateBatchCheck:
    """One batch's outcome: the oracle sha and each lane's sha."""

    index: int
    kind_counts: Dict[str, int]
    topology_changed: bool
    oracle_sha256: Optional[str] = None
    lane_sha256: Dict[str, str] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "kind_counts": dict(self.kind_counts),
            "topology_changed": self.topology_changed,
            "oracle_sha256": self.oracle_sha256,
            "lanes": dict(self.lane_sha256),
            "problems": list(self.problems),
        }


@dataclass
class UpdateCellCheck:
    """One graph's full update stream."""

    graph: str
    lanes: List[str]
    batches: List[UpdateBatchCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(not b.problems for b in self.batches)

    @property
    def problems(self) -> List[str]:
        return [p for b in self.batches for p in b.problems]

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "graph": self.graph,
            "lanes": list(self.lanes),
            "ok": self.ok,
            "batches": [b.to_json_dict() for b in self.batches],
        }


@dataclass
class UpdateCheckReport:
    """One ``repro check --updates`` invocation's findings."""

    target: str
    batches: int
    batch_size: int
    schedules: int
    seed: int
    cells: List[UpdateCellCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cells)

    def summary_lines(self) -> List[str]:
        lines = []
        for c in self.cells:
            status = "ok" if c.ok else "FAIL"
            lines.append(
                f"{status:4s} {c.graph}: {len(c.batches)} batches × "
                f"{len(c.lanes)} incremental lanes"
            )
            for p in c.problems:
                lines.append(f"     - {p}")
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(
            f"{verdict}: {len(self.cells)} update streams "
            f"({self.batches} batches × {self.batch_size} updates, "
            f"base seed {self.seed})"
        )
        return lines

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "schema": 1,
            "target": self.target,
            "batches": int(self.batches),
            "batch_size": int(self.batch_size),
            "schedules": int(self.schedules),
            "seed": int(self.seed),
            "ok": self.ok,
            "cells": [c.to_json_dict() for c in self.cells],
        }


def _solve(graph, lane: UpdateLane, source, spec, cost, *, warm=None, deltas=None):
    request = SolveRequest(
        graph=graph,
        source=source,
        spec=spec,
        cost=cost,
        options=Options(lane.options, warm_from=warm, updates=deltas),
    )
    return get_solver(lane.solver).solve(request)


def default_update_lanes(
    schedules: int, seed: int, schedulers: Tuple[str, ...] = ("bucket", "mlmq")
) -> List[UpdateLane]:
    """The standard lane set: warm Dijkstra, plus ADDS under every named
    scheduler on the canonical schedule and ``schedules`` perturbed
    ones."""
    lanes = [UpdateLane(solver="dijkstra")]
    for sched in schedulers:
        lanes.append(UpdateLane(solver="adds", options={"scheduler": sched}))
        for i in range(schedules):
            lanes.append(
                UpdateLane(
                    solver="adds",
                    options={
                        "scheduler": sched,
                        "perturb_seed": schedule_seed(seed, i),
                    },
                )
            )
    return lanes


def run_update_check(
    matrix: str = "small",
    *,
    batches: int = 4,
    batch_size: int = 8,
    schedules: int = 2,
    seed: int = 0,
    entries=None,
    lanes: Optional[List[UpdateLane]] = None,
    spec=None,
    cost=None,
    progress: Optional[Callable[[str], None]] = None,
) -> UpdateCheckReport:
    """Fuzz update streams: incremental re-solves must be bit-identical
    to from-scratch solves after every batch, in every lane.

    ``entries`` overrides the matrix with explicit
    :class:`~repro.graphs.suite.SuiteEntry` items; ``lanes`` overrides
    :func:`default_update_lanes`.  The update stream of each entry is
    seeded deterministically from ``seed`` and the entry's position, so
    a failure reproduces from the report's header alone.
    """
    if batches < 1:
        raise ReproError(f"batches must be >= 1 (got {batches})")
    if batch_size < 1:
        raise ReproError(f"batch_size must be >= 1 (got {batch_size})")
    spec = spec or default_gpu()
    cost = cost or default_cost(spec)
    notify = progress or (lambda msg: None)
    if entries is None:
        target = matrix
        entries = matrix_entries(matrix)
    else:
        target = ",".join(e.name for e in entries)
    lanes = lanes if lanes is not None else default_update_lanes(schedules, seed)

    report = UpdateCheckReport(
        target=target, batches=batches, batch_size=batch_size,
        schedules=schedules, seed=seed,
    )
    for pos, entry in enumerate(entries):
        graph = entry.graph().prepare()
        source = entry.source
        cell = UpdateCellCheck(
            graph=entry.name, lanes=[lane.label for lane in lanes]
        )
        report.cells.append(cell)

        stream = update_stream(
            graph, batches=batches, batch_size=batch_size,
            seed=schedule_seed(seed, pos),
        )
        # each lane chains on its own previous answer (compounding test)
        warm: Dict[str, object] = {}
        base = _solve(graph, UpdateLane(solver="dijkstra"), source, spec, cost)
        for lane in lanes:
            warm[lane.label] = base.dist

        for k, batch in enumerate(stream):
            result = apply_updates(graph, batch)
            graph = result.graph.prepare()
            bc = UpdateBatchCheck(
                index=k,
                kind_counts=batch.kind_counts(),
                topology_changed=result.topology_changed,
            )
            cell.batches.append(bc)
            oracle = _solve(
                graph, UpdateLane(solver="dijkstra"), source, spec, cost
            )
            bc.oracle_sha256 = _dist_sha256(oracle.dist)
            for lane in lanes:
                try:
                    inc = _solve(
                        graph, lane, source, spec, cost,
                        warm=warm[lane.label], deltas=result.deltas,
                    )
                except ReproError as exc:
                    bc.problems.append(
                        f"batch {k}, lane {lane.label}: "
                        f"{type(exc).__name__}: {exc}"
                    )
                    warm[lane.label] = oracle.dist  # re-sync, report once
                    continue
                sha = _dist_sha256(inc.dist)
                bc.lane_sha256[lane.label] = sha
                if sha != bc.oracle_sha256:
                    bc.problems.append(
                        f"batch {k}, lane {lane.label}: incremental "
                        f"distances diverged from scratch "
                        f"({sha[:12]} != {bc.oracle_sha256[:12]})"
                    )
                    warm[lane.label] = oracle.dist  # re-sync, report once
                else:
                    warm[lane.label] = inc.dist
            notify(
                f"{entry.name} batch {k}: "
                f"{'ok' if not bc.problems else 'FAIL'} "
                f"({'topology' if bc.topology_changed else 'weights'})"
            )
    return report
