"""repro.check — SRMW protocol checker + seeded schedule fuzzer.

Two halves (see ``docs/checking.md``):

- :class:`ProtocolChecker` dynamically asserts the paper's §5.2–5.4
  protocol invariants (SRMW roles, reservation disjointness,
  fence-ordered visibility, distance monotonicity, the no-lost-work
  oracle) on every protocol operation of one ADDS solve;
- :func:`run_check` fuzzes solvers across seeded schedule perturbations
  (``Device(perturb_seed=...)``) and fails on any violation, distance
  divergence, missed wakeup or replay mismatch — the ``python -m repro
  check`` entry point.

A third half (PR 8): :func:`run_update_check` fuzzes **edge-update
streams** — after every generated batch, incremental re-solves (warm
Dijkstra; ADDS on canonical and perturbed schedules) must be
bit-identical to a from-scratch solve (``python -m repro check
--updates N``).

Fault injection for the checker's own tests lives in
:mod:`repro.check.testing`.
"""

from repro.check.dynamic import (
    UpdateCheckReport,
    UpdateLane,
    default_update_lanes,
    run_update_check,
)
from repro.check.invariants import ProtocolChecker
from repro.check.runner import (
    CellCheck,
    CheckReport,
    ScheduleRun,
    run_check,
    schedule_seed,
)

__all__ = [
    "CellCheck",
    "CheckReport",
    "ProtocolChecker",
    "ScheduleRun",
    "UpdateCheckReport",
    "UpdateLane",
    "default_update_lanes",
    "run_check",
    "run_update_check",
    "schedule_seed",
]
