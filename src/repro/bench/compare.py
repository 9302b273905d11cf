"""Compare two bench reports: the ``--compare`` simulated-output gate.

The contract: given a *baseline* payload (a previously written
``BENCH_*.json``) and a *current* report from the same matrix, the
comparison fails — and the CLI exits non-zero — when any of:

- a matched cell's *simulated* outputs diverge (``work_count``,
  ``time_us`` or the distance hash) — those must be bit-stable across
  host-side performance work, so a divergence is a correctness bug;
- a cell present in the baseline is missing from the current run;
- a matched cell lacks a required field on one side.

Wall clock is reported per cell and for the matrix, never gated: a
baseline is usually recorded on another host, so its wall numbers say
nothing about the change.  ``perf/compare.py`` judges wall clock from
paired runs of both commits on one host.

Cells present only in the current run (a grown matrix) are reported but
never fail the gate: new coverage must not be punished.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.bench.runner import BenchReport
from repro.errors import ReproError

__all__ = ["CellDelta", "Comparison", "compare_reports"]

#: Printed under the wall rows: why they carry no verdict.
WALL_NOTE = (
    "wall clock is not gated here; judge it on one host with "
    "perf/compare.py (docs/benchmarks.md)"
)


@dataclass
class CellDelta:
    """Wall-clock movement of one matched cell."""

    graph: str
    solver: str
    baseline_wall_s: float
    current_wall_s: float

    def describe(self) -> str:
        return (
            f"{self.graph}/{self.solver}: "
            f"{self.baseline_wall_s * 1e3:.1f} ms -> "
            f"{self.current_wall_s * 1e3:.1f} ms"
        )


@dataclass
class Comparison:
    """Everything :func:`compare_reports` concluded."""

    deltas: List[CellDelta] = field(default_factory=list)
    #: Simulated-output divergences (messages); fatal.
    mismatches: List[str] = field(default_factory=list)
    #: Baseline cells absent from the current run; fatal.
    missing: List[Tuple[str, str]] = field(default_factory=list)
    #: Matched cells that could not be compared because a required field
    #: is absent on one side (e.g. an old baseline schema); fatal — a
    #: gate that silently skips a cell is not a gate.
    field_gaps: List[str] = field(default_factory=list)
    #: Current cells absent from the baseline; informational only.
    added: List[Tuple[str, str]] = field(default_factory=list)
    total_baseline_s: float = 0.0
    total_current_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not (self.mismatches or self.missing or self.field_gaps)

    def summary_lines(self) -> List[str]:
        """Human-readable verdict, one finding per line."""
        lines = [
            f"matrix wall-clock: {self.total_baseline_s * 1e3:.1f} ms -> "
            f"{self.total_current_s * 1e3:.1f} ms"
        ]
        for d in self.deltas:
            lines.append("  " + d.describe())
        lines.append(WALL_NOTE)
        for m in self.mismatches:
            lines.append(f"MISMATCH: {m}")
        for g, s in self.missing:
            lines.append(f"MISSING: baseline cell {g}/{s} not in current run")
        for m in self.field_gaps:
            lines.append(f"MISSING: {m}")
        for g, s in self.added:
            lines.append(f"added: {g}/{s} (not in baseline)")
        lines.append("OK" if self.ok else "FAIL")
        return lines


def _cells_by_key(payload: Dict[str, object]) -> Dict[Tuple[str, str], dict]:
    cells = payload.get("cells")
    if not isinstance(cells, list):
        raise ReproError("bench payload has no 'cells' list")
    out: Dict[Tuple[str, str], dict] = {}
    for i, c in enumerate(cells):
        if not isinstance(c, dict) or "graph" not in c or "solver" not in c:
            raise ReproError(
                f"bench payload cell #{i} has no graph/solver key "
                "(corrupt or hand-edited report?)"
            )
        out[(c["graph"], c["solver"])] = c
    return out


#: Sentinel distinguishing "field absent" from any real JSON value.
_ABSENT = object()


def compare_reports(
    baseline: Dict[str, object],
    current: "BenchReport | Dict[str, object]",
) -> Comparison:
    """Gate ``current`` against ``baseline`` (see module docstring).

    ``baseline`` is a loaded JSON payload; ``current`` may be either a
    payload or a live :class:`~repro.bench.runner.BenchReport`.
    """
    if isinstance(current, BenchReport):
        current = current.to_json_dict()
    base_cells = _cells_by_key(baseline)
    cur_cells = _cells_by_key(current)

    cmp = Comparison()
    for key, base in base_cells.items():
        cur = cur_cells.get(key)
        if cur is None:
            cmp.missing.append(key)
            continue
        cell_ok = True
        for fld in ("work_count", "time_us", "dist_sha256", "wall_s"):
            for side, payload_cells in (("baseline", base), ("current", cur)):
                if payload_cells.get(fld, _ABSENT) is _ABSENT:
                    cmp.field_gaps.append(
                        f"{key[0]}/{key[1]}: field '{fld}' missing in {side}"
                    )
                    cell_ok = False
        if not cell_ok:
            continue
        for fld in ("work_count", "time_us", "dist_sha256"):
            if base[fld] != cur[fld]:
                cmp.mismatches.append(
                    f"{key[0]}/{key[1]}: {fld} {base[fld]} -> {cur[fld]}"
                )
        delta = CellDelta(
            graph=key[0],
            solver=key[1],
            baseline_wall_s=float(base["wall_s"]),
            current_wall_s=float(cur["wall_s"]),
        )
        cmp.deltas.append(delta)
        cmp.total_baseline_s += delta.baseline_wall_s
        cmp.total_current_s += delta.current_wall_s
    for key in cur_cells:
        if key not in base_cells:
            cmp.added.append(key)
    return cmp
