"""Figure 10's speedup-vs-work-efficiency analysis.

Each graph becomes a point ``(work_efficiency_gain, speedup)`` where both
axes are ADDS relative to a baseline (NF in the paper).  The diagonal is
perfect correlation — speedup explained entirely by doing less work.  The
paper names three regions (§6.4):

- **upper left** ("parallelism"): more work, yet faster — NF underutilized
  the hardware (road-USA's cluster);
- **diagonal** ("work"): speedup tracks work savings (rmat22, msdoor);
- **lower right** ("underparallel"): work saved but parallelism lost, so
  the speedup trails the savings (c-big).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from repro.baselines.common import SSSPResult

__all__ = ["EfficiencyPoint", "efficiency_points", "classify_region"]

#: Multiplicative distance from the diagonal that still counts as
#: "correlated" in :func:`classify_region`.
REGION_TOLERANCE = 1.35


@dataclass(frozen=True)
class EfficiencyPoint:
    """One graph's position on the Figure 10 plane."""

    graph: str
    #: baseline work / ADDS work — the inverse-vertex-count ratio; >1 means
    #: ADDS processed fewer vertices ("w:" in Figures 11–15).
    work_gain: float
    #: baseline time / ADDS time ("s:" in Figures 11–15).
    speedup: float

    @property
    def region(self) -> str:
        return classify_region(self.work_gain, self.speedup)


def classify_region(work_gain: float, speedup: float) -> str:
    """Name the Figure 10 region of a point (see :data:`REGION_TOLERANCE`)."""
    if work_gain <= 0 or speedup <= 0:
        raise ValueError("ratios must be positive")
    ratio = speedup / work_gain
    if ratio > REGION_TOLERANCE:
        return "parallelism"  # upper-left: faster than the work explains
    if ratio < 1.0 / REGION_TOLERANCE:
        return "underparallel"  # lower-right: work saved, time not
    return "work"  # on the diagonal


def efficiency_points(
    pairs: Iterable[tuple],
) -> List[EfficiencyPoint]:
    """Build points from ``(adds_result, baseline_result)`` pairs."""
    pts = []
    for adds, base in pairs:
        if not isinstance(adds, SSSPResult) or not isinstance(base, SSSPResult):
            raise TypeError("expected (SSSPResult, SSSPResult) pairs")
        if adds.graph_name != base.graph_name:
            raise ValueError(
                f"mismatched pair: {adds.graph_name} vs {base.graph_name}"
            )
        pts.append(
            EfficiencyPoint(
                graph=adds.graph_name,
                work_gain=base.work_count / max(1, adds.work_count),
                speedup=base.time_us / max(1e-12, adds.time_us),
            )
        )
    return pts
