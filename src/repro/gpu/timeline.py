"""Parallelism-over-time traces (the data behind the paper's Figures 11–15).

The paper plots "the amount of parallelism (edge count) during the
progress of execution (us)" for ADDS vs NF.  A :class:`Timeline` is a step
function: ``record(t, value)`` appends a sample whenever the amount of
in-flight work changes; integrals and averages are then exact.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

__all__ = ["Timeline"]


class Timeline:
    """A piecewise-constant ``value(t)`` series in microseconds."""

    def __init__(self, label: str = "") -> None:
        self.label = label
        self._t: List[float] = []
        self._v: List[float] = []
        #: Samples whose timestamp ran backwards and was clamped forward.
        #: A non-zero count flags a cost-model or engine bug — exposed in
        #: solver stats as ``timeline_clamps`` so it can't hide.
        self.clamps: int = 0

    def record(self, t_us: float, value: float) -> None:
        """Append a sample; out-of-order times are clamped forward (and
        counted in :attr:`clamps` — clamping hides cost-model bugs)."""
        ts = self._t
        value = float(value)
        if ts:
            last = ts[-1]
            if t_us < last:
                self.clamps += 1
                t_us = last
            if last == t_us:
                self._v[-1] = value
                return
        ts.append(float(t_us))
        self._v.append(value)

    # -- queries -------------------------------------------------------------- #

    def __len__(self) -> int:
        return len(self._t)

    @property
    def duration_us(self) -> float:
        return self._t[-1] if self._t else 0.0

    def series(self) -> Tuple[Sequence[float], Sequence[float]]:
        """``(times_us, values)`` of the raw step samples."""
        return tuple(self._t), tuple(self._v)

    def time_average(self) -> float:
        """Time-weighted mean value — 'average parallelism' in the figures."""
        if len(self._t) < 2:
            return self._v[0] if self._v else 0.0
        total = 0.0
        for i in range(len(self._t) - 1):
            total += self._v[i] * (self._t[i + 1] - self._t[i])
        span = self._t[-1] - self._t[0]
        return total / span if span > 0 else self._v[-1]

    def to_rows(self) -> List[Tuple[float, float]]:
        """``(t_us, value)`` rows, e.g. for CSV export."""
        return list(zip(self._t, self._v))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Timeline({self.label!r}, samples={len(self)}, "
            f"duration={self.duration_us:.1f}us, avg={self.time_average():.1f})"
        )
