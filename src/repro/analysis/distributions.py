"""Ratio distributions with the paper's exact bin edges.

Table 3 / Table 5 bin speedups into
``<0.9, 0.9–1.1, 1.1–1.5, 1.5–2, 2–3, 3–5, >=5``;
Table 4 bins work ratios (vertices processed, ADDS over baseline) into
``<0.25, 0.25–0.5, 0.5–0.75, 0.75–1, 1–1.5, 1.5–3, >3``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

__all__ = [
    "SPEEDUP_BINS",
    "WORK_BINS",
    "Distribution",
    "bin_ratios",
    "geometric_mean",
]

#: Table 3 / Table 5 speedup bin edges: (low, high, label).
SPEEDUP_BINS: Tuple[Tuple[float, float, str], ...] = (
    (0.0, 0.9, "<0.9x"),
    (0.9, 1.1, "0.9x-1.1x"),
    (1.1, 1.5, "1.1x-1.5x"),
    (1.5, 2.0, "1.5x-2x"),
    (2.0, 3.0, "2x-3x"),
    (3.0, 5.0, "3x-5x"),
    (5.0, math.inf, ">=5x"),
)

#: Table 4 work-ratio bin edges.
WORK_BINS: Tuple[Tuple[float, float, str], ...] = (
    (0.0, 0.25, "<0.25x"),
    (0.25, 0.5, "0.25x-0.5x"),
    (0.5, 0.75, "0.5x-0.75x"),
    (0.75, 1.0, "0.75x-1x"),
    (1.0, 1.5, "1x-1.5x"),
    (1.5, 3.0, "1.5x-3x"),
    (3.0, math.inf, ">3x"),
)


@dataclass(frozen=True)
class Distribution:
    """A binned ratio distribution plus summary statistics."""

    label: str
    bins: Tuple[Tuple[float, float, str], ...]
    counts: Tuple[int, ...]
    values: Tuple[float, ...]

    @property
    def total(self) -> int:
        return len(self.values)

    def count(self, bin_label: str) -> int:
        for (lo, hi, lab), c in zip(self.bins, self.counts):
            if lab == bin_label:
                return c
        raise KeyError(bin_label)

    def fraction(self, bin_label: str) -> float:
        return self.count(bin_label) / self.total if self.total else 0.0

    def fraction_at_least(self, threshold: float) -> float:
        """Fraction of values >= threshold (e.g. the paper's '78.8% of
        graphs see speedup of at least 1.5x')."""
        if not self.values:
            return 0.0
        return sum(1 for v in self.values if v >= threshold) / self.total

    @property
    def arithmetic_mean(self) -> float:
        return sum(self.values) / self.total if self.total else 0.0

    @property
    def geomean(self) -> float:
        return geometric_mean(self.values)

    def row_cells(self) -> List[str]:
        """``count (pct%)`` cells in bin order, like the paper's tables."""
        return [
            f"{c} ({100 * c / self.total:.0f}%)" if self.total else "0 (0%)"
            for c in self.counts
        ]


def bin_ratios(
    values: Sequence[float],
    *,
    bins: Tuple[Tuple[float, float, str], ...] = SPEEDUP_BINS,
    label: str = "",
) -> Distribution:
    """Bin ratio values into a :class:`Distribution` (right-open bins)."""
    counts = [0] * len(bins)
    for v in values:
        if not math.isfinite(v) or v < 0:
            raise ValueError(f"ratio values must be finite and >= 0, got {v}")
        for i, (lo, hi, _) in enumerate(bins):
            if lo <= v < hi:
                counts[i] += 1
                break
    return Distribution(
        label=label, bins=tuple(bins), counts=tuple(counts), values=tuple(values)
    )


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean, 0-safe via a tiny floor."""
    vals = [max(v, 1e-12) for v in values]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))
