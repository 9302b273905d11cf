"""Plain-text rendering: tables like the paper's, ASCII scatter/series.

Everything prints with monospace alignment so bench output is directly
comparable to the paper's tables and figures in a terminal or log file.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

from repro.analysis.distributions import Distribution

__all__ = [
    "format_table",
    "format_distribution_table",
    "ascii_scatter",
    "ascii_series",
]


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], *, title: str = ""
) -> str:
    """A boxless aligned table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_distribution_table(
    distributions: Sequence[Distribution], *, title: str = ""
) -> str:
    """Render Distributions as a Table 3/4/5-style grid: one row per
    distribution, one column per bin, cells ``count (pct%)``."""
    if not distributions:
        return title
    bins = distributions[0].bins
    for d in distributions:
        if d.bins != bins:
            raise ValueError("distributions use different bins")
    headers = [""] + [lab for _, _, lab in bins]
    rows = [[d.label] + d.row_cells() for d in distributions]
    return format_table(headers, rows, title=title)


def _axis(values: Sequence[float], log: bool) -> tuple:
    vals = [v for v in values if v > 0] if log else list(values)
    lo, hi = min(vals), max(vals)
    if log:
        lo, hi = math.log10(lo), math.log10(hi)
    if hi == lo:
        hi = lo + 1.0
    return lo, hi


def ascii_scatter(
    xs: Sequence[float],
    ys: Sequence[float],
    *,
    width: int = 64,
    height: int = 18,
    log_x: bool = False,
    log_y: bool = False,
    title: str = "",
    labels: Sequence[str] = None,
) -> str:
    """A terminal scatter plot (the Figures 8–10 rendering).

    Points are marked ``*``; ``labels``, when given, mark each point with
    its first character instead — used to tag the named graphs A–E like
    Figure 10 does.
    """
    if len(xs) != len(ys) or not xs:
        raise ValueError("need equal-length non-empty xs/ys")
    x_lo, x_hi = _axis(xs, log_x)
    y_lo, y_hi = _axis(ys, log_y)
    grid = [[" "] * width for _ in range(height)]
    for i, (x, y) in enumerate(zip(xs, ys)):
        if (log_x and x <= 0) or (log_y and y <= 0):
            continue
        fx = (math.log10(x) if log_x else x)
        fy = (math.log10(y) if log_y else y)
        cx = min(width - 1, int((fx - x_lo) / (x_hi - x_lo) * (width - 1)))
        cy = min(height - 1, int((fy - y_lo) / (y_hi - y_lo) * (height - 1)))
        ch = labels[i][0] if labels and labels[i] else "*"
        grid[height - 1 - cy][cx] = ch
    lines = []
    if title:
        lines.append(title)
    top = f"{(10 ** y_hi if log_y else y_hi):.3g}"
    bot = f"{(10 ** y_lo if log_y else y_lo):.3g}"
    for r, row in enumerate(grid):
        prefix = top if r == 0 else (bot if r == height - 1 else "")
        lines.append(f"{prefix:>8s} |" + "".join(row))
    left = f"{(10 ** x_lo if log_x else x_lo):.3g}"
    right = f"{(10 ** x_hi if log_x else x_hi):.3g}"
    lines.append(" " * 9 + "+" + "-" * width)
    lines.append(" " * 10 + left + " " * max(1, width - len(left) - len(right)) + right)
    return "\n".join(lines)


def ascii_series(
    series: Dict[str, Sequence[tuple]],
    *,
    width: int = 64,
    height: int = 16,
    log_y: bool = False,
    title: str = "",
) -> str:
    """Overlay several (t, value) step series (the Figures 11–15 rendering);
    each series is marked by the first letter of its name."""
    all_t = [t for pts in series.values() for t, _ in pts]
    all_v = [v for pts in series.values() for _, v in pts]
    if not all_t:
        raise ValueError("empty series")
    x_lo, x_hi = _axis(all_t, False)
    pos_v = [v for v in all_v if v > 0] or [1.0]
    y_lo, y_hi = _axis(pos_v if log_y else all_v, log_y)
    grid = [[" "] * width for _ in range(height)]
    for name, pts in series.items():
        ch = name[0]
        for t, v in pts:
            if log_y and v <= 0:
                continue
            fv = math.log10(v) if log_y else v
            cx = min(width - 1, int((t - x_lo) / (x_hi - x_lo) * (width - 1)))
            cy = min(height - 1, int((fv - y_lo) / (y_hi - y_lo) * (height - 1)))
            grid[height - 1 - cy][cx] = ch
    lines = []
    if title:
        lines.append(title)
    for r, row in enumerate(grid):
        top = f"{(10 ** y_hi if log_y else y_hi):.3g}"
        bot = f"{(10 ** y_lo if log_y else y_lo):.3g}"
        prefix = top if r == 0 else (bot if r == height - 1 else "")
        lines.append(f"{prefix:>8s} |" + "".join(row))
    lines.append(" " * 9 + "+" + "-" * width)
    lines.append(
        " " * 10
        + f"{x_lo:.3g}"
        + " " * max(1, width - 16)
        + f"{x_hi:.3g} us"
    )
    legend = "   ".join(f"{name[0]} = {name}" for name in series)
    lines.append(" " * 10 + legend)
    return "\n".join(lines)
