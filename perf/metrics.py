"""Metric helpers shared by the runner, the comparison and the tests.

``BENCHMARK.json`` at the checkout root is the single list of reported
metrics: its ``end_to_end`` entries (with their regression bounds) are
what an untraced run prints, its ``per_layer`` entries what a traced run
prints.
"""

from __future__ import annotations

import json
import re
import statistics
from pathlib import Path
from typing import Dict, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Percentiles a timing may be reported at, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
#: A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10


_UNITS = {
    "throughput": "1/s",
    "sim_speedup": "x",
    "trace_overhead": "x",
    "host_speed": "x",
    "adds_work_per_vertex": "ratio",
    "serve.batcher.batch_mean": "queries",
}


def unit_of(name: str) -> str:
    """The unit of a reported metric, from its name."""
    if name in _UNITS:
        return _UNITS[name]
    if "_ms." in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def load_benchmark(path: Path = BENCHMARK_JSON) -> dict:
    with open(path) as fh:
        return json.load(fh)


def highest_percentile(n: int) -> Optional[float]:
    """The highest of :data:`PERCENTILES` that leaves at least
    :data:`TAIL_SAMPLES` of ``n`` samples beyond it, or ``None``."""
    # the tolerance keeps 100 - 99.9 from rounding below 0.1
    allowed = [p for p in PERCENTILES if n * (100.0 - p) / 100.0 >= TAIL_SAMPLES - 1e-9]
    return allowed[-1] if allowed else None


def percentiles_ms(prefix: str, seconds: Sequence[float],
                   independent: Optional[int] = None) -> Dict[str, float]:
    """``{prefix}.p50``/``.p90``/... in milliseconds, each only when the
    sample count allows it (see :func:`highest_percentile`).  Samples
    that come in groups sharing one outcome count as ``independent``
    samples, one per group."""
    top = highest_percentile(len(seconds) if independent is None else independent)
    if top is None:
        return {}
    ms = sorted(s * 1e3 for s in seconds)
    out = {}
    for p in PERCENTILES:
        if p > top:
            break
        out[f"{prefix}.p{p:g}"] = _interpolate(ms, p)
    return out


def _interpolate(ordered: Sequence[float], p: float) -> float:
    # numpy's default ("linear") percentile; this module must not import
    # numpy, since run.py sets numpy's environment before numpy loads
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def quartiles(values: Sequence[float]):
    """``(q1, median, q3)`` the way ``statistics.quantiles(n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med)
