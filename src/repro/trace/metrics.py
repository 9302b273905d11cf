"""A uniform registry of named counters, gauges and histograms.

Before this module every solver reported a hand-rolled ``stats={...}``
dict with its own key spelling, which made cross-solver comparisons (and
the Table 3/4 style analyses) stringly-typed guesswork.  A
:class:`MetricsRegistry` gives all producers one vocabulary:

- a **counter** only increases (atomics performed, work items pushed);
- a **gauge** holds the latest value (final Δ, WTB count);
- a **histogram** summarizes a sample stream (relax batch sizes) as
  count/total/min/max/mean without storing every sample.

``snapshot()`` flattens the registry into the plain dict that
:class:`~repro.baselines.common.SSSPResult.stats` carries, so existing
consumers keep working; ``rows()`` feeds the CSV exporter.  Every solver
populates the uniform key set ``atomics``, ``fences``,
``kernel_launches``, ``work_count`` (asserted by the parity test in
``tests/trace/test_stats_parity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral
from typing import Dict, List, Tuple, Union

from repro.errors import TraceError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SERVE_COUNTER_KEYS",
    "UNIFORM_SOLVER_KEYS",
]

#: Keys every solver must report (the cross-solver comparison contract).
UNIFORM_SOLVER_KEYS = ("atomics", "fences", "kernel_launches", "work_count")

#: Counters a serving session (:mod:`repro.serve`) maintains in its
#: registry — the serving-side analogue of ``UNIFORM_SOLVER_KEYS``.
#: ``serve_admitted``/``serve_rejected`` partition submissions at the
#: admission gate; admitted queries then split into ``serve_cache_hits``
#: (answered from the distance cache), ``serve_batched`` (dispatched in
#: a coalesced batch) and ``serve_timeouts`` (expired before an answer).
#: Dynamic-graph sessions additionally count ``serve_incremental``
#: (solves seeded from a stashed warm start instead of scratch) and
#: ``serve_stale`` (answers discarded because the graph was updated
#: while their solve was in flight).
SERVE_COUNTER_KEYS = (
    "serve_admitted",
    "serve_rejected",
    "serve_batched",
    "serve_cache_hits",
    "serve_timeouts",
    "serve_incremental",
    "serve_stale",
)


@dataclass
class Counter:
    """A monotonically increasing count.

    Integer increments (NumPy integers included) keep the value a Python
    ``int``, so counts serialize as ``189``, never ``189.0``; a float
    increment makes it a ``float``."""

    name: str
    value: Union[int, float] = 0

    def inc(self, n: Union[int, float] = 1) -> None:
        if n < 0:
            raise TraceError(f"counter {self.name!r} cannot decrease (inc {n})")
        self.value += int(n) if isinstance(n, Integral) else float(n)


@dataclass
class Gauge:
    """A last-value-wins measurement."""

    name: str
    value: float = 0.0

    def set(self, v: Union[int, float]) -> None:
        self.value = v


@dataclass
class Histogram:
    """A streaming summary of observed samples (no per-sample storage)."""

    name: str
    count: int = 0
    total: float = 0.0
    min: float = field(default=float("inf"))
    max: float = field(default=float("-inf"))

    def observe(self, v: Union[int, float]) -> None:
        v = float(v)
        self.count += 1
        self.total += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Get-or-create access to named metrics, one namespace per run."""

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def _get_or_create(self, name: str, cls):
        m = self._metrics.get(name)
        if m is None:
            m = cls(name)
            self._metrics[name] = m
        elif not isinstance(m, cls):
            raise TraceError(
                f"metric {name!r} already registered as {type(m).__name__}, "
                f"not {cls.__name__}"
            )
        return m

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    # -- convenience one-liners for instrumentation sites ------------------- #

    def inc(self, name: str, n: Union[int, float] = 1) -> None:
        self.counter(name).inc(n)

    def set(self, name: str, v: Union[int, float]) -> None:
        self.gauge(name).set(v)

    def observe(self, name: str, v: Union[int, float]) -> None:
        self.histogram(name).observe(v)

    def update(self, values: Dict[str, Union[int, float]]) -> None:
        """Bulk-set gauges from a plain dict (numeric values only)."""
        for k, v in values.items():
            self.set(k, v)

    # -- queries ------------------------------------------------------------ #

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def value(self, name: str) -> float:
        m = self._metrics[name]
        if isinstance(m, Histogram):
            return m.mean
        return m.value

    def snapshot(self) -> Dict[str, float]:
        """Flatten to a plain dict (histograms expand to ``_count`` /
        ``_mean`` / ``_min`` / ``_max`` keys), insertion-ordered."""
        out: Dict[str, float] = {}
        for name, m in self._metrics.items():
            if isinstance(m, Histogram):
                out[f"{name}_count"] = m.count
                if m.count:
                    out[f"{name}_mean"] = m.mean
                    out[f"{name}_min"] = m.min
                    out[f"{name}_max"] = m.max
            else:
                out[name] = m.value
        return out

    def rows(self) -> List[Tuple[str, str, float]]:
        """``(name, kind, value)`` rows for the CSV exporter, sorted."""
        rows: List[Tuple[str, str, float]] = []
        for name in self.names():
            m = self._metrics[name]
            if isinstance(m, Counter):
                rows.append((name, "counter", m.value))
            elif isinstance(m, Gauge):
                rows.append((name, "gauge", m.value))
            else:
                rows.append((f"{name}_count", "histogram", m.count))
                if m.count:
                    rows.append((f"{name}_mean", "histogram", m.mean))
                    rows.append((f"{name}_min", "histogram", m.min))
                    rows.append((f"{name}_max", "histogram", m.max))
        return rows

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MetricsRegistry({len(self._metrics)} metrics)"
