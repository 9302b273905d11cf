"""``repro.trace`` — observability for the simulated GPU.

Three pieces, designed to be adopted independently:

- :class:`~repro.trace.tracer.Tracer` — typed span/instant/counter
  events on named tracks, zero-cost when disabled (the default);
- :mod:`repro.trace.metrics` — the stats key sets every solver
  (``UNIFORM_SOLVER_KEYS``) and serving session (``SERVE_COUNTER_KEYS``)
  reports;
- :mod:`repro.trace.export` — Chrome/Perfetto ``trace.json``, counters
  CSV, and text-summary writers (the ``python -m repro trace`` CLI's
  artifact set).
"""

from repro.trace.metrics import SERVE_COUNTER_KEYS, UNIFORM_SOLVER_KEYS
from repro.trace.tracer import NULL_TRACER, NullTracer, TraceEvent, Tracer, coalesce
from repro.trace.export import (
    counters_csv,
    text_summary,
    to_perfetto,
    write_counters_csv,
    write_trace_artifacts,
    write_trace_json,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TraceEvent",
    "coalesce",
    "SERVE_COUNTER_KEYS",
    "UNIFORM_SOLVER_KEYS",
    "to_perfetto",
    "write_trace_json",
    "counters_csv",
    "write_counters_csv",
    "text_summary",
    "write_trace_artifacts",
]
