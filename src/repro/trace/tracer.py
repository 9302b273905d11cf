"""Structured event tracing for the simulated GPU.

The simulator's behaviour *is* the paper's argument — MTB assignment
scans, WTB busy/idle transitions, bucket pushes, Δ retunes — so this
module records it as typed events instead of ad-hoc prints:

- a **span** is an interval ``[ts_us, ts_us + dur_us)`` on a *track*
  (one track per simulated thread block, plus ``queue``/``device``
  tracks for shared structures);
- an **instant** is a point event (an assignment, a rotation, a Δ
  decision);
- a **counter** is a sampled value over time (edges in flight, pool
  blocks in use, active buckets).

Tracing must never perturb the simulation, so the design is
*zero-cost when disabled*: every producer holds a tracer that is either
a real :class:`Tracer` or the shared :data:`NULL_TRACER`, and hot paths
guard event construction with ``if tracer.enabled:`` so a disabled run
executes only an attribute test.  Events only ever *read* simulator
state; a traced run therefore produces bit-identical results to an
untraced one (asserted by the test suite).

Timestamps are simulated microseconds — the same unit the Chrome/
Perfetto trace-event format uses, so export is a straight mapping
(:mod:`repro.trace.export`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.errors import TraceError

__all__ = ["TraceEvent", "Tracer", "NullTracer", "NULL_TRACER", "coalesce"]

#: Event kinds (mirroring the Chrome trace-event phases they export to).
SPAN = "span"  # ph "X"
INSTANT = "instant"  # ph "i"
COUNTER = "counter"  # ph "C"


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event.  Immutable so exporters can't corrupt history."""

    kind: str
    track: str
    name: str
    ts_us: float
    dur_us: float = 0.0
    cat: str = "sim"
    args: Mapping[str, object] = field(default_factory=dict)

    @property
    def end_us(self) -> float:
        return self.ts_us + self.dur_us


class Tracer:
    """An append-only event sink with per-track ordering enforcement.

    The discrete-event engine dispatches blocks in non-decreasing time
    order, so events arrive naturally ordered per track; ``record``
    turns a violation (a cost-model or instrumentation bug) into a loud
    :class:`~repro.errors.TraceError` instead of a silently garbled
    trace.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self.events: List[TraceEvent] = []
        self._track_last_ts: Dict[str, float] = {}

    # -- producers --------------------------------------------------------- #

    def record(self, event: TraceEvent) -> None:
        if not self.enabled:
            return
        last = self._track_last_ts.get(event.track)
        if last is not None and event.ts_us < last:
            raise TraceError(
                f"trace event {event.name!r} on track {event.track!r} goes "
                f"back in time ({event.ts_us} < {last})"
            )
        self._track_last_ts[event.track] = event.ts_us
        self.events.append(event)

    def span(
        self,
        track: str,
        name: str,
        ts_us: float,
        dur_us: float,
        cat: str = "sim",
        **args: object,
    ) -> None:
        """A complete interval event (Chrome ph ``X``)."""
        if not self.enabled:
            return
        if dur_us < 0:
            raise TraceError(f"span {name!r} has negative duration {dur_us}")
        self.record(
            TraceEvent(SPAN, track, name, float(ts_us), float(dur_us), cat, args)
        )

    def instant(
        self, track: str, name: str, ts_us: float, cat: str = "sim", **args: object
    ) -> None:
        """A point event (Chrome ph ``i``)."""
        if not self.enabled:
            return
        self.record(TraceEvent(INSTANT, track, name, float(ts_us), 0.0, cat, args))

    def counter(self, name: str, ts_us: float, value: float) -> None:
        """A sampled counter value (Chrome ph ``C``) on the ``counters``
        track."""
        if not self.enabled:
            return
        self.record(
            TraceEvent(
                COUNTER, "counters", name, float(ts_us), 0.0, "counter",
                {"value": float(value)},
            )
        )

    # -- queries ----------------------------------------------------------- #

    def __len__(self) -> int:
        return len(self.events)

    def tracks(self) -> List[str]:
        """Track names in first-appearance order."""
        seen: Dict[str, None] = {}
        for ev in self.events:
            seen.setdefault(ev.track, None)
        return list(seen)

    def events_for(self, track: str) -> List[TraceEvent]:
        return [ev for ev in self.events if ev.track == track]

    def by_name(self, name: str) -> List[TraceEvent]:
        return [ev for ev in self.events if ev.name == name]

    def duration_us(self) -> float:
        """End of the latest event (0 for an empty trace)."""
        return max((ev.end_us for ev in self.events), default=0.0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Tracer(enabled={self.enabled}, events={len(self.events)}, "
            f"tracks={len(self.tracks())})"
        )


class NullTracer(Tracer):
    """The disabled tracer: every producer method is a no-op.

    All call sites hold one of these by default, so instrumentation
    costs a single ``tracer.enabled`` attribute test on hot paths and
    nothing at all elsewhere.
    """

    def __init__(self) -> None:
        super().__init__(enabled=False)

    def record(self, event: TraceEvent) -> None:  # pragma: no cover - trivial
        pass


#: The shared disabled tracer (safe to share: it never stores anything).
NULL_TRACER = NullTracer()


def coalesce(tracer: Optional[Tracer]) -> Tracer:
    """Normalize an optional tracer argument to a usable sink."""
    return tracer if tracer is not None else NULL_TRACER
