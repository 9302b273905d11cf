"""§5.5: run-time Δ selection.

The controller is a feedback loop the MTB consults on every management
pass:

- **utilization band** — the MTB monitors "the number of work items that
  it currently has assigned at any time", here measured in in-flight
  *edges* (items × average degree, which is what occupies hardware
  threads), and keeps it between ``UTIL_LOW`` and ``UTIL_HIGH`` times the
  device's thread count.  The degree term is the paper's "correlating the
  number of threads with the average degree of the input graph": for
  low-degree graphs more items are needed to cover the same thread count
  and the band widens accordingly.
- **clip guard** — below a lower bound, shrinking Δ only *clips* vertices
  into the tail bucket (Figure 6(b)); the empirical signal is "the tail
  bucket contains at least 65 % of the total number of assigned work
  items", in which case Δ must grow regardless of utilization.
- **settling** — Δ changes are spaced by a fixed number of *head-bucket
  switches* (rotations), which naturally scales the wait with Δ itself
  ("the number of work items in each bucket is proportional to the Δ
  value, [so] the settling time scales naturally").
- **fine-grained mechanism** — between Δ changes, the number of
  high-priority buckets the MTB assigns from is adjusted immediately:
  one more bucket when starved, one fewer when oversubscribed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.config import AddsConfig
from repro.gpu.specs import DeviceSpec
from repro.trace.tracer import NULL_TRACER, Tracer

__all__ = ["DeltaController"]

#: Utilization band, in in-flight edges per hardware thread.  The MTB
#: keeps assigned work inside [UTIL_LOW, UTIL_HIGH] × total_threads ×
#: divergence-adjustment (§5.5 "correlating the number of threads with
#: the average degree").
UTIL_LOW = 0.25
UTIL_HIGH = 0.55

#: Head-bucket switches to wait between Δ adjustments (§5.5 settling).
SETTLE_SWITCHES = 2

#: Fallback settling horizon in MTB passes, for executions that rotate
#: rarely or never (e.g. when Δ already covers the whole distance
#: range).  The paper counts head-bucket switches only; at simulation
#: scale some graphs finish within a couple of rotations, so the
#: controller is also allowed to act after this many passes.
SETTLE_PASSES = 60

#: MTB passes before the controller may make its first adjustment.
#: Early execution is dominated by the BFS-like ramp-up from the source,
#: whose transient starvation says nothing about the graph (the paper:
#: "when a new bucket ... is first being processed, utilization will
#: temporally jump and then gradually fall ... adjusting is likely to be
#: counterproductive").
WARMUP_PASSES = 150

#: Clip guard: if the tail bucket received at least this fraction of
#: pushes since the last check, Δ is below the clipping bound (§5.5:
#: "the tail bucket contains at least 65% of the total number of
#: assigned work items").
CLIP_FRACTION = 0.65

#: Smoothing factor for the utilization signal (EWMA of in-flight
#: edges sampled each MTB pass) — the paper's "some utilization
#: fluctuations will dampen" made concrete.
EWMA_ALPHA = 0.15

#: Multiplicative Δ step for the controller.
DELTA_GROWTH = 2.0


@dataclass
class DeltaController:
    """The MTB's Δ/active-bucket policy (pure logic, no device access)."""

    config: AddsConfig
    spec: DeviceSpec
    avg_degree: float
    delta: float
    #: hard lower bound on Δ (``solve_adds`` derives it from the weights)
    delta_floor: float = 1e-9
    active_buckets: int = 1
    rotations_at_last_change: int = 0
    passes_since_change: int = 0
    passes_total: int = 0
    util_ewma: float = 0.0
    adjustments: int = 0
    #: utilization recorded when the last *growth* was applied, or None.
    #: Used to detect a growth plateau: if doubling Δ did not materially
    #: raise utilization, the graph simply has no more parallelism to
    #: expose and further growth would only degenerate toward
    #: Bellman-Ford — the failure §6.4 credits ADDS with avoiding
    #: ("not letting the behavior degenerate into a Bellman-Ford
    #: solution").
    util_at_growth: Optional[float] = None
    growth_frozen: bool = False
    #: observability hooks (see attach_tracer); excluded from comparisons
    tracer: Tracer = field(default=NULL_TRACER, repr=False, compare=False)
    clock: Callable[[], float] = field(
        default=lambda: 0.0, repr=False, compare=False
    )

    def attach_tracer(
        self, tracer: Optional[Tracer], clock: Callable[[], float]
    ) -> None:
        """Emit a ``delta_retune`` instant for every applied Δ change."""
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.clock = clock

    def __post_init__(self) -> None:
        self.active_buckets = max(
            self.config.min_active_buckets,
            min(self.config.max_active_buckets, self.active_buckets),
        )
        # utilization's divisor, read on every MTB pass: the device and
        # the graph's degree are fixed for a solve
        self._util_div = max(self.target_edges(), 1.0)

    def observe(self, inflight_edges: float) -> None:
        """One MTB pass worth of utilization signal (EWMA-smoothed)."""
        a = EWMA_ALPHA
        self.util_ewma = a * float(inflight_edges) + (1 - a) * self.util_ewma
        self.passes_since_change += 1
        self.passes_total += 1

    # -- utilization targets ------------------------------------------------ #

    def target_edges(self) -> float:
        """Edges in flight that mean 'hardware fully utilized'.

        One edge relaxation occupies roughly one thread, but low-degree
        graphs scatter their accesses (divergence) and need proportionally
        fewer in-flight edges to exhaust the memory system — the same
        degree correction the cost model's traffic term applies.
        """
        d = max(self.avg_degree, 1.0)
        divergence = 1.0 + 8.0 / d  # mirrors CostModel.coalesce_penalty
        return self.spec.total_threads / divergence

    def utilization(self, inflight_edges: float) -> float:
        return inflight_edges / self._util_div

    # -- per-pass decisions ---------------------------------------------------- #

    def adjust_active_buckets(self) -> int:
        """High-frequency knob: widen/narrow the assignable bucket window."""
        u = self.utilization(self.util_ewma)
        if u < UTIL_LOW and self.active_buckets < self.config.max_active_buckets:
            self.active_buckets += 1
        elif u > UTIL_HIGH and self.active_buckets > self.config.min_active_buckets:
            self.active_buckets -= 1
        return self.active_buckets

    def settled(self, rotations: int) -> bool:
        """Has the system had time to absorb the last Δ change?

        The paper's criterion is head-bucket switches; the pass-count
        fallback covers executions that barely rotate (``SETTLE_PASSES``).
        A warm-up window suppresses reactions to the ramp-up transient.
        """
        if self.passes_total < WARMUP_PASSES:
            return False
        return (
            rotations - self.rotations_at_last_change >= SETTLE_SWITCHES
            or self.passes_since_change >= SETTLE_PASSES
        )

    def maybe_adjust_delta(self, tail_fraction: float, rotations: int) -> float:
        """Low-frequency knob: grow/shrink Δ once the system has settled.

        Returns the (possibly updated) Δ; the caller applies it to the
        queue and resets the push window on change.
        """
        if not self.config.dynamic_delta:
            return self.delta
        if not self.settled(rotations):
            return self.delta

        g = DELTA_GROWTH
        u = self.utilization(self.util_ewma)
        if tail_fraction >= CLIP_FRACTION:
            # clip guard: Δ is below the clipping bound, grow regardless
            self.growth_frozen = False
            self._grow(rotations, g)
        elif u < UTIL_LOW:
            # starved even with extra buckets open: coarsen for parallelism
            if self.util_at_growth is not None and not self.growth_frozen:
                # the previous growth has settled; did it help?  A zero
                # baseline (growth applied before any work was in flight)
                # can't answer that — any u satisfies ``u <= 0 * 1.25``
                # only vacuously at u == 0, and freezing on it would lock
                # Δ at its startup value forever.
                baseline = self.utilization(self.util_at_growth)
                if baseline > 0.0 and u <= baseline * 1.25:
                    # No: this graph has no more parallelism to expose.
                    # Revert the wasted growth (it only relaxed ordering)
                    # and freeze — the paper's "avoid overshooting the
                    # optimum setting".
                    self.growth_frozen = True
                    self.util_at_growth = None
                    self._change(rotations, self.delta / g)
            if not self.growth_frozen:
                self._grow(rotations, g)
        elif u > UTIL_HIGH:
            # saturated: refine for work efficiency (never below the clip
            # bound; the guard above pushes back if this overshoots).  The
            # active-bucket knob keeps damping short fluctuations on its
            # own; persistent saturation through a whole settling period
            # means Δ itself is too coarse.
            self.growth_frozen = False
            self.util_at_growth = None
            self._change(rotations, self.delta / g)
        return self.delta

    def _grow(self, rotations: int, g: float) -> None:
        self.util_at_growth = self.util_ewma
        self._change(rotations, self.delta * g)

    def _change(self, rotations: int, new_delta: float) -> None:
        new_delta = max(new_delta, self.delta_floor)
        if new_delta != self.delta:
            if self.tracer.enabled:
                self.tracer.instant(
                    "controller", "delta_retune", self.clock(), cat="delta",
                    old=self.delta, new=new_delta, rotations=rotations,
                    utilization=self.utilization(self.util_ewma),
                    frozen=self.growth_frozen,
                )
            self.delta = new_delta
            self.rotations_at_last_change = rotations
            self.passes_since_change = 0
            self.adjustments += 1
