"""ADDS configuration: paper defaults plus the Table 5 ablation switches."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import SolverError

__all__ = ["AddsConfig"]


@dataclass(frozen=True)
class AddsConfig:
    """Tunables for the ADDS solver.

    Defaults follow the paper: 32 buckets (§5.4), N-word segments for the
    WCC protocol (§5.2), the Davidson heuristic for the initial Δ, and the
    dynamic Δ controller on.  The two ablation rows of Table 5 are
    ``dynamic_delta=False`` (Static-Δ) and additionally ``n_buckets=2``
    (2-Buckets).

    Only knobs some caller sets are fields.  The controller's fixed
    constants — utilization band, settling switches, EWMA factor and Δ
    growth step — are module constants of
    :mod:`repro.core.delta_controller`; the MTB's idle re-scan interval
    is :data:`repro.core.mtb.MTB_IDLE_CYCLES`; the initial-Δ heuristic
    uses :data:`repro.baselines.NEAR_FAR_C`.
    """

    #: Number of buckets in the circular work queue (paper: "a fixed
    #: number of 32 buckets").  Table 5's 2-Buckets ablation sets 2.
    n_buckets: int = 32

    #: Slots per WCC segment — the paper's N-word segment; one MTB thread
    #: handles one segment, a warp of 32 reads 32 segments per access.
    segment_size: int = 32

    #: Slots per allocator block.  The paper uses 64 Ki words; the
    #: simulation default is smaller in proportion to the scaled corpus
    #: (DESIGN.md §4.4) so that growth/shrink actually exercises the
    #: allocator.  The 16/16-bit index split generalizes to
    #: (block index, offset) with this block size.
    slots_per_block: int = 2048

    #: Blocks in the pre-allocated arena.  None (default) auto-sizes the
    #: arena to the graph (a few times |E| worth of slots); an explicit
    #: count is honored exactly — undersize it and the allocator raises
    #: :class:`~repro.errors.AllocationError`, as the real pre-allocated
    #: GPU arena would overflow.
    pool_blocks: Optional[int] = None

    #: Worker thread blocks.  None → all resident blocks minus the MTB.
    n_wtbs: Optional[int] = None

    #: Cap on work items handed to a WTB per assignment.  The actual chunk
    #: is sized by *edges* (see ``target_chunk_edges``) so that a burst of
    #: published work spreads across many WTBs regardless of degree —
    #: a 256-thread block serializes a high-degree chunk into waves, so
    #: handing one WTB the whole burst would forfeit the device to a
    #: single block exactly when parallelism is scarce.
    max_chunk: int = 256

    #: Edge budget per assignment chunk; defaults to one wave of a thread
    #: block (``threads_per_block``) when None.
    target_chunk_edges: Optional[int] = None

    #: §5.5 dynamic Δ on/off (off = Table 5 "Static-Δ" ablation).
    dynamic_delta: bool = True

    #: Starting Δ; None → Davidson heuristic (same as the baselines).
    initial_delta: Optional[float] = None

    #: Fallback settling horizon in MTB passes, for executions that rotate
    #: rarely or never (e.g. when Δ already covers the whole distance
    #: range).  The paper counts head-bucket switches only; at simulation
    #: scale some graphs finish within a couple of rotations, so the
    #: controller is also allowed to act after this many passes.
    settle_passes: int = 60

    #: MTB passes before the controller may make its first adjustment.
    #: Early execution is dominated by the BFS-like ramp-up from the
    #: source, whose transient starvation says nothing about the graph
    #: (the paper: "when a new bucket ... is first being processed,
    #: utilization will temporally jump and then gradually fall ...
    #: adjusting is likely to be counterproductive").
    warmup_passes: int = 150

    #: Clip guard: if the tail bucket received at least this fraction of
    #: pushes since the last check, Δ is below the clipping bound (§5.5:
    #: "the tail bucket contains at least 65% of the total number of
    #: assigned work items").
    clip_fraction: float = 0.65

    #: Hard floor for Δ.  None → a quarter of the smallest positive edge
    #: weight (below that, every band boundary falls between weights and
    #: shrinking further only mints empty buckets and clipping).
    delta_floor: Optional[float] = None

    #: Bounds for the dynamic number of high-priority buckets the MTB
    #: assigns from (§5.4 optimization / §5.5 fine-grained mechanism).
    min_active_buckets: int = 1
    max_active_buckets: int = 8

    #: Consecutive empty sweeps of the work queue before terminating
    #: (§5.4: "two sweeps are needed").
    termination_sweeps: int = 2

    #: TESTS ONLY — §5.4's failure mode: rotate the head bucket as soon as
    #: it looks empty, without waiting for its CWC to match resv_ptr.
    #: Demonstrates the "continuous cramming of work into ever fewer
    #: buckets" the paper warns about.
    unsafe_rotation: bool = False

    def __post_init__(self) -> None:
        if self.n_buckets < 2:
            raise SolverError("ADDS needs at least 2 buckets")
        if self.segment_size < 1:
            raise SolverError("segment_size must be >= 1")
        if self.slots_per_block < self.segment_size:
            raise SolverError("slots_per_block must hold at least one segment")
        if self.slots_per_block % self.segment_size != 0:
            raise SolverError("slots_per_block must be a multiple of segment_size")
        if self.pool_blocks is not None and self.pool_blocks < self.n_buckets:
            raise SolverError("pool needs at least one block per bucket")
        if self.max_chunk < 1:
            raise SolverError("max_chunk must be positive")
        if not (0 < self.clip_fraction <= 1):
            raise SolverError("clip_fraction must be in (0, 1]")
        if not (1 <= self.min_active_buckets <= self.max_active_buckets <= self.n_buckets):
            raise SolverError("invalid active-bucket bounds")
        if self.termination_sweeps < 1:
            raise SolverError("termination_sweeps must be >= 1")
        if self.settle_passes < 1:
            raise SolverError("settle_passes must be >= 1")
        if self.warmup_passes < 0:
            raise SolverError("warmup_passes must be >= 0")

    def replace(self, **kw) -> "AddsConfig":
        """A copy with fields overridden (ablations, sweeps)."""
        return replace(self, **kw)

    def static_delta_ablation(self) -> "AddsConfig":
        """Table 5 row 3: the dynamic mechanism off, heuristic Δ kept.

        §5.5 presents *two* dynamic knobs — the low-frequency Δ loop and
        the high-frequency active-bucket-count variation — so this
        ablation disables both: Δ stays at the Davidson value and the MTB
        assigns from the head bucket only (the §5.4 base design).
        """
        return self.replace(
            dynamic_delta=False, min_active_buckets=1, max_active_buckets=1
        )

    def two_buckets_ablation(self) -> "AddsConfig":
        """Table 5 row 4: static Δ *and* only two buckets."""
        return self.replace(
            dynamic_delta=False,
            n_buckets=2,
            min_active_buckets=1,
            max_active_buckets=1,
        )
