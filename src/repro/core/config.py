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

    A field exists only if code outside ``tests/`` sets it; a value
    nothing varies is a module constant where it is read, and tests that
    need another value monkeypatch it.  The controller's constants —
    utilization band, settling switches and passes, warm-up, EWMA factor,
    Δ growth step and the clip-guard fraction — live in
    :mod:`repro.core.delta_controller`; the MTB's idle re-scan interval
    and termination sweeps in :mod:`repro.core.mtb`; the initial-Δ
    heuristic uses :data:`repro.baselines.NEAR_FAR_C`.  The starting Δ
    is the solver's ``delta=`` option.
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

    #: Cap on the arena's blocks.  None (default) lets the arena grow on
    #: demand; an explicit count is an exact cap — undersize it and the
    #: allocator raises :class:`~repro.errors.AllocationError`, as the
    #: real pre-allocated GPU arena would overflow.
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

    #: Bounds for the dynamic number of high-priority buckets the MTB
    #: assigns from (§5.4 optimization / §5.5 fine-grained mechanism).
    min_active_buckets: int = 1
    max_active_buckets: int = 8

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
        if not (1 <= self.min_active_buckets <= self.max_active_buckets <= self.n_buckets):
            raise SolverError("invalid active-bucket bounds")

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
