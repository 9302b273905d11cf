"""The cycle cost model for the simulated GPU (and the CPU baselines).

Everything here is a *model*, so every constant is named, documented and
overridable.  The two bounds that matter, and that reproduce the paper's
performance analysis (§6.4), are:

``latency bound``
    A hardware thread takes :attr:`~CostModel.edge_latency_cycles` cycles
    of dependent memory accesses to relax one edge (load edge record →
    load destination distance → atomic-min → worklist append).  With ``T``
    threads co-resident, a batch of ``E`` edges needs
    ``edge_latency_cycles * ceil(E / T)`` cycles.  When the available work
    is far below the device's thread count — the paper's road-USA example:
    800 items/iteration vs. 68 K threads — this bound dominates and the
    device idles.  This is what ADDS's asynchrony + dynamic Δ attack.

``bandwidth bound``
    Each relaxed edge moves :func:`~CostModel.effective_edge_bytes` bytes
    of DRAM traffic (edge record, distance, atomic, append), inflated for
    low-degree graphs whose adjacency reads waste cache lines (memory
    divergence, which the paper's Δ controller explicitly corrects for by
    "correlating the number of threads with the average degree").  The
    device cannot exceed ``bytes_per_cycle``; a saturated device is
    bandwidth-bound, which is why the paper's rmat graphs gain only from
    work efficiency.

The third major constant is :attr:`~CostModel.kernel_launch_us` — the
fixed cost of one BSP superstep (kernel launch + pile compaction + the
implicit device-wide barrier).  BSP baselines pay it per iteration; ADDS
never pays it, which is the "asynchronous" half of the paper's claim.

Work counts are never produced by this module — they come from actually
running the algorithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.gpu.specs import CpuSpec, DeviceSpec

__all__ = ["CostModel", "CpuCostModel"]


@dataclass(frozen=True)
class CostModel:
    """Cycle costs for one GPU.  All tunables live here (DESIGN.md §4.2)."""

    spec: DeviceSpec

    #: Dependent-load latency chain to relax one edge, in core cycles.
    edge_latency_cycles: float = 640.0

    #: Coalesced DRAM traffic per relaxed edge, bytes: 8 (edge record)
    #: + 4 (dst distance read) + 8 (atomic-min line) + 8 (worklist append).
    base_edge_bytes: float = 28.0

    #: Divergence inflation: low-degree adjacency lists waste most of each
    #: 32-byte sector, so traffic scales by ``1 + penalty / avg_degree``.
    coalesce_penalty: float = 8.0

    #: Fixed cost of one BSP superstep (kernel launch + compaction +
    #: barrier), microseconds.  Charged to BSP solvers per iteration.
    kernel_launch_us: float = 6.0

    #: Scratchpad (shared memory) access, cycles.
    scratchpad_cycles: float = 25.0

    #: One global-memory atomic (un-contended), cycles.
    atomic_cycles: float = 120.0

    #: Multiplier on atomics for float weights (software CAS atomic-min,
    #: the Gunrock routine the paper adopts for all implementations).
    float_atomic_multiplier: float = 1.6

    #: Memory fence, cycles.
    fence_cycles: float = 40.0

    #: MTB: fixed cycles per queue-management pass (metadata refresh).
    mtb_pass_cycles: float = 300.0

    #: MTB: cycles per segment examined during a pass.  Segments are read
    #: warp-wide (32 at a time), so this is small.
    mtb_segment_cycles: float = 4.0

    #: MTB: cycles to publish one work assignment to a WTB's AF.
    mtb_assign_cycles: float = 30.0

    #: WTB: cycles per poll of its assignment flag while idle.
    af_poll_cycles: float = 400.0

    #: Minimum cycles any non-empty batch/superstep spends in compute
    #: (one full latency chain through the memory system).
    min_batch_cycles: float = 640.0

    # ------------------------------------------------------------------ #

    def __post_init__(self) -> None:
        # Derived coefficients sit on the per-event hot path (every relax
        # and every MTB pass prices a batch); compute them once per model
        # instead of per call.  ``object.__setattr__`` because the
        # dataclass is frozen; none of these are fields, so eq/hash and
        # ``dataclasses.replace`` are unaffected.
        object.__setattr__(
            self, "_launch_cycles", self.spec.us_to_cycles(self.kernel_launch_us)
        )
        object.__setattr__(
            self,
            "_atomic_by_fw",
            (self.atomic_cycles, self.atomic_cycles * self.float_atomic_multiplier),
        )
        object.__setattr__(self, "_edge_bytes_memo", {})

    def effective_edge_bytes(self, avg_degree: float) -> float:
        """DRAM bytes per relaxed edge after the divergence penalty."""
        memo = self._edge_bytes_memo
        v = memo.get(avg_degree)
        if v is None:
            d = max(avg_degree, 1.0)
            v = self.base_edge_bytes * (1.0 + self.coalesce_penalty / d)
            memo[avg_degree] = v
        return v

    def kernel_launch_cycles(self) -> float:
        return self._launch_cycles

    # -- BSP supersteps (Near-Far, Bellman-Ford, NV) ---------------------- #

    def bsp_superstep_cycles(
        self,
        items: int,
        edges: int,
        avg_degree: float,
        *,
        float_weights: bool = False,
    ) -> float:
        """Duration of one BSP superstep processing ``items`` vertices.

        ``launch + max(latency bound, bandwidth bound, pipeline minimum)``.
        The latency bound models one thread per work item walking its
        adjacency list serially; with fewer items than threads the device
        is underutilized and the bound collapses to ``edge_latency × degree``
        — a tiny number that the launch overhead then dwarfs, which is the
        paper's diagnosis of Near-Far on high-diameter graphs.
        """
        launch = self.kernel_launch_cycles()
        if items <= 0 or edges <= 0:
            return launch
        threads = self.spec.total_threads
        # Edge-parallel load balancing (Davidson's scan-based distribution,
        # Lonestar's warp-cooperative expansion): threads share *edges*,
        # not vertices, so a high-degree frontier does not serialize.
        waves = math.ceil(edges / threads)
        latency_bound = self.edge_latency_cycles * waves
        bw_bound = edges * self.effective_edge_bytes(avg_degree) / self.spec.bytes_per_cycle
        atomic = self._atomic_by_fw[bool(float_weights)]
        # Atomics pipeline across threads; only the per-wave depth shows up.
        latency_bound += atomic * waves
        return launch + max(latency_bound, bw_bound, self.min_batch_cycles)

    # -- ADDS worker batches ----------------------------------------------- #

    def wtb_batch_latency(
        self, edges: int, *, float_weights: bool = False
    ) -> float:
        """Latency floor of a WTB batch, for the bandwidth-managed relax
        event: the block's threads pipeline the dependent-load chain in
        waves of ``threads_per_block``; DRAM throughput is accounted
        separately by the device's reservation clock."""
        tpb = self.spec.threads_per_block
        waves = max(1, math.ceil(max(edges, 1) / tpb))
        atomic = self._atomic_by_fw[bool(float_weights)]
        return max(self.edge_latency_cycles * waves + atomic, self.min_batch_cycles)

    def wtb_batch_bytes(self, edges: int, avg_degree: float) -> float:
        """DRAM traffic of a WTB batch, for the reservation clock."""
        return max(edges, 0) * self.effective_edge_bytes(avg_degree)

    # -- MTB management pass -------------------------------------------------- #

    def mtb_pass_cost(self, segments_scanned: int, assignments: int) -> float:
        """Cycles for one manager pass over the bucket metadata."""
        return (
            self.mtb_pass_cycles
            + self.mtb_segment_cycles * max(0, segments_scanned)
            + self.mtb_assign_cycles * max(0, assignments)
        )


@dataclass(frozen=True)
class CpuCostModel:
    """Costs for the Galois CPU baselines (CPU-DS and serial Dijkstra)."""

    spec: CpuSpec

    #: Average cost of one edge relaxation on a CPU core (random-access
    #: dominated; L2/L3 hits keep it below full DRAM latency), nanoseconds.
    edge_ns: float = 14.0

    #: Binary-heap push/pop base cost, nanoseconds (Dijkstra only);
    #: multiplied by log2(heap size).
    heap_op_ns: float = 9.0

    #: Per-bucket-round synchronization overhead for parallel
    #: delta-stepping, microseconds.
    round_sync_us: float = 1.5

    #: Parallel efficiency of the 20-thread delta-stepping loop (memory
    #: bandwidth and work-stealing losses).
    parallel_efficiency: float = 0.62

    def dijkstra_us(self, edges_relaxed: int, heap_ops: int, n: int) -> float:
        """Serial Dijkstra wall time, microseconds."""
        log_n = max(1.0, math.log2(max(2, n)))
        return (
            edges_relaxed * self.edge_ns + heap_ops * self.heap_op_ns * log_n
        ) / 1e3

    def delta_round_us(self, edges: int, items: int) -> float:
        """One bucket-round of shared-memory delta-stepping, microseconds."""
        if items <= 0:
            return self.round_sync_us
        usable = min(self.spec.threads, items)
        rate = usable * self.parallel_efficiency
        return self.round_sync_us + edges * self.edge_ns / rate / 1e3
