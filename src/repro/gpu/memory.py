"""Simulated device memory: atomics, fences and traffic accounting.

The event engine in :mod:`repro.gpu.device` is cooperative (a block's
program runs uninterrupted between ``yield`` points), so the *values*
produced by these atomics are trivially correct; what this module adds is

- the **API shape** of the CUDA primitives the simulated kernels use:
  ``atomicAdd`` and ``__threadfence`` for the ADDS bucket queue's SRMW
  protocol (§5.2), and a batched ``atomicMin`` for the frontier relax
  of the BSP baselines (the ADDS worker relax in :mod:`repro.core.wtb`
  applies the same winner rule edge by edge);
- **operation counters**, which feed reports and tests (e.g. the tests
  that assert the MTB performs a fence before trusting ``resv_ptr``); and
- a **pre-allocated arena** (:class:`GlobalPool`) from which the ADDS
  block allocator draws its 64 Ki-word blocks, mirroring the paper's
  "large block of pre-allocated GPU memory" (§5.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.errors import AllocationError
from repro.trace.tracer import NULL_TRACER, Tracer

__all__ = ["MemoryStats", "SimMemory", "GlobalPool", "WORDS_PER_BLOCK"]

#: The paper's allocation granularity: blocks of 64 Ki 32-bit words (§5.3).
WORDS_PER_BLOCK = 1 << 16


@dataclass
class MemoryStats:
    """Counters of simulated memory operations, by kind."""

    atomics: int = 0
    fences: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "atomics": self.atomics,
            "fences": self.fences,
        }


class SimMemory:
    """Atomic primitives over NumPy arrays, with operation accounting.

    One instance is shared by all thread-block programs on a device.
    Plain loads and stores are priced by the cost events programs emit,
    not counted here.
    """

    def __init__(self) -> None:
        self.stats = MemoryStats()

    # -- atomics ----------------------------------------------------------- #

    def atomic_add(self, arr, index: int, value) -> int:
        """``atomicAdd`` on an element of a list or 1-D array: add, return
        the *old* value."""
        self.stats.atomics += 1
        old = arr[index]
        arr[index] = old + value
        return old

    def atomic_min_batch(
        self,
        arr: np.ndarray,
        indices: np.ndarray,
        values: np.ndarray,
        *,
        payload: np.ndarray = None,
        payload_out: np.ndarray = None,
    ) -> np.ndarray:
        """Vectorized atomic-min over possibly-duplicated indices.

        Returns a boolean mask marking the entries whose value became the
        new minimum at their index (i.e. "my atomicMin won"), matching the
        semantics each GPU thread observes: an entry wins if it improves
        on the pre-batch value and is the *first* entry holding the
        post-batch minimum at its index.  Implemented with
        ``np.minimum.at`` (an unbuffered scatter-min, the NumPy analog of
        hardware atomics).

        When ``payload``/``payload_out`` are given, each winning entry also
        stores ``payload[i]`` into ``payload_out[indices[i]]`` — the
        64-bit packed (distance, predecessor) update GPU SSSP kernels use
        to keep the shortest-path tree consistent with the distances.
        """
        self.stats.atomics += int(indices.size)
        before = arr[indices]  # fancy indexing already copies
        np.minimum.at(arr, indices, values)
        after = arr[indices]
        winners = (values < before) & (values == after)
        order = winners.nonzero()[0]
        if order.size:
            # several entries may tie on one index: keep the first
            idx_w = indices[order]
            uniq, first = np.unique(idx_w, return_index=True)
            if uniq.size < idx_w.size:
                winners = np.zeros_like(winners)
                winners[order[first]] = True
            if payload is not None and payload_out is not None:
                payload_out[indices[winners]] = payload[winners]
        return winners

    # -- fences ------------------------------------------------------------ #

    def fence(self) -> None:
        """``__threadfence``: in the cooperative simulator ordering is
        already sequential; the call is counted so protocol tests can
        assert it happened where §5.2 requires it."""
        self.stats.fences += 1


class GlobalPool:
    """The pre-allocated arena backing ADDS's bucket blocks (§5.3).

    ``acquire`` hands out fixed-size int64 blocks ("64K 32-bit words" in
    the paper; we store (vertex, distance) pairs per slot, so the slot
    count per block is what matches).  ``release`` returns a block for
    reuse.  The FIFO usage pattern of the bucket queue means a simple
    free list suffices — that simplicity is the paper's point.
    """

    def __init__(self, num_blocks: int, words_per_block: int = WORDS_PER_BLOCK) -> None:
        if num_blocks < 1:
            raise AllocationError("pool needs at least one block")
        self.words_per_block = int(words_per_block)
        self._free = list(range(num_blocks - 1, -1, -1))
        # Membership twin of ``_free``: the double-free guard in
        # ``release`` must not scan the list (O(free) per release made
        # the allocator quadratic over a run).
        self._free_set = set(self._free)
        self.num_blocks = num_blocks
        # storage[i] holds block i; two 64-bit lanes per slot: the vertex
        # id (int64) and the distance (float64 bits in the same word).
        self.storage = np.zeros((num_blocks, self.words_per_block, 2), dtype=np.int64)
        # Flat views of the whole arena, word ``2 * slot + lane``: the
        # bucket storage moves slots through these with Python scalars.
        # ``words_f64`` reinterprets the same buffer, so a distance
        # written there lands as its float64 bit pattern.
        flat = self.storage.reshape(-1)
        self.words = memoryview(flat)
        self.words_f64 = memoryview(flat.view(np.float64))
        self.high_water = 0
        self._tracer: Tracer = NULL_TRACER
        self._clock: Callable[[], float] = lambda: 0.0

    def attach_tracer(
        self, tracer: Optional[Tracer], clock: Callable[[], float]
    ) -> None:
        """Emit ``pool_blocks_in_use`` counter samples on acquire/release.

        ``clock`` supplies the current simulated time in µs (the pool has
        no device reference of its own)."""
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._clock = clock

    @property
    def free_blocks(self) -> int:
        return len(self._free)

    @property
    def blocks_in_use(self) -> int:
        return self.num_blocks - len(self._free)

    def acquire(self) -> int:
        """Take a free block id; raises :class:`AllocationError` when empty."""
        if not self._free:
            raise AllocationError(
                f"global pool exhausted ({self.num_blocks} blocks in use)"
            )
        blk = self._free.pop()
        self._free_set.discard(blk)
        self.high_water = max(self.high_water, self.num_blocks - len(self._free))
        if self._tracer.enabled:
            self._tracer.counter(
                "pool_blocks_in_use", self._clock(), self.blocks_in_use
            )
        return blk

    def release(self, block_id: int) -> None:
        if not 0 <= block_id < self.num_blocks:
            raise AllocationError(f"release of unknown block {block_id}")
        if block_id in self._free_set:
            raise AllocationError(f"double free of block {block_id}")
        self._free.append(block_id)
        self._free_set.add(block_id)
        if self._tracer.enabled:
            self._tracer.counter(
                "pool_blocks_in_use", self._clock(), self.blocks_in_use
            )
