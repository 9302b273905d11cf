"""Simulated device memory: atomics and operation accounting.

The event engine in :mod:`repro.gpu.device` is cooperative (a block's
program runs uninterrupted between ``yield`` points), so the *values*
produced by these atomics are trivially correct; what this module adds is

- the **API shape** of the CUDA atomics the simulated kernels use: a
  batched ``atomicMin`` for the frontier relax of the BSP baselines (the
  ADDS worker relax in :mod:`repro.core.wtb` applies the same winner
  rule edge by edge) and ``atomicAdd``;
- **operation counters** (:class:`MemoryStats`), which feed reports and
  tests; the ADDS bucket queue's SRMW protocol (§5.2) does not call
  this API but counts each of its ``atomicAdd`` and ``__threadfence``
  operations into them (:mod:`repro.core.bucket_queue`); and
- an **arena** (:class:`GlobalPool`) from which the ADDS block
  allocator draws its 64 Ki-word blocks, standing in for the paper's
  "large block of pre-allocated GPU memory" (§5.3); the WTB relax
  kernel reads its work items there in place, by address, and the
  native publish call writes the worker's new items there the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Set

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


class GlobalPool:
    """The arena backing ADDS's bucket blocks (§5.3).

    ``acquire`` hands out fixed-size int64 blocks ("64K 32-bit words" in
    the paper; we store (vertex, distance) pairs per slot, so the slot
    count per block is what matches).  ``release`` returns a block for
    reuse.  The FIFO usage pattern of the bucket queue means a simple
    free list suffices — that simplicity is the paper's point.

    ``acquire`` takes the most recently released block, else mints the
    lowest id never handed out, so ids and ``high_water`` do not depend
    on how much storage exists.  Storage grows geometrically as ids are
    minted; ``num_blocks`` (``None``: no cap) is an exact cap that
    raises :class:`AllocationError`, as the real pre-allocated GPU
    arena would overflow.
    """

    #: Blocks of storage allocated before the first growth.
    INITIAL_BLOCKS = 8

    def __init__(
        self, num_blocks: Optional[int] = None, words_per_block: int = WORDS_PER_BLOCK
    ) -> None:
        if num_blocks is not None and num_blocks < 1:
            raise AllocationError("pool needs at least one block")
        self.words_per_block = int(words_per_block)
        self.num_blocks = num_blocks
        self._free: List[int] = []
        # Membership twin of ``_free``: the double-free guard in
        # ``release`` must not scan the list (O(free) per release made
        # the allocator quadratic over a run).
        self._free_set: Set[int] = set()
        # Ids minted so far are ``0 .. _minted - 1``.
        self._minted = 0
        self.high_water = 0
        self.storage = np.zeros((0, self.words_per_block, 2), dtype=np.int64)
        self._grow(self.INITIAL_BLOCKS)
        self._tracer: Tracer = NULL_TRACER
        self._clock: Callable[[], float] = lambda: 0.0

    def _grow(self, blocks: int) -> None:
        """Give the arena storage for ``blocks`` blocks (at most the cap),
        keeping the old contents.  storage[i] holds block i; two 64-bit
        lanes per slot: the vertex id (int64) and the distance (float64
        bits in the same word)."""
        if self.num_blocks is not None:
            blocks = min(blocks, self.num_blocks)
        storage = np.zeros((blocks, self.words_per_block, 2), dtype=np.int64)
        storage[: len(self.storage)] = self.storage
        self.storage = storage
        # The arena's two lanes, indexed by ``block * words_per_block +
        # offset``: the bucket storage writes and reads runs of slots
        # through them, and the relax kernel reads the arena at
        # ``address``.  Both re-read these on every call, so growth may
        # replace them.  ``dist_lane`` reinterprets the same buffer, so a
        # distance written there lands as its float64 bit pattern.
        slots = storage.reshape(-1, 2)
        self.vertex_lane = slots[:, 0]
        self.dist_lane = slots.view(np.float64)[:, 1]
        self.address = storage.ctypes.data

    def attach_tracer(
        self, tracer: Optional[Tracer], clock: Callable[[], float]
    ) -> None:
        """Emit ``pool_blocks_in_use`` counter samples on acquire/release.

        ``clock`` supplies the current simulated time in µs (the pool has
        no device reference of its own)."""
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._clock = clock

    @property
    def blocks_in_use(self) -> int:
        return self._minted - len(self._free)

    def acquire(self) -> int:
        """Take a block id; raises :class:`AllocationError` at the cap."""
        if self._free:
            blk = self._free.pop()
            self._free_set.discard(blk)
        else:
            if self._minted == self.num_blocks:
                raise AllocationError(
                    f"global pool exhausted ({self.num_blocks} blocks in use)"
                )
            blk = self._minted
            self._minted += 1
            if blk == len(self.storage):
                self._grow(2 * blk)
        self.high_water = max(self.high_water, self.blocks_in_use)
        if self._tracer.enabled:
            self._tracer.counter(
                "pool_blocks_in_use", self._clock(), self.blocks_in_use
            )
        return blk

    def release(self, block_id: int) -> None:
        if not 0 <= block_id < self._minted:
            raise AllocationError(f"release of unknown block {block_id}")
        if block_id in self._free_set:
            raise AllocationError(f"double free of block {block_id}")
        self._free.append(block_id)
        self._free_set.add(block_id)
        if self._tracer.enabled:
            self._tracer.counter(
                "pool_blocks_in_use", self._clock(), self.blocks_in_use
            )
