"""§5.3 memory management: the FIFO block allocator behind each bucket.

The paper: "memory for a bucket is allocated in blocks of 64K 32-bit
words.  An array of pointers to allocated blocks is maintained for each
bucket.  The high order 16 bits of each 32 bit index are treated as an
index into the pointer array, and the lower order 16 bits are an offset
into the particular block. ... Because the memory blocks are always part
of a FIFO queue, they are read and written in a monotonically increasing
order, so management is much simpler than for a general purpose memory
allocator."

:class:`BucketStorage` realizes that design over the shared
:class:`~repro.gpu.memory.GlobalPool` arena:

- a *virtual index* (the paper's 32-bit index) splits into
  ``(index // slots_per_block, index % slots_per_block)`` — the pointer-
  array index and in-block offset (the 16/16 split, generalized to the
  configured block size);
- the pointer array maps virtual block numbers to pool blocks; it only
  grows at the tail (:meth:`ensure_capacity`, called by the MTB) and only
  shrinks at the head (:meth:`retire_below`, as ``read_ptr``/``CWC`` move
  past a block) — the FIFO property.  Both ends are kept as plain ints,
  ``capacity`` (first unbacked slot) and ``retire_at`` (the index whose
  passing frees the oldest block), so the queue answers "nothing to do"
  — the common case on every MTB pass and WTB push — with one
  comparison;
- :class:`TranslationCache` models the scratchpad direct-mapped caches
  that spare most accesses the extra indirection ("keeping direct-mapped
  translation caches for each WTB and for the MTB in scratchpad").

All allocation is driven by the MTB; workers that have reserved slots not
yet backed by a block wait (see :mod:`repro.core.wtb`), which is the
simulator's rendering of "all memory management is performed by the MTB,
freeing WTBs from dealing with this task."
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import AllocationError, ProtocolError
from repro.gpu.memory import GlobalPool

__all__ = ["BucketStorage", "TranslationCache"]


class TranslationCache:
    """A direct-mapped virtual-block → pool-block cache (scratchpad).

    The tag is the virtual block number (the paper's "high order 16 bits
    ... treated as a tag for the cached block at that index").  Only hit
    accounting lives here; correctness always goes through the pointer
    array.
    """

    def __init__(self, n_sets: int = 8) -> None:
        if n_sets < 1:
            raise AllocationError("cache needs at least one set")
        self.n_sets = n_sets
        self._tags: List[Optional[int]] = [None] * n_sets
        self.hits = 0
        self.misses = 0

    def access(self, vblock: int) -> bool:
        """Touch ``vblock``; returns True on hit."""
        s = vblock % self.n_sets
        if self._tags[s] == vblock:
            self.hits += 1
            return True
        self._tags[s] = vblock
        self.misses += 1
        return False

    def invalidate(self) -> None:
        self._tags = [None] * self.n_sets


class BucketStorage:
    """The paper's per-bucket block-allocated circular array.

    Slots hold ``(vertex, distance)`` pairs of 64-bit words in the pool's
    arena; virtual indices are monotonically increasing (a reset on
    bucket rotation starts a fresh epoch, which is how the simulator
    renders the 32-bit wraparound).
    """

    def __init__(self, pool: GlobalPool, slots_per_block: int, name: str = "") -> None:
        if slots_per_block < 1:
            raise AllocationError("slots_per_block must be positive")
        if slots_per_block > pool.words_per_block:
            raise AllocationError(
                f"slots_per_block {slots_per_block} exceeds pool block size "
                f"{pool.words_per_block}"
            )
        self.pool = pool
        self.slots_per_block = int(slots_per_block)
        self.name = name
        # pointer array: virtual block number -> pool block id
        self._table: Dict[int, int] = {}
        self._first_vblock = 0  # oldest still-mapped virtual block
        self._next_vblock = 0  # next virtual block to allocate
        #: First virtual slot index *not* backed by an allocated block.
        #: A plain int kept by ensure_capacity and reset: WTBs read it on
        #: every push and the MTB on every pass.
        self.capacity = 0
        #: Lowest index whose passing frees a block (the end of the
        #: oldest mapped block), kept by retire_below and reset.
        self.retire_at = self.slots_per_block
        self.blocks_allocated = 0
        self.blocks_retired = 0

    # -- capacity management (MTB only) ------------------------------------ #

    @property
    def live_blocks(self) -> int:
        return len(self._table)

    def ensure_capacity(self, slots: int) -> int:
        """Allocate blocks until ``capacity >= slots``; returns blocks added."""
        added = 0
        while self.capacity < slots:
            self._table[self._next_vblock] = self.pool.acquire()
            self._next_vblock += 1
            self.capacity += self.slots_per_block
            self.blocks_allocated += 1
            added += 1
        return added

    def retire_below(self, index: int) -> int:
        """Free whole blocks strictly below virtual slot ``index``.

        FIFO shrink: callers guarantee no live data below ``index``
        (``read_ptr`` and ``CWC`` have both passed it).
        """
        retired = 0
        while self.retire_at <= index:
            blk = self._table.pop(self._first_vblock, None)
            if blk is None:
                raise ProtocolError(
                    f"bucket {self.name}: retire of unmapped block "
                    f"{self._first_vblock}"
                )
            self.pool.release(blk)
            self._first_vblock += 1
            self.retire_at += self.slots_per_block
            self.blocks_retired += 1
            retired += 1
        return retired

    def reset(self) -> None:
        """Free everything (bucket rotation starts a fresh epoch)."""
        for blk in self._table.values():
            self.pool.release(blk)
        self._table.clear()
        self._first_vblock = 0
        self._next_vblock = 0
        self.capacity = 0
        self.retire_at = self.slots_per_block

    # -- slot access ---------------------------------------------------------- #

    def write_range(self, start: int, vertices, dists) -> None:
        """Write ``len(vertices)`` consecutive slots starting at ``start``:
        each vertex id into the slot's int64 word, its distance into the
        float64 word beside it."""
        k = len(vertices)
        if k == 0:
            return
        spb = self.slots_per_block
        if start + k > self.capacity or start < self._first_vblock * spb:
            raise ProtocolError(
                f"bucket {self.name}: write [{start}, {start + k}) outside "
                f"allocated range"
            )
        words = self.pool.words
        words_f64 = self.pool.words_f64
        wpb = self.pool.words_per_block
        pos = 0
        while pos < k:
            vblock, off = divmod(start + pos, spb)
            take = min(k - pos, spb - off)
            w = 2 * (self._table[vblock] * wpb + off)
            for i in range(pos, pos + take):
                words[w] = vertices[i]
                words_f64[w + 1] = dists[i]
                w += 2
            pos += take

    def read_range(self, start: int, end: int) -> Tuple[list, list]:
        """Gather slots ``[start, end)`` → ``(vertices, dists)`` lists."""
        spb = self.slots_per_block
        words = self.pool.words
        words_f64 = self.pool.words_f64
        wpb = self.pool.words_per_block
        verts: list = []
        dists: list = []
        idx = start
        while idx < end:
            vblock, off = divmod(idx, spb)
            blk = self._table.get(vblock)
            if blk is None:
                raise ProtocolError(
                    f"bucket {self.name}: read of unallocated slot {idx}"
                )
            take = min(end - idx, spb - off)
            w = 2 * (blk * wpb + off)
            verts += words[w : w + 2 * take : 2].tolist()
            dists += words_f64[w + 1 : w + 2 * take : 2].tolist()
            idx += take
        return verts, dists
