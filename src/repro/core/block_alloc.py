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
- the pointer array maps virtual block numbers to pool blocks.  It is a
  flat ``array('q')`` indexed by virtual block, so the native publish
  call of :mod:`repro.native` translates through it in place; it only
  grows at the tail (:meth:`ensure_capacity`, called by the MTB) and
  only retires at the head (:meth:`retire_below`, as ``read_ptr``/``CWC``
  move past a block, which leaves −1 in the retired entry) — the FIFO
  property.  ``capacity`` (first unbacked slot) is the table's length
  times ``slots_per_block``, and ``retire_at`` (the index whose passing
  frees the oldest block) is a plain int, so the queue answers "nothing
  to do" — the common case on every MTB pass and WTB push — with one
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

from array import array
from typing import List, Optional, Tuple

from repro.errors import AllocationError, ProtocolError
from repro.gpu.memory import GlobalPool

__all__ = ["BucketStorage", "TranslationCache"]

#: Sets of a :class:`TranslationCache`.
N_SETS = 8


class TranslationCache:
    """A direct-mapped virtual-block → pool-block cache (scratchpad).

    The tag is the virtual block number (the paper's "high order 16 bits
    ... treated as a tag for the cached block at that index").  Only hit
    accounting lives here; correctness always goes through the pointer
    array.
    """

    def __init__(self) -> None:
        self._tags: List[Optional[int]] = [None] * N_SETS
        self.hits = 0
        self.misses = 0

    def access(self, vblock: int) -> bool:
        """Touch ``vblock``; returns True on hit."""
        s = vblock % N_SETS
        if self._tags[s] == vblock:
            self.hits += 1
            return True
        self._tags[s] = vblock
        self.misses += 1
        return False


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
        #: The pointer array: virtual block number -> pool block id, −1
        #: once retired.  Appending may move it, so whoever holds its
        #: address re-reads it after :meth:`ensure_capacity` and
        #: :meth:`reset`.
        self.table = array("q")
        #: Lowest index whose passing frees a block (the end of the
        #: oldest mapped block), kept by retire_below and reset.
        self.retire_at = self.slots_per_block

    @property
    def capacity(self) -> int:
        """First virtual slot index *not* backed by an allocated block."""
        return len(self.table) * self.slots_per_block

    # -- capacity management (MTB only) ------------------------------------ #

    def ensure_capacity(self, slots: int) -> int:
        """Allocate blocks until ``capacity >= slots``; returns blocks added."""
        table = self.table
        added = -(-slots // self.slots_per_block) - len(table)
        for _ in range(added):
            table.append(self.pool.acquire())
        return max(added, 0)

    def retire_below(self, index: int) -> int:
        """Free whole blocks strictly below virtual slot ``index``.

        FIFO shrink: callers guarantee no live data below ``index``
        (``read_ptr`` and ``CWC`` have both passed it).
        """
        table = self.table
        spb = self.slots_per_block
        retired = 0
        while self.retire_at <= index:
            vblock = self.retire_at // spb - 1
            blk = table[vblock] if vblock < len(table) else -1
            if blk < 0:
                raise ProtocolError(
                    f"bucket {self.name}: retire of unmapped block {vblock}"
                )
            self.pool.release(blk)
            table[vblock] = -1
            self.retire_at += spb
            retired += 1
        return retired

    def reset(self) -> None:
        """Free everything (bucket rotation starts a fresh epoch)."""
        for blk in self.table:
            if blk >= 0:
                self.pool.release(blk)
        del self.table[:]
        self.retire_at = self.slots_per_block

    # -- slot access ---------------------------------------------------------- #

    def write_range(self, start: int, vertices, dists) -> None:
        """Write ``len(vertices)`` consecutive slots starting at ``start``:
        each vertex id into the slot's int64 word, its distance into the
        float64 word beside it.  Takes lists or arrays; each block's run
        is two slice assignments, one per lane."""
        k = len(vertices)
        if k == 0:
            return
        if start < 0 or start + k > self.capacity:
            self._outside(start, k)
        vertex_lane = self.pool.vertex_lane
        dist_lane = self.pool.dist_lane
        wpb = self.pool.words_per_block
        spb = self.slots_per_block
        table = self.table
        pos = 0
        while pos < k:
            vblock, off = divmod(start + pos, spb)
            take = min(k - pos, spb - off)
            blk = table[vblock]
            if blk < 0:
                self._outside(start, k)
            w = blk * wpb + off
            if take == k:  # the common case: one run, no slicing
                vertex_lane[w : w + k] = vertices
                dist_lane[w : w + k] = dists
            else:
                vertex_lane[w : w + take] = vertices[pos : pos + take]
                dist_lane[w : w + take] = dists[pos : pos + take]
            pos += take

    def _outside(self, start: int, k: int):
        raise ProtocolError(
            f"bucket {self.name}: write [{start}, {start + k}) outside "
            f"allocated range"
        )

    def _runs(self, start: int, end: int):
        """Slots ``[start, end)`` as ``(block, offset, count)`` runs, one
        per storage block the range touches."""
        spb = self.slots_per_block
        table = self.table
        idx = start
        while idx < end:
            vblock, off = divmod(idx, spb)
            blk = table[vblock] if 0 <= vblock < len(table) else -1
            if blk < 0:
                raise ProtocolError(
                    f"bucket {self.name}: read of unallocated slot {idx}"
                )
            take = min(end - idx, spb - off)
            yield blk, off, take
            idx += take

    def read_range(self, start: int, end: int) -> Tuple[list, list]:
        """Gather slots ``[start, end)`` → ``(vertices, dists)`` lists."""
        vertex_lane = self.pool.vertex_lane
        dist_lane = self.pool.dist_lane
        wpb = self.pool.words_per_block
        verts: list = []
        dists: list = []
        for blk, off, take in self._runs(start, end):
            w = blk * wpb + off
            verts += vertex_lane[w : w + take].tolist()
            dists += dist_lane[w : w + take].tolist()
        return verts, dists

    def address_runs(self, start: int, end: int, out) -> int:
        """Write slots ``[start, end)`` into ``out`` (an int64 buffer) as
        ``(address, count)`` pairs, one per storage block, for a kernel
        that reads the arena in place; returns the number of runs.  The
        addresses hold only until the pool next grows."""
        base = self.pool.address
        block_bytes = 16 * self.pool.words_per_block  # two 8-byte words a slot
        n = 0
        for blk, off, take in self._runs(start, end):
            out[n] = base + blk * block_bytes + 16 * off
            out[n + 1] = take
            n += 2
        return n // 2
