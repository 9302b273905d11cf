"""The serving session's distance cache.

An SSSP solve is expensive; its output — the full distance array from
one source — answers *every* point-to-point query from that source.  The
cache therefore stores full solves keyed ``(graph_id, source)`` and
treats each cached source as a **landmark**: a target query ``(s, t)``
is answered by indexing the cached array of ``s``, never by a separate
solve.  Because the repo's solvers are
deterministic, a cached array is bit-identical to what a fresh solve
would produce, so serving from cache never changes an answer.

Eviction is plain LRU over whole entries (an entry is one ``(graph,
source)`` solve — arrays are never partially dropped), bounded by
``max_entries``.  ``invalidate(graph_id)`` drops every entry of one
graph, the hook a session calls when a graph is replaced or removed;
there is no time-based expiry because graphs only change through the
session's explicit load/invalidate API.

Cached arrays are handed out as read-only views so one caller's
mutation cannot silently corrupt every later answer; callers that need
to write take an explicit ``.copy()``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = ["DistanceCache"]


class DistanceCache:
    """LRU cache of full single-source distance arrays.

    Not thread-safe by itself — the owning :class:`~repro.serve.session.
    Session` serializes access under its queue lock.
    """

    def __init__(self, max_entries: int = 64) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1 (got {max_entries})")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Tuple[str, int], np.ndarray]" = OrderedDict()
        #: Outcomes of :meth:`get`, one per *source* lookup (a session's
        #: ``serve_cache_hits`` counts *queries* instead).
        self.lookup_hits = 0
        self.lookup_misses = 0
        #: Entries dropped by LRU pressure (invalidation counts separately).
        self.evictions = 0
        self.invalidated = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple[str, int]) -> bool:
        return key in self._entries

    # -- lookups ------------------------------------------------------------ #

    def get(self, graph_id: str, source: int) -> Optional[np.ndarray]:
        """The cached full distance array for ``(graph_id, source)``, or
        ``None``.  A hit refreshes the entry's LRU position."""
        key = (graph_id, int(source))
        dist = self._entries.get(key)
        if dist is None:
            self.lookup_misses += 1
            return None
        self._entries.move_to_end(key)
        self.lookup_hits += 1
        return dist

    def peek(self, graph_id: str, source: int) -> Optional[np.ndarray]:
        """Like :meth:`get` but touching neither counters nor LRU order
        (for introspection and tests)."""
        return self._entries.get((graph_id, int(source)))

    # -- updates ------------------------------------------------------------ #

    def put(
        self, graph_id: str, source: int, dist: np.ndarray, *, own: bool = False
    ) -> np.ndarray:
        """Insert (or refresh) one full solve; returns the read-only
        array the cache retains.  Inserting past capacity evicts the
        least-recently-used entry.

        ``own=True`` declares the array is the cache's now (e.g. a
        solver result nobody else holds): it is frozen in place without
        copying.  By default the cache assumes the caller keeps using
        their array and stores a frozen *copy* — freezing a view, as an
        earlier version did, left the caller's base array writable and
        the "read-only" cache entry silently mutable through it.
        """
        key = (graph_id, int(source))
        stored = np.asarray(dist)
        if stored.flags.writeable:
            if own and stored.base is None:
                # freeze in place: the array owns its buffer, and any
                # reference the producer kept goes read-only with it
                stored.flags.writeable = False
            else:
                # a copy is the only way to sever the caller's handle —
                # freezing a view would leave the base array writable
                stored = stored.copy()
                stored.flags.writeable = False
        self._entries[key] = stored
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
        return stored

    def sources(self, graph_id: str) -> list:
        """The sources currently cached for ``graph_id`` (insertion
        order), for selective invalidation sweeps."""
        return [src for (gid, src) in self._entries if gid == graph_id]

    def drop(self, graph_id: str, source: int) -> bool:
        """Drop one entry (selective invalidation); returns whether it
        existed.  Counts toward ``invalidated``, not ``evictions``."""
        existed = self._entries.pop((graph_id, int(source)), None) is not None
        if existed:
            self.invalidated += 1
        return existed

    def invalidate(self, graph_id: str) -> int:
        """Drop every entry of ``graph_id``; returns how many were
        dropped.  Unknown ids are a no-op (0), not an error."""
        doomed = [k for k in self._entries if k[0] == graph_id]
        for k in doomed:
            del self._entries[k]
        self.invalidated += len(doomed)
        return len(doomed)

    def clear(self) -> None:
        self.invalidated += len(self._entries)
        self._entries.clear()

    # -- reporting ----------------------------------------------------------- #

    @property
    def hit_rate(self) -> float:
        total = self.lookup_hits + self.lookup_misses
        return self.lookup_hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "lookup_hits": self.lookup_hits,
            "lookup_misses": self.lookup_misses,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "invalidated": self.invalidated,
        }
