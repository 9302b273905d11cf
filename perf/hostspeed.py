"""How fast the host runs right now, from a fixed reference computation.

On a shared machine, neighbours slow identical code by 10% within a
second and by up to 50% for minutes, which swamps any useful regression
bound.  The benchmark therefore times a kernel right before each timed
sample and reports the sample at the reference speed:
``seconds * reference seconds / kernel seconds``.

Neighbours slow different kinds of work by different amounts: a Python
Dijkstra by 1.5-1.8x when an ADDS solve slows by 1.2-1.3x.  So the
kernel does, in small, the work of the code it corrects for.  Every
kernel runs a Python Dijkstra over numpy CSR arrays, which is what the
serve workloads spend over 90% of their time in.  For the simulator it
adds a scatter-min over 64k-element arrays (the batched atomics) and a
random gather from a 16 MB array (cache and memory pressure).  The
kernels share no code with ``repro``, so a change to ``repro`` cannot
move them.  On a 2-vCPU shared VM, ten runs of a workload spread by up
to 31% raw and by at most 14% scaled (perf/baseline.json).
"""

from __future__ import annotations

import heapq
import time

import numpy as np

#: Kernel seconds on the host the baseline was measured on (2-vCPU
#: x86_64 VM, Python 3.11, numpy 2.4), in the benchmark's process, while
#: it ran undisturbed.  They fix only the scale of reported times;
#: ratios between runs and commits do not depend on them.
REFERENCE_S = {False: 1.3e-3, True: 3.6e-3}

_SIDE = 22
_SCATTER = 65536
_GATHER_FROM = 2_000_000
_GATHER = 150_000


class HostSpeed:
    """A reference kernel and its inputs, built once: the Dijkstra part
    alone, or with ``simulator`` also the scatter and gather parts
    (17 MB more)."""

    def __init__(self, simulator: bool) -> None:
        self.simulator = simulator
        rng = np.random.default_rng(7)
        # an _SIDE x _SIDE grid with weights 1..99, as CSR
        ids = np.arange(_SIDE * _SIDE).reshape(_SIDE, _SIDE)
        pairs = [(ids[:, :-1], ids[:, 1:]), (ids[:-1, :], ids[1:, :])]
        src = np.concatenate([a.ravel() for a, b in pairs] + [b.ravel() for a, b in pairs])
        dst = np.concatenate([b.ravel() for a, b in pairs] + [a.ravel() for a, b in pairs])
        order = np.argsort(src, kind="stable")
        self._cols = dst[order]
        self._offsets = np.searchsorted(src[order], np.arange(_SIDE * _SIDE + 1))
        self._weights = rng.integers(1, 100, self._cols.size).astype(np.float64)
        if simulator:
            self._targets = rng.integers(0, _SCATTER // 2, _SCATTER)
            self._values = rng.random(_SCATTER)
            self._table = rng.random(_GATHER_FROM)
            self._picks = rng.integers(0, _GATHER_FROM, _GATHER)

    def kernel(self) -> float:
        n = self._offsets.size - 1
        dist = np.full(n, np.inf)
        dist[0] = 0.0
        heap = [(0.0, 0)]
        while heap:
            d, v = heapq.heappop(heap)
            if d > dist[v]:
                continue
            for i in range(int(self._offsets[v]), int(self._offsets[v + 1])):
                u = int(self._cols[i])
                nd = d + float(self._weights[i])
                if nd < dist[u]:
                    dist[u] = nd
                    heapq.heappush(heap, (nd, u))
        if not self.simulator:
            return float(dist[-1])
        best = np.full(_SCATTER // 2, np.inf)
        np.minimum.at(best, self._targets, self._values)
        better = self._values <= best[self._targets]
        return float(dist[-1] + best[self._targets[better]].sum() + self._table[self._picks].sum())

    def scale(self) -> float:
        """Time the kernel once: the factor that takes a sample measured
        now to the reference speed."""
        # Untimed first: right after a solve, the kernel runs 15% slower
        # from cold caches, and by how much would depend on the code under
        # measurement.
        self.kernel()
        t0 = time.perf_counter()
        self.kernel()
        return REFERENCE_S[self.simulator] / (time.perf_counter() - t0)
