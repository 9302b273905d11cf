"""Correctness oracle: scipy's Dijkstra on the CSR of the same graph.

All workload weights are integers, so float64 path sums are exact and
every answer must equal the reference bit for bit.  scipy treats
parallel CSR entries as parallel edges (the lighter one wins) and
explicit zeros as zero-weight edges, the same semantics as ``repro``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra


def to_matrix(graph) -> sp.csr_matrix:
    """The graph's CSR arrays as a scipy matrix, copied (the graph may be
    patched in place later) and without summing duplicate entries."""
    n = graph.num_vertices
    return sp.csr_matrix(
        (
            np.array(graph.weights, dtype=np.float64),
            np.array(graph.col_indices),
            np.array(graph.row_offsets),
        ),
        shape=(n, n),
    )


def reference(matrix: sp.csr_matrix, source: int) -> np.ndarray:
    return dijkstra(matrix, directed=True, indices=int(source))


def references(matrix: sp.csr_matrix, sources: Sequence[int]) -> Dict[int, np.ndarray]:
    """:func:`reference` for each of ``sources`` (distinct), in one call."""
    rows = dijkstra(matrix, directed=True, indices=np.asarray(sources, dtype=np.int64))
    return dict(zip(sources, rows))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.ascontiguousarray(a, dtype="<f8")
    b = np.ascontiguousarray(b, dtype="<f8")
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def answer_ok(
    ref: np.ndarray,
    dist: np.ndarray,
    targets: Optional[Sequence[int]] = None,
    target_dist: Optional[np.ndarray] = None,
) -> bool:
    """A served answer: the full array and, when targets were named, the
    target slice must both equal the reference."""
    if not same_bits(ref, dist):
        return False
    if targets is None:
        return target_dist is None
    return target_dist is not None and same_bits(
        ref[np.asarray(targets, dtype=np.int64)], target_dist
    )
