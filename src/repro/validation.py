"""Result verification: the artifact's ``verify_against_*`` / ``verify.py``.

The artifact validates performance results by "comparing whether two
implementations produce the same final node distances" and reports a
"mismatch" for any line that differs.  ``verify_results`` does the same
over in-memory results; ``write_dist_file`` / ``verify_dist_files`` mirror
the on-disk ``*_final_dist`` workflow.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import List, Union

import numpy as np

from repro.baselines.common import SSSPResult
from repro.errors import ValidationError

__all__ = [
    "Mismatch",
    "MismatchReport",
    "verify_results",
    "assert_results_match",
    "write_dist_file",
    "read_dist_file",
    "verify_dist_files",
    "dist_sha256",
]


def dist_sha256(dist: np.ndarray) -> str:
    """Endianness-pinned content hash of the distance vector (the
    ``dist_sha256`` field of bench and check payloads)."""
    buf = np.ascontiguousarray(dist, dtype=np.float64).astype("<f8")
    return hashlib.sha256(buf.tobytes()).hexdigest()


@dataclass(frozen=True)
class Mismatch:
    """One disagreeing vertex between two distance vectors."""

    vertex: int
    dist_a: float
    dist_b: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"mismatch at vertex {self.vertex}: {self.dist_a} != {self.dist_b}"


class MismatchReport(List[Mismatch]):
    """Mismatches reported by :func:`verify_results`, plus the real count.

    The list itself is capped at ``max_report`` entries; ``total`` is the
    untruncated mismatch count, so a 91204-vertex disagreement is never
    mistaken for a 50-vertex one.  Still a plain list to existing callers.
    """

    def __init__(self, mismatches=(), total: int = None) -> None:
        super().__init__(mismatches)
        self.total = len(self) if total is None else int(total)


def verify_results(
    a: SSSPResult,
    b: SSSPResult,
    *,
    atol: float = 0.0,
    rtol: float = 0.0,
    max_report: int = 50,
) -> MismatchReport:
    """Compare two results' distances; returns the mismatching vertices.

    ``atol``/``rtol`` cover float solvers and the artifact's NV caveat
    ("distances differing by 1 between NV and other implementations");
    unreachable (inf) must agree exactly.
    """
    if a.graph_name != b.graph_name:
        raise ValidationError(
            f"comparing results for different graphs: "
            f"{a.graph_name!r} vs {b.graph_name!r}"
        )
    if a.source != b.source:
        raise ValidationError(f"different sources: {a.source} vs {b.source}")
    da, db = np.asarray(a.dist), np.asarray(b.dist)
    if da.shape != db.shape:
        raise ValidationError(f"distance vectors differ in length: {da.size} vs {db.size}")
    fa, fb = np.isfinite(da), np.isfinite(db)
    # NaN mismatches everything, including NaN: a solver emitting NaN is
    # corrupt, and NaN must never pass as "unreachable" just because
    # isfinite lumps it with INF.
    bad = (fa != fb) | np.isnan(da) | np.isnan(db)
    both = fa & fb
    tol = atol + rtol * np.maximum(np.abs(da[both]), np.abs(db[both]))
    bad_vals = np.zeros_like(bad)
    bad_vals[both] = np.abs(da[both] - db[both]) > tol
    bad |= bad_vals
    idx = np.flatnonzero(bad)
    out = [
        Mismatch(vertex=int(v), dist_a=float(da[v]), dist_b=float(db[v]))
        for v in idx[:max_report]
    ]
    return MismatchReport(out, total=int(idx.size))


def assert_results_match(a: SSSPResult, b: SSSPResult, **kw) -> None:
    """Raise :class:`ValidationError` listing mismatches, if any."""
    mism = verify_results(a, b, **kw)
    if mism.total:
        listing = "\n".join(str(m) for m in mism[:10])
        raise ValidationError(
            f"{a.solver} vs {b.solver} on {a.graph_name}: "
            f"{mism.total} mismatches\n{listing}"
        )


def write_dist_file(result: SSSPResult, path: Union[str, Path]) -> None:
    """The artifact's ``*_final_dist`` format: one ``vertex distance``
    line per vertex, ``INF`` for unreachable."""
    with open(path, "w") as fh:
        for v, d in enumerate(result.dist):
            if np.isfinite(d):
                text = str(int(d)) if float(d).is_integer() else repr(float(d))
            else:
                text = "INF"
            fh.write(f"{v} {text}\n")


def read_dist_file(path: Union[str, Path]) -> np.ndarray:
    """Inverse of :func:`write_dist_file`."""
    dists = []
    with open(path) as fh:
        for lineno, line in enumerate(fh):
            parts = line.split()
            if len(parts) != 2:
                raise ValidationError(f"{path}:{lineno + 1}: bad dist line {line!r}")
            dists.append(np.inf if parts[1] == "INF" else float(parts[1]))
    return np.asarray(dists, dtype=np.float64)


def verify_dist_files(
    path_a: Union[str, Path], path_b: Union[str, Path], *, atol: float = 0.0
) -> List[Mismatch]:
    """The on-disk comparison ``verify.py`` performs."""
    da, db = read_dist_file(path_a), read_dist_file(path_b)
    if da.size != db.size:
        raise ValidationError(
            f"{path_a} and {path_b} differ in vertex count: {da.size} vs {db.size}"
        )
    fa, fb = np.isfinite(da), np.isfinite(db)
    both = fa & fb
    diff = np.zeros_like(da)
    diff[both] = np.abs(da[both] - db[both])
    # NaN is a mismatch against anything, including NaN (see verify_results).
    bad = (fa != fb) | (both & (diff > atol)) | np.isnan(da) | np.isnan(db)
    return [
        Mismatch(vertex=int(v), dist_a=float(da[v]), dist_b=float(db[v]))
        for v in np.flatnonzero(bad)
    ]
