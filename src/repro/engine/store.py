"""Incremental JSONL result store: crash-safe persistence for sweeps.

Every completed cell of a sweep is appended to the store as one JSON line
the moment it finishes, so an interrupted 226-graph sweep resumes where it
stopped instead of starting over.  The format is line-oriented on purpose:
appends are atomic enough in practice (single ``write`` + ``flush`` of one
line), a truncated final line from a hard kill is detected and ignored,
and the file doubles as a machine-readable sweep log (``jq``-able, one
record per line).

Line shapes (all carry ``"schema": 1`` — see ``docs/schema.md``)::

    {"schema": 1, "kind": "result",  "category": ..., "result": {...}}
    {"schema": 1, "kind": "failure", "failure": {"graph": ..., ...}}

Distance vectors round-trip *exactly* (base64 of the float64 buffer), so
a resumed sweep verifies and reports identically to an uninterrupted one.
Timelines and tracers are deliberately not persisted — they are
observability artifacts, not sweep state; a restored result carries its
flat ``stats`` dict.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path
from typing import Dict, List, Tuple, Union

import numpy as np

from repro.baselines.common import RESULT_SCHEMA_VERSION, SSSPResult
from repro.engine.failure import FailedRun
from repro.errors import EngineError
from repro.gpu.timeline import Timeline

__all__ = ["ResultStore", "StoreContents", "result_to_json", "result_from_json"]


def result_to_json(result: SSSPResult) -> Dict[str, object]:
    """Serialize a result for the store (exact-distance superset of
    :meth:`~repro.baselines.common.SSSPResult.to_json_dict`)."""
    payload = result.to_json_dict()
    dist = np.ascontiguousarray(result.dist, dtype=np.float64)
    payload["dist_b64"] = base64.b64encode(dist.tobytes()).decode("ascii")
    return payload


def result_from_json(payload: Dict[str, object]) -> SSSPResult:
    """Rebuild a result persisted by :func:`result_to_json`.

    The distance vector is bit-exact; timeline/predecessors are not
    persisted and come back empty/None.
    """
    try:
        dist = np.frombuffer(
            base64.b64decode(payload["dist_b64"]), dtype=np.float64
        ).copy()
        return SSSPResult(
            solver=str(payload["solver"]),
            graph_name=str(payload["graph"]),
            source=int(payload["source"]),
            dist=dist,
            work_count=int(payload["work_count"]),
            time_us=float(payload["time_us"]),
            timeline=Timeline(label=str(payload["solver"])),
            stats=dict(payload.get("stats") or {}),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise EngineError(f"corrupt result record: {exc}") from None


class StoreContents:
    """What :meth:`ResultStore.load` returns.

    ``results`` maps ``(graph_name, solver)`` to ``(category, result)``;
    ``failures`` lists the failure records in file order.  A later line
    for the same cell supersedes an earlier one (re-running a previously
    failed cell appends its fresh outcome).
    """

    def __init__(self) -> None:
        self.results: Dict[Tuple[str, str], Tuple[str, SSSPResult]] = {}
        self.failures: List[FailedRun] = []

    def __len__(self) -> int:
        return len(self.results)


class ResultStore:
    """Append-only JSONL persistence for sweep cells.

    The store is written by exactly one process (the engine parent); it
    flushes after every line so the on-disk state always reflects every
    completed cell, no matter how the sweep dies.
    """

    def __init__(self, path: Union[str, Path], *, truncate: bool = False) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if truncate and self.path.exists():
            self.path.unlink()
        self._fh = None

    # -- writing ----------------------------------------------------------- #

    def _write_line(self, payload: Dict[str, object]) -> None:
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
        json.dump(payload, self._fh, separators=(",", ":"))
        self._fh.write("\n")
        self._fh.flush()

    def append_result(self, category: str, result: SSSPResult) -> None:
        self._write_line(
            {
                "schema": RESULT_SCHEMA_VERSION,
                "kind": "result",
                "category": category,
                "result": result_to_json(result),
            }
        )

    def append_failure(self, failed: FailedRun) -> None:
        # the failure rides nested: FailedRun has its own ``kind`` field
        # (error/timeout), which must not collide with the record kind
        self._write_line(
            {
                "schema": RESULT_SCHEMA_VERSION,
                "kind": "failure",
                "failure": failed.to_json_dict(),
            }
        )

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- reading ----------------------------------------------------------- #

    def load(self) -> StoreContents:
        """Parse the store for resumption.

        A truncated *final* line (the signature of a hard kill mid-append)
        is ignored; a malformed line anywhere else means the file is not
        a result store and raises :class:`~repro.errors.EngineError`.
        """
        contents = StoreContents()
        if not self.path.exists():
            return contents
        with open(self.path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                if lineno == len(lines):
                    break  # torn final append from an interrupted sweep
                raise EngineError(
                    f"{self.path}:{lineno}: malformed store line"
                ) from None
            self._ingest(payload, lineno, contents)
        return contents

    def _ingest(
        self, payload: Dict[str, object], lineno: int, contents: StoreContents
    ) -> None:
        schema = payload.get("schema")
        if schema != RESULT_SCHEMA_VERSION:
            raise EngineError(
                f"{self.path}:{lineno}: store schema {schema!r} != "
                f"{RESULT_SCHEMA_VERSION} (regenerate the store)"
            )
        kind = payload.get("kind")
        if kind == "result":
            result = result_from_json(payload.get("result") or {})
            contents.results[(result.graph_name, result.solver)] = (
                str(payload.get("category", "")),
                result,
            )
        elif kind == "failure":
            contents.failures.append(
                FailedRun.from_json_dict(payload.get("failure") or {})
            )
        else:
            raise EngineError(
                f"{self.path}:{lineno}: unknown store record kind {kind!r}"
            )
