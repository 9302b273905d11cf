"""Dynamic graphs: edge-update streams and incremental SSSP re-solve.

The package behind ROADMAP item 2 ("dynamic graphs and incremental
SSSP"), in three layers:

- :mod:`repro.dynamic.updates` — the update model
  (:class:`EdgeUpdate` / :class:`UpdateBatch`), batch application with
  in-place weight patching or CSR rebuild (:func:`apply_updates`), and
  the net :class:`EdgeDeltas` record each application produces;
- :mod:`repro.dynamic.frontier` — the dirty-frontier rule
  (:func:`incremental_seed`): invalidate stale distances, seed a
  label-correcting solver from the violated-edge tails, converge to
  distances bit-identical to a from-scratch solve; plus
  :func:`changes_affect`, the per-source cache-invalidation test;
- the consumers: ``solve_adds(..., warm_from=, updates=)`` and
  ``solve_dijkstra(..., warm_from=, updates=)`` (the solvers taking
  those options), ``Session.apply_updates`` in :mod:`repro.serve`, the
  update-stream oracle in :mod:`repro.check`, and
  ``python -m repro serve-bench --updates``.

See ``docs/dynamic.md`` for the model and the correctness argument.
"""

from repro.dynamic.frontier import changes_affect, incremental_seed
from repro.dynamic.updates import (
    UPDATE_KINDS,
    EdgeDeltas,
    EdgeUpdate,
    UpdateBatch,
    UpdateResult,
    apply_updates,
)

__all__ = [
    "UPDATE_KINDS",
    "EdgeUpdate",
    "UpdateBatch",
    "EdgeDeltas",
    "UpdateResult",
    "apply_updates",
    "incremental_seed",
    "changes_affect",
]
