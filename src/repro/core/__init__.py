"""ADDS — Asynchronous Dynamic Delta-Stepping (the paper's contribution).

The pieces map one-to-one onto §5 of the paper:

======================= ====================================================
module                  paper section
======================= ====================================================
``config``              tunables + the Table 5 ablation switches
``block_alloc``         §5.3 memory management: FIFO block allocator,
                        16/16-bit index split, translation caches
``bucket_queue``        §5.2/§5.4: the circular 32-bucket priority queue,
                        ``resv_ptr`` / segment ``WCC`` / ``read_ptr`` /
                        ``CWC`` protocol, rotation, clipping
``delta_controller``    §5.5: run-time Δ selection (utilization band, clip
                        guard, settling in head-bucket switches, dynamic
                        active-bucket count)
``wtb``                 §5.1: worker thread block — poll AF, expand,
                        atomic-min, push, complete
``mtb``                 §5.1/§5.4: manager thread block — allocate, scan,
                        assign, rotate, terminate after two empty sweeps
``adds``                the solver assembling all of it on a Device
======================= ====================================================
"""

from repro.core.adds import solve_adds
from repro.core.bucket_queue import BucketQueue
from repro.core.config import AddsConfig

__all__ = ["solve_adds", "AddsConfig", "BucketQueue"]
