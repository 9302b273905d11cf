"""Simulation-scale calibration: the bridge between paper-size and repo-size.

The paper evaluates multi-million-edge graphs on a 68-SM / 68K-thread GPU.
This reproduction runs a scaled corpus (DESIGN.md §4.4), so by default all
solvers and benches run on a proportionally scaled device; otherwise every
graph would starve the full device and the saturated-vs-underutilized
contrast the paper's analysis hinges on (§6.4) would disappear.

Two knobs, both documented here and nowhere else:

``SIM_SCALE``
    SM-count scale factor for the simulated GPUs.  1/16 puts the default
    corpus (2 K–30 K vertices) in the same work-to-hardware regime the
    paper's 100 K–24 M-vertex inputs occupy on the real cards: road-class
    frontiers (~10² items) underutilize the ~4 K threads, rmat-class
    frontiers (~10³–10⁴ items) saturate them.

``LAUNCH_SCALE``
    Kernel-launch overhead shrinks by ``SIM_SCALE ** 0.375`` — much more
    slowly than the device: launch cost on real hardware is *fixed*, but
    keeping it fixed outright would make every scaled run launch-bound.
    This exponent keeps the launch-to-compute *ratio* of the paper's
    mid-size graphs (a saturated superstep still dwarfs a launch; a
    road-graph superstep is still dwarfed by one).

Passing an unscaled :data:`~repro.gpu.specs.RTX_2080TI` (and your own
cost model) to any solver bypasses all of this.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.gpu.costmodel import CostModel
from repro.gpu.specs import RTX_2080TI, DeviceSpec

__all__ = [
    "SIM_SCALE",
    "LAUNCH_SCALE",
    "sim_gpu",
    "sim_cost",
    "default_gpu",
    "default_cost",
]

#: Device scale factor for simulation-sized inputs (see module docstring).
SIM_SCALE = 1.0 / 16.0

#: Kernel-launch time scale (see module docstring).
LAUNCH_SCALE = SIM_SCALE ** 0.375

#: Full-device kernel launch overhead, µs (CostModel default).
_FULL_LAUNCH_US = 6.0


def sim_gpu(base: DeviceSpec = RTX_2080TI, scale: float = SIM_SCALE) -> DeviceSpec:
    """The scaled twin of ``base`` used throughout benches and defaults."""
    # DRAM bandwidth scales by sqrt(scale): latency constants don't shrink
    # with the device, so bandwidth per SM must grow at small scale to keep
    # starved runs latency-bound and saturated runs bandwidth-bound, as on
    # the real cards (see DeviceSpec.scaled).
    return base.scaled(scale, bandwidth_factor=math.sqrt(scale))


def sim_cost(spec: DeviceSpec) -> CostModel:
    """A cost model for a scaled device, with launch overhead scaled by
    :data:`LAUNCH_SCALE` too."""
    return CostModel(spec, kernel_launch_us=_FULL_LAUNCH_US * LAUNCH_SCALE)


def resolve_device(spec, cost):
    """Solver-argument resolution rule, shared by every GPU solver.

    - neither given → the scaled default device and its scaled cost model;
    - spec given, cost not → ``CostModel(spec)`` with stock constants
      (a full-size card gets the full 6 µs launch);
    - both given → used as-is.
    """
    if spec is None:
        spec = default_gpu()
        if cost is None:
            cost = default_cost()
    elif cost is None:
        cost = CostModel(spec)
    return spec, cost


_DEFAULT_GPU: Optional[DeviceSpec] = None
_DEFAULT_COST: Optional[CostModel] = None


def default_gpu() -> DeviceSpec:
    """The default solver device: RTX 2080 Ti scaled by :data:`SIM_SCALE`."""
    global _DEFAULT_GPU
    if _DEFAULT_GPU is None:
        _DEFAULT_GPU = sim_gpu(RTX_2080TI)
    return _DEFAULT_GPU


def default_cost(spec: Optional[DeviceSpec] = None) -> CostModel:
    """Cost model matching :func:`default_gpu` (cached for the default)."""
    global _DEFAULT_COST
    if spec is None or spec is default_gpu():
        if _DEFAULT_COST is None:
            _DEFAULT_COST = sim_cost(default_gpu())
        return _DEFAULT_COST
    return sim_cost(spec)
