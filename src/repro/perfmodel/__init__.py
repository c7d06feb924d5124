"""repro.perfmodel — an analytic performance model of DeePMD-kit on Summit.

The paper's headline results (Figs 5-6, Tables 1 and 4) are measurements on
4,560 Summit nodes; that hardware is substituted here by a calibrated
analytic model (see README.md):

* :mod:`repro.perfmodel.machine` — Summit's per-GPU/node/network constants
  exactly as quoted in Sec 6.2, plus three calibration constants (GEMM
  efficiency, fixed per-step overhead, per-ghost cost) anchored on two
  points of Table 4 and validated on the remaining five;
* :mod:`repro.perfmodel.flops` — exact analytic FLOP counts of the DP model,
  cross-checked against the tfmini executor's counted FLOPs;
* :mod:`repro.perfmodel.costmodel` — per-step wall time from a roofline +
  overhead + geometric ghost-region + communication decomposition;
* :mod:`repro.perfmodel.scaling` — strong/weak scaling sweeps that regenerate
  the rows/series of Table 1, Table 4, Fig 5 and Fig 6.
"""

from repro.perfmodel.machine import SummitMachine, SUMMIT
from repro.perfmodel.flops import dp_flops_per_atom, FlopBreakdown
from repro.perfmodel.costmodel import (
    SystemSpec,
    WATER_SPEC,
    COPPER_SPEC,
    step_time,
    ghost_count,
    decompose_gpus,
)
from repro.perfmodel.scaling import (
    ScalingPoint,
    strong_scaling,
    weak_scaling,
    table4_rows,
    table1_rows,
)

__all__ = [
    "SummitMachine",
    "SUMMIT",
    "dp_flops_per_atom",
    "FlopBreakdown",
    "SystemSpec",
    "WATER_SPEC",
    "COPPER_SPEC",
    "step_time",
    "ghost_count",
    "decompose_gpus",
    "ScalingPoint",
    "strong_scaling",
    "weak_scaling",
    "table4_rows",
    "table1_rows",
]
