"""Scaling sweeps: the generators behind Table 1, Table 4, Fig 5 and Fig 6.

Every row the paper's evaluation reports for Summit-scale runs is produced
here from the cost model.  The ``benchmarks/`` modules print these next to
the paper's measured values (``repro scaling`` prints the tables alone).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.perfmodel.costmodel import (
    COPPER_SPEC,
    WATER_SPEC,
    SystemSpec,
    step_time,
)
from repro.perfmodel.machine import SUMMIT, SummitMachine


@dataclass
class ScalingPoint:
    """One point of a scaling curve."""

    n_nodes: int
    n_gpus: int
    n_atoms: int
    precision: str
    atoms_per_gpu: float
    ghosts_per_gpu: float
    t_step: float  # seconds per MD step
    loop_time_500: float  # the paper's "MD loop time" for 500 steps
    pflops: float
    percent_of_peak: float  # of the fp64 node peak, as the paper reports
    time_to_solution: float  # s/step/atom
    efficiency: float = 1.0  # parallel efficiency vs the first point

    def ns_per_day(self, timestep_fs: float) -> float:
        """Simulated nanoseconds per wall-clock day."""
        steps_per_day = 86400.0 / self.t_step
        return steps_per_day * timestep_fs * 1e-6


def _point(
    n_atoms: int,
    n_nodes: int,
    spec: SystemSpec,
    precision: str,
    machine: SummitMachine,
) -> ScalingPoint:
    n_gpus = n_nodes * machine.gpus_per_node
    parts = step_time(n_atoms, n_gpus, spec, precision, machine)
    t = parts["t_step"]
    total_flops = spec.flops_per_atom_step * n_atoms
    pflops = total_flops / t / 1e15
    return ScalingPoint(
        n_nodes=n_nodes,
        n_gpus=n_gpus,
        n_atoms=n_atoms,
        precision=precision,
        atoms_per_gpu=parts["atoms_per_gpu"],
        ghosts_per_gpu=parts["ghosts_per_gpu"],
        t_step=t,
        loop_time_500=500.0 * t,
        pflops=pflops,
        percent_of_peak=100.0 * total_flops / t / machine.peak_fp64(n_nodes),
        time_to_solution=t / n_atoms,
    )


def strong_scaling(
    spec: SystemSpec,
    n_atoms: int,
    node_counts: Sequence[int],
    precision: str = "double",
    machine: SummitMachine = SUMMIT,
) -> list[ScalingPoint]:
    """Fixed problem size over increasing node counts (Fig 5)."""
    points = [_point(n_atoms, n, spec, precision, machine) for n in node_counts]
    base = points[0]
    for p in points:
        p.efficiency = (base.t_step * base.n_nodes) / (p.t_step * p.n_nodes)
    return points


def weak_scaling(
    spec: SystemSpec,
    atoms_per_node: float,
    node_counts: Sequence[int],
    precision: str = "double",
    machine: SummitMachine = SUMMIT,
) -> list[ScalingPoint]:
    """Fixed atoms/node over increasing node counts (Fig 6)."""
    points = []
    for n in node_counts:
        n_atoms = int(round(atoms_per_node * n))
        points.append(_point(n_atoms, n, spec, precision, machine))
    base = points[0]
    for p in points:
        p.efficiency = p.pflops / (base.pflops * p.n_nodes / base.n_nodes)
    return points


# --------------------------------------------------------------------------
# Table 4: water strong scaling, 12,582,912 atoms, 480..27360 GPUs
# --------------------------------------------------------------------------

TABLE4_GPU_COUNTS = (480, 960, 1920, 3840, 7680, 15360, 27360)
TABLE4_PAPER = {
    # gpus: (atoms/GPU, ghosts/GPU, MD loop time (s), efficiency, PFLOPS, %peak)
    480: (26214, 25566, 92.31, 1.00, 1.35, 38.54),
    960: (13107, 16728, 47.11, 0.98, 2.65, 37.76),
    1920: (6553, 11548, 25.08, 0.92, 4.98, 35.46),
    3840: (3276, 7962, 13.62, 0.85, 9.16, 32.64),
    7680: (1638, 5467, 7.98, 0.72, 15.63, 27.85),
    15360: (819, 3995, 5.76, 0.50, 21.66, 19.30),
    27360: (459, 3039, 4.53, 0.36, 27.51, 13.75),
}


def table4_rows(machine: SummitMachine = SUMMIT) -> list[dict]:
    """Model predictions for each Table 4 column, with paper values attached."""
    n_atoms = 12_582_912
    rows = []
    base_t = None
    for gpus in TABLE4_GPU_COUNTS:
        parts = step_time(n_atoms, gpus, WATER_SPEC, "double", machine)
        loop = 500.0 * parts["t_step"]
        if base_t is None:
            base_t = parts["t_step"] * gpus
        total_flops = WATER_SPEC.flops_per_atom_step * n_atoms
        pflops = total_flops / parts["t_step"] / 1e15
        peak = machine.gpu_fp64_flops * gpus  # paper's %peak is GPU-based here
        rows.append(
            {
                "gpus": gpus,
                "atoms_per_gpu": parts["atoms_per_gpu"],
                "ghosts_per_gpu": parts["ghosts_per_gpu"],
                "md_loop_time": loop,
                "efficiency": base_t / (parts["t_step"] * gpus),
                "pflops": pflops,
                "percent_peak": 100.0 * total_flops / parts["t_step"] / peak,
                "paper": TABLE4_PAPER[gpus],
            }
        )
    return rows


# --------------------------------------------------------------------------
# Table 1: time-to-solution survey
# --------------------------------------------------------------------------

TABLE1_LITERATURE = [
    # work, year, potential, system, #atoms, machine, TtS (s/step/atom)
    ("Qbox [26]", 2006, "DFT", "Mo", 1_000, "BlueGene/L", 2.8e-1),
    ("LS3DF [62]", 2008, "LS-DFT", "ZnTeO", 16_000, "BlueGene/P", 1.8e-2),
    ("RSDFT [28]", 2011, "DFT", "Si", 107_000, "K-computer", 2.6e0),
    ("DFT-FE [21]", 2019, "DFT", "Mg", 11_000, "Summit", 6.5e-2),
    ("CONQUEST [44]", 2020, "LS-DFT", "Si", 1_000_000, "K-computer", 4.0e-3),
    ("Simple-NN [35]", 2019, "BP", "SiO2", 14_000, "VSC", 3.6e-5),
    ("Singraber et al. [53]", 2019, "BP", "H2O", 9_000, "KISTI", 1.3e-6),
    ("Baseline DeePMD-kit [60]", 2018, "DP", "H2O", 25_000, "Summit (1 GPU)", 5.6e-5),
]

TABLE1_PAPER_THIS_WORK = [
    ("This work (model)", 2020, "DP", "H2O", 402_653_184, "Summit", 2.7e-10),
    ("This work (model)", 2020, "DP", "Cu", 113_246_208, "Summit", 7.3e-10),
]


def table1_rows(machine: SummitMachine = SUMMIT) -> list[dict]:
    """Model-predicted TtS for the paper's two headline systems."""
    rows = []
    for name, year, pot, system, n_atoms, where, paper_tts in TABLE1_PAPER_THIS_WORK:
        spec = WATER_SPEC if system == "H2O" else COPPER_SPEC
        parts = step_time(n_atoms, 4560 * machine.gpus_per_node, spec, "double", machine)
        rows.append(
            {
                "work": name,
                "system": system,
                "n_atoms": n_atoms,
                "machine": where,
                "tts_model": parts["t_step"] / n_atoms,
                "tts_paper": paper_tts,
            }
        )
    return rows


# --------------------------------------------------------------------------
# Fig 5 / Fig 6 reference values for comparison printing
# --------------------------------------------------------------------------

FIG5_WATER_NODES = (80, 160, 320, 640, 1280, 2560, 4560)
FIG5_COPPER_NODES = (570, 1140, 2280, 4560)
FIG5_PAPER_WATER_DOUBLE = {  # node -> (PFLOPS, TtS ms)
    80: (1.4, 185), 160: (2.6, 94), 320: (5.0, 50), 640: (8.8, 28),
    1280: (15.6, 16), 2560: (21.6, 12), 4560: (27.5, 9),
}
FIG5_PAPER_COPPER_DOUBLE = {
    570: (11.7, 142), 1140: (22.7, 74), 2280: (42.2, 40), 4560: (76.4, 22),
}
FIG6_WATER_NODES = (285, 570, 1140, 2280, 4560)
FIG6_PAPER_WATER_DOUBLE = {285: 4.7, 570: 9.4, 1140: 18.7, 2280: 36.8, 4560: 72.6}
FIG6_PAPER_COPPER_DOUBLE = {285: 5.5, 570: 10.9, 1140: 21.6, 2280: 43.3, 4560: 86.2}

WATER_STRONG_ATOMS = 12_582_912
COPPER_STRONG_ATOMS = 25_739_424
WATER_WEAK_ATOMS_PER_NODE = 402_653_184 / 4560
COPPER_WEAK_ATOMS_PER_NODE = 113_246_208 / 4560


# --------------------------------------------------------------------------
# Sec 8.2: the exascale outlook — "no intrinsic obstacles to scaling our
# code ... for systems with billions of atoms"
# --------------------------------------------------------------------------


def latency_sensitivity(
    spec: SystemSpec = WATER_SPEC,
    n_atoms: int = WATER_STRONG_ATOMS,
    n_nodes: int = 4560,
    latency_factors: Sequence[float] = (1.0, 0.5, 0.25, 0.1),
    machine: SummitMachine = SUMMIT,
) -> list[dict]:
    """Sec 8.2's hardware ask, quantified: how much strong-scaling headroom
    does reducing the per-step latency floor (GPU launch + network latency)
    unlock at the most latency-bound point of Fig 5?

    Returns one row per hypothetical latency reduction factor.
    """
    from dataclasses import replace as dc_replace

    rows = []
    for f in latency_factors:
        m = dc_replace(
            machine,
            fixed_step_seconds=machine.fixed_step_seconds * f,
            mpi_latency=machine.mpi_latency * f,
        )
        pt = _point(n_atoms, n_nodes, spec, "double", m)
        rows.append(
            {
                "latency_factor": f,
                "t_step": pt.t_step,
                "pflops": pt.pflops,
                "percent_peak": pt.percent_of_peak,
            }
        )
    return rows


def exascale_projection(
    spec: SystemSpec = COPPER_SPEC,
    atoms_per_node: Optional[float] = None,
    max_nodes: int = 80_000,
    precision: str = "mixed",
    machine: SummitMachine = SUMMIT,
) -> list[ScalingPoint]:
    """Weak-scale the cost model past Summit toward an exascale machine.

    Keeps Summit's per-node characteristics (the conservative case the paper
    argues from: its Fig 6 linearity implies no intrinsic obstacle) and
    extends the node count until the system passes 1 billion atoms.
    """
    if atoms_per_node is None:
        atoms_per_node = COPPER_WEAK_ATOMS_PER_NODE
    nodes = []
    n = 4560
    while n <= max_nodes:
        nodes.append(n)
        n *= 2
    return weak_scaling(spec, atoms_per_node, nodes, precision, machine)
