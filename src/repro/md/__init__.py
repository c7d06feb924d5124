"""repro.md — a LAMMPS-like molecular dynamics substrate.

DeePMD-kit delegates atom bookkeeping, neighbor lists, integration, and
thermodynamic output to LAMMPS; this package provides the same contract for
the reproduction:

* :mod:`repro.md.box` / :mod:`repro.md.system` — orthorhombic periodic cell
  and the mutable atomic state;
* :mod:`repro.md.neighbor` — cell-list / O(N^2) neighbor lists with a Verlet
  skin and the paper's rebuild-every-N policy;
* :mod:`repro.md.velocity` — Boltzmann velocity initialisation (Sec 6.1);
* :mod:`repro.md.integrators` — velocity-Verlet plus Langevin/Berendsen
  thermostats;
* :mod:`repro.md.thermo` — kinetic energy, temperature, pressure from the
  virial, collected every N steps as in the paper;
* :mod:`repro.md.deform` — box deformation fix for the Fig 7 tensile run;
* :mod:`repro.md.potential` — the pair-style interface DP plugs into, plus a
  Lennard-Jones empirical force field baseline (:mod:`repro.md.lj`);
* :mod:`repro.md.simulation` — the serial MD driver;
* :mod:`repro.md.ensemble` — lockstep multi-replica MD through the batched
  DP evaluation engine (fused force evaluations, per-replica state).
"""

from repro.md.box import Box
from repro.md.system import System
from repro.md.neighbor import NeighborList, fitted_neighbor_list, neighbor_pairs
from repro.md.velocity import boltzmann_velocities
from repro.md.integrators import VelocityVerlet, Langevin, Berendsen, NoseHoover
from repro.md.thermo import ThermoState, compute_thermo
from repro.md.deform import Deform
from repro.md.potential import Potential, PotentialResult
from repro.md.lj import LennardJones
from repro.md.simulation import Simulation
from repro.md.ensemble import EnsembleSimulation

__all__ = [
    "Box",
    "System",
    "NeighborList",
    "fitted_neighbor_list",
    "neighbor_pairs",
    "boltzmann_velocities",
    "VelocityVerlet",
    "Langevin",
    "Berendsen",
    "NoseHoover",
    "ThermoState",
    "compute_thermo",
    "Deform",
    "Potential",
    "PotentialResult",
    "LennardJones",
    "Simulation",
    "EnsembleSimulation",
]
