"""repro.oracles — reference potentials standing in for the paper's DFT labels.

The DP models in the paper are trained on DFT (ab initio) energies and
forces.  Offline we have no DFT engine, so these smooth many-body classical
potentials play the role of the first-principles oracle:

* :class:`repro.oracles.eam.SuttonChenEAM` — many-body EAM copper, the
  reference for the Cu benchmark system (surfaces, stacking faults, fcc
  ground state all emerge from the density term);
* :class:`repro.oracles.water.FlexibleWater` — flexible 3-site water with
  intramolecular springs, LJ, and damped-shifted-force electrostatics, the
  reference for the H2O benchmark system.

Every training pipeline consumes only (positions, types) -> (E, F, virial),
exactly the contract a DFT code would provide, so swapping a real oracle back
in changes nothing downstream (see README.md).
"""

from repro.oracles.eam import SuttonChenEAM
from repro.oracles.water import FlexibleWater

__all__ = ["SuttonChenEAM", "FlexibleWater"]
