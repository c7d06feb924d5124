"""The pair-style interface: what LAMMPS calls a ``pair_style``.

A :class:`Potential` consumes the system state plus the current (half)
neighbor pair list and returns energy, per-atom forces, and the virial
tensor.  The DP model (:mod:`repro.dp.pair`), the empirical force fields, and
the ab-initio oracle potentials all implement this interface, so the MD
driver is agnostic to where forces come from — exactly the LAMMPS/DeePMD-kit
division of labour the paper describes (Sec 5.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.md.system import System


@dataclass
class PotentialResult:
    """Energy (eV), forces (eV/Å, shape (N,3)), virial tensor (eV, 3x3)."""

    energy: float
    forces: np.ndarray
    virial: np.ndarray
    atom_energies: Optional[np.ndarray] = None

    def __post_init__(self):
        self.forces = np.asarray(self.forces, dtype=np.float64)
        self.virial = np.asarray(self.virial, dtype=np.float64).reshape(3, 3)


@dataclass
class ForceFrame:
    """One unit of force-evaluation work submitted to a force backend
    (:mod:`repro.dp.backend`).

    ``system`` carries the atoms (locals first, then explicit ghosts when
    ``nloc`` < ``n_atoms``); ``pair_i``/``pair_j`` is the half neighbor-pair
    list; ``pbc`` selects minimum-image (True) or raw displacements (False —
    the domain-decomposition mode, whose periodic images are explicit
    ghosts).
    """

    system: object  # System (or duck-typed: positions/types/box/n_atoms)
    pair_i: np.ndarray
    pair_j: np.ndarray
    nloc: Optional[int] = None  # None => every atom is local
    pbc: bool = True


class Potential:
    """Base class for all interaction models."""

    #: Interaction cutoff in Å; the driver sizes neighbor lists from this.
    cutoff: float = 0.0

    def compute(
        self, system: System, pair_i: np.ndarray, pair_j: np.ndarray
    ) -> PotentialResult:
        raise NotImplementedError

    def compute_dense(self, system: System) -> PotentialResult:
        """Convenience: build a fresh neighbor list and evaluate."""
        from repro.md.neighbor import neighbor_pairs

        pi, pj = neighbor_pairs(system, self.cutoff)
        return self.compute(system, pi, pj)


def pair_virial(disp_ij: np.ndarray, force_ij: np.ndarray) -> np.ndarray:
    """Virial tensor from pairwise decomposable forces.

    ``disp_ij`` are minimum-image vectors r_j - r_i and ``force_ij`` the force
    on atom i from atom j; W = -Σ r_ij ⊗ f_ij (eV).
    """
    return -np.einsum("ni,nj->ij", disp_ij, force_ij)
