"""Boltzmann velocity initialisation (paper Sec 6.1: 330 K, random seeds)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.md.system import System
from repro.units import MVV_TO_EV, KB


def boltzmann_velocities(
    system: System,
    temperature: float,
    seed: int | None = None,
    remove_drift: bool = True,
    rescale_exact: bool = True,
) -> None:
    """Draw velocities from the Maxwell–Boltzmann distribution, in place.

    Parameters
    ----------
    temperature:
        Target temperature in K.
    remove_drift:
        Zero the center-of-mass momentum (as LAMMPS ``velocity ... mom yes``).
    rescale_exact:
        Rescale so the instantaneous temperature equals ``temperature``
        exactly, which makes short benchmark runs reproducible.
    """
    rng = np.random.default_rng(seed)
    masses = system.atom_masses()
    sigma = np.sqrt(KB * temperature / (masses * MVV_TO_EV))
    vel = rng.normal(size=(system.n_atoms, 3)) * sigma[:, None]

    if remove_drift and system.n_atoms > 0:
        total_mass = masses.sum()
        com_v = (masses[:, None] * vel).sum(axis=0) / total_mass
        vel -= com_v

    system.velocities = vel
    if rescale_exact and temperature > 0 and system.n_atoms > 1:
        current = system.temperature()
        if current > 0:
            system.velocities *= np.sqrt(temperature / current)


def boltzmann_replicas(
    system: System,
    n_replicas: int,
    temperature: float | Sequence[float] = 330.0,
    seed: int | Sequence[int] = 0,
) -> list[System]:
    """Clone one structure into R replicas with fresh Boltzmann velocities.

    ``temperature`` and ``seed`` may be scalars (seed is then offset per
    replica so trajectories decorrelate) or per-replica sequences — the
    mixed-seed/mixed-temperature sampling setup.
    """
    # np.ndim == 0 (not np.isscalar, which rejects numpy scalars like a
    # value pulled out of an array) distinguishes scalar from sequence.
    temps = (
        [float(temperature)] * n_replicas
        if np.ndim(temperature) == 0
        else [float(t) for t in temperature]
    )
    seeds = (
        [int(seed) + k for k in range(n_replicas)]
        if np.ndim(seed) == 0
        else [int(s) for s in seed]
    )
    if len(temps) != n_replicas or len(seeds) != n_replicas:
        raise ValueError("temperature/seed sequences must have one entry per replica")
    replicas = []
    for temp, replica_seed in zip(temps, seeds):
        rep = system.copy()
        boltzmann_velocities(rep, temp, seed=replica_seed)
        replicas.append(rep)
    return replicas
