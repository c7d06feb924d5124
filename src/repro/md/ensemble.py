"""Lockstep multi-replica MD through the batched DP evaluation engine.

:class:`EnsembleSimulation` advances R replicas of a system — typically the
same structure with different velocity seeds and/or thermostat temperatures,
for RDF statistics, diffusion averaging, or embarrassingly-parallel sampling
— in lockstep.  Each replica keeps its own :class:`~repro.md.neighbor.
NeighborList`, integrator, and thermo log (exactly the per-replica state a
serial :class:`~repro.md.simulation.Simulation` would hold), but every force
evaluation is fused across replicas into one batched graph execution
(:mod:`repro.dp.batch`), amortizing the fixed per-evaluation cost the paper's
Sec 7 measurements identify as the scaling limiter.

A one-replica ensemble follows the exact step sequence of ``Simulation``, and
the batched engine's R=1 results are bitwise identical to the serial path —
so single- and multi-replica MD share one executor and one numerical history.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.md.integrators import Integrator, VelocityVerlet
from repro.md.neighbor import NeighborList, fitted_neighbor_list
from repro.md.potential import PotentialResult
from repro.md.system import System
from repro.md.thermo import ThermoLog
from repro.md.velocity import boltzmann_replicas


class EnsembleSimulation:
    """R replicas advanced in lockstep with fused force evaluations.

    Parameters
    ----------
    systems:
        The replica snapshots (mutated in place, like ``Simulation``).
    model:
        A :class:`repro.dp.model.DeepPot` (or a ``DeepPotPair`` wrapper, which
        is unwrapped).  Forces come from one batched evaluation per step.
    dt:
        Timestep in ps, shared by all replicas.
    integrators:
        One per replica; defaults to NVE velocity-Verlet everywhere.  Pass
        e.g. Langevin integrators at different temperatures for a
        replica-ladder.
    neighbors:
        One :class:`NeighborList` per replica; defaults to skin-fitted lists
        (the paper's 2 Å skin, shrunk when the box is small).
    force_backend:
        Optional injected evaluation seam (anything with
        ``evaluate(frames)`` — e.g. a
        :class:`~repro.dp.backend.ServingForceBackend` submitting to a
        shared serving pool).  When given, ``model`` may be ``None`` if
        ``cutoff`` (or explicit ``neighbors``) is supplied.
    cutoff:
        Neighbor-list cutoff in Å; defaults to ``model.config.rcut``.
        Required when an injected backend leaves ``model=None``.
    """

    def __init__(
        self,
        systems: Sequence[System],
        model=None,
        dt: float = 0.001,
        integrators: Optional[Sequence[Integrator]] = None,
        neighbors: Optional[Sequence[NeighborList]] = None,
        thermo_every: int = 20,
        force_backend=None,
        cutoff: Optional[float] = None,
    ):
        # Imported here, not at module scope: repro.dp modules import from
        # repro.md, so a top-level import would make package import order
        # significant (repro.dp before repro.md raised ImportError).
        from repro.dp.backend import ForceBackend

        model = getattr(model, "model", model)  # unwrap DeepPotPair
        self.systems = list(systems)
        if not self.systems:
            raise ValueError("EnsembleSimulation needs at least one replica")
        self.model = model
        self.dt = dt
        if force_backend is not None:
            # Injected seam (a serving pool, a test double): the ensemble
            # evaluates through it unchanged.  Remote backends have no local
            # engine — self.engine stays None and counters live server-side.
            self.force_backend = force_backend
            self.engine = getattr(force_backend, "engine", None)
        else:
            if model is None:
                raise ValueError("need a model (or an injected force_backend)")
            # The shared evaluation seam (see repro.dp.backend): replicas
            # are submitted as frames and bucketed into one stacked
            # evaluation per step.  A dedicated engine (not model.batched)
            # keeps the R-replica scratch shapes from being thrashed by
            # unrelated R=1 evaluations.
            self.force_backend = ForceBackend(model)
            self.engine = self.force_backend.engine
        if cutoff is None and model is not None:
            cutoff = model.config.rcut
        if neighbors is None and cutoff is None:
            raise ValueError(
                "need a cutoff (or a model, or explicit neighbor lists)"
            )
        R = len(self.systems)
        self.integrators = (
            list(integrators)
            if integrators is not None
            else [VelocityVerlet() for _ in range(R)]
        )
        if len(self.integrators) != R:
            raise ValueError(f"{R} replicas but {len(self.integrators)} integrators")
        self.neighbors = (
            list(neighbors)
            if neighbors is not None
            else [
                fitted_neighbor_list(s, cutoff, skin=2.0)
                for s in self.systems
            ]
        )
        if len(self.neighbors) != R:
            raise ValueError(f"{R} replicas but {len(self.neighbors)} neighbor lists")
        self.thermo = [ThermoLog(every=thermo_every) for _ in range(R)]
        self.step_count = 0
        self.loop_seconds = 0.0
        self.setup_seconds = 0.0
        self.force_evaluations = 0  # batched evaluations (R frames each)
        self._results: Optional[list[PotentialResult]] = None

    # ------------------------------------------------------------ constructors

    @classmethod
    def from_system(
        cls,
        system: System,
        model,
        n_replicas: int,
        temperature: float | Sequence[float] = 330.0,
        seed: int | Sequence[int] = 0,
        **kwargs,
    ) -> "EnsembleSimulation":
        """Clone one structure into R replicas with fresh Boltzmann
        velocities (see :func:`~repro.md.velocity.boltzmann_replicas` for
        the scalar / per-replica ``temperature`` and ``seed`` forms)."""
        replicas = boltzmann_replicas(system, n_replicas, temperature, seed)
        return cls(replicas, model, **kwargs)

    # ---------------------------------------------------------------- stepping

    @property
    def n_replicas(self) -> int:
        return len(self.systems)

    def _evaluate(self) -> list[PotentialResult]:
        from repro.dp.backend import ForceFrame

        results = self.force_backend.evaluate(
            [
                ForceFrame(system, nl.pair_i, nl.pair_j)
                for system, nl in zip(self.systems, self.neighbors)
            ]
        )
        self.force_evaluations += 1
        self._results = results
        return results

    def initialize(self) -> list[PotentialResult]:
        """Build all neighbor lists and evaluate initial forces (setup time)."""
        t0 = time.perf_counter()
        for nl, system in zip(self.neighbors, self.systems):
            nl.build(system, step=0)
        results = self._evaluate()
        self.setup_seconds += time.perf_counter() - t0
        return results

    def run(self, n_steps: int, callback: Optional[Callable] = None) -> list[ThermoLog]:
        """Advance all replicas ``n_steps`` in lockstep.

        Per step and per replica this performs the exact sequence of
        ``Simulation.run`` (half-kick, rebuild check, force evaluation,
        half-kick, thermo record); only the force evaluations are fused.
        """
        if self._results is None:
            self.initialize()

        t0 = time.perf_counter()
        for k, (system, res) in enumerate(zip(self.systems, self._results)):
            self.thermo[k].maybe_record(
                system, res.energy, res.virial, self.step_count, self.dt
            )
        for _ in range(n_steps):
            for k, system in enumerate(self.systems):
                self.integrators[k].first_half(
                    system, self._results[k].forces, self.dt
                )
            self.step_count += 1
            for k, system in enumerate(self.systems):
                self.neighbors[k].maybe_rebuild(system, self.step_count)
            results = self._evaluate()
            for k, system in enumerate(self.systems):
                self.integrators[k].second_half(system, results[k].forces, self.dt)
                self.thermo[k].maybe_record(
                    system, results[k].energy, results[k].virial,
                    self.step_count, self.dt,
                )
            if callback is not None:
                callback(self)
        self.loop_seconds += time.perf_counter() - t0
        return self.thermo

    # ----------------------------------------------------------------- metrics

    def total_atoms(self) -> int:
        return sum(s.n_atoms for s in self.systems)

    def time_to_solution(self) -> float:
        """Seconds per MD step per atom, aggregated over all replicas."""
        if self.step_count == 0:
            return float("nan")
        return self.loop_seconds / self.step_count / self.total_atoms()

    def last_results(self) -> list[PotentialResult]:
        if self._results is None:
            raise RuntimeError("ensemble not initialised")
        return self._results


@dataclass
class DiffusionEstimate:
    """Replica-averaged diffusion coefficient with its spread.

    ``mean`` and ``stderr`` are in Å²/ps (Einstein relation, D = slope/6);
    ``per_replica`` carries each replica's independent estimate so callers
    can inspect the distribution behind the error bar.
    """

    mean: float
    stderr: float
    per_replica: np.ndarray


class EnsembleMSD:
    """Replica-averaged MSD/diffusion with per-replica error bars.

    The estimator the replica ensemble exists for: each replica contributes
    an *independent* MSD curve (its own thermostat seed decorrelates it), so
    averaging over replicas both sharpens the mean and — unlike averaging
    time origins within one trajectory — yields an honest standard error.

    Use as an :meth:`EnsembleSimulation.run` callback::

        ens = EnsembleSimulation.from_system(base, model, n_replicas=8)
        msd = EnsembleMSD(ens, every=10)
        ens.run(500, callback=msd)
        mean, err = msd.msd()
        d = msd.diffusion()          # DiffusionEstimate(mean, stderr, ...)

    Coordinates are unwrapped on the fly (periodic jumps removed between
    recorded frames), the requirement of the Einstein estimator.
    """

    def __init__(
        self,
        ensemble: EnsembleSimulation,
        every: int = 10,
        atom_mask: Optional[np.ndarray] = None,
    ):
        # Lazy import mirrors the BatchedEvaluator import above: repro.md
        # must stay importable before repro.analysis.
        from repro.analysis.dynamics import UnwrappedTrajectory

        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.every = int(every)
        self.atom_mask = atom_mask
        self.dt_between_frames = ensemble.dt * self.every
        # Frame spacing is measured from the step at which the collector was
        # attached, so an equilibration run of any length may precede it
        # without skewing the time axis of the first interval.
        self._start_step = ensemble.step_count
        self._trajectories = [
            UnwrappedTrajectory(s.box) for s in ensemble.systems
        ]
        self._record(ensemble)  # frame 0: the configurations at attachment

    def __call__(self, sim: EnsembleSimulation) -> None:
        """``EnsembleSimulation.run`` callback: record every Nth step."""
        if (sim.step_count - self._start_step) % self.every == 0:
            self._record(sim)

    def _record(self, sim) -> None:
        for trajectory, system in zip(self._trajectories, sim.systems):
            trajectory.add(system.positions)

    @property
    def n_replicas(self) -> int:
        return len(self._trajectories)

    @property
    def n_frames(self) -> int:
        return len(self._trajectories[0].frames)

    def replica_msd(self) -> np.ndarray:
        """(R, n_frames) MSD curves, one per replica, in Å²."""
        from repro.analysis.dynamics import mean_squared_displacement

        return np.stack(
            [
                mean_squared_displacement(t.as_array(), self.atom_mask)
                for t in self._trajectories
            ]
        )

    def msd(self) -> tuple[np.ndarray, np.ndarray]:
        """Replica-mean MSD(t) and its standard error over replicas."""
        per = self.replica_msd()
        mean = per.mean(axis=0)
        if self.n_replicas > 1:
            stderr = per.std(axis=0, ddof=1) / np.sqrt(self.n_replicas)
        else:
            stderr = np.zeros_like(mean)
        return mean, stderr

    def diffusion(self, fit_from: float = 0.5) -> DiffusionEstimate:
        """Einstein-relation D per replica, averaged with an error bar."""
        from repro.analysis.dynamics import diffusion_coefficient

        per = np.array(
            [
                diffusion_coefficient(m, self.dt_between_frames, fit_from)
                for m in self.replica_msd()
            ]
        )
        stderr = (
            float(per.std(ddof=1) / np.sqrt(per.size)) if per.size > 1 else 0.0
        )
        return DiffusionEstimate(
            mean=float(per.mean()), stderr=stderr, per_replica=per
        )
