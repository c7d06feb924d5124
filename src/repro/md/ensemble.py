"""Lockstep multi-replica MD through the batched DP evaluation engine.

:class:`EnsembleSimulation` advances R replicas of a system — typically the
same structure with different velocity seeds and/or thermostat temperatures,
for RDF statistics, diffusion averaging, or embarrassingly-parallel sampling
— in lockstep.  A replica is a whole :class:`~repro.md.simulation.
Simulation` (own :class:`~repro.md.neighbor.NeighborList`, integrator,
thermo log, optional ``deform`` / ``trajectory_every``); the lockstep loop
calls each replica's step phases and fuses every force evaluation across
replicas into one batched graph execution (:mod:`repro.dp.batch`),
amortizing the fixed per-evaluation cost the paper's Sec 7 measurements
identify as the scaling limiter.

The loop is written against the *replica protocol* (``prepare``,
``begin_step``, ``force_frames``, ``accept_forces``, ``end_step``,
``record_thermo``, ``finish_run`` — see :mod:`repro.md.simulation`), so the
same class runs domain-decomposed replicas: :class:`repro.parallel.driver.
DistributedEnsembleSimulation` is this loop constructed over
``DistributedSimulation`` s.  Replicas are independent between force calls
and the batched engine's per-frame results do not depend on the batch, so R
replicas in lockstep are bitwise R independent drivers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.md.integrators import Integrator, VelocityVerlet
from repro.md.neighbor import NeighborList, fitted_neighbor_list
from repro.md.potential import PotentialResult
from repro.md.simulation import Simulation
from repro.md.system import System
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

    ``replicas`` holds the per-replica drivers (set ``ens.replicas[k].deform``
    or ``.trajectory_every`` for a per-replica fix or stored trajectory);
    ``systems`` / ``integrators`` / ``neighbors`` / ``thermo`` are read-only
    views over them.
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
        from repro.dp.backend import BackendPotential, ForceBackend

        model = getattr(model, "model", model)  # unwrap DeepPotPair
        systems = list(systems)
        if not systems:
            raise ValueError("EnsembleSimulation needs at least one replica")
        if force_backend is None:
            if model is None:
                raise ValueError("need a model (or an injected force_backend)")
            # The shared evaluation seam (see repro.dp.backend): replicas
            # are submitted as frames and bucketed into one stacked
            # evaluation per step.  A dedicated engine (not model.batched)
            # keeps the R-replica scratch shapes from being thrashed by
            # unrelated R=1 evaluations.
            force_backend = ForceBackend(model)
        if cutoff is None and model is not None:
            cutoff = model.config.rcut
        if neighbors is None and cutoff is None:
            raise ValueError(
                "need a cutoff (or a model, or explicit neighbor lists)"
            )
        R = len(systems)
        if integrators is None:
            integrators = [VelocityVerlet() for _ in range(R)]
        if len(integrators) != R:
            raise ValueError(f"{R} replicas but {len(integrators)} integrators")
        if neighbors is None:
            neighbors = [fitted_neighbor_list(s, cutoff, skin=2.0) for s in systems]
        if len(neighbors) != R:
            raise ValueError(f"{R} replicas but {len(neighbors)} neighbor lists")
        if cutoff is None:
            cutoff = neighbors[0].cutoff
        # Each replica is a working Simulation over the shared seam; the
        # lockstep loop calls its phases and evaluates for all of them.
        potential = BackendPotential(force_backend, cutoff)
        replicas = [
            Simulation(
                system, potential, dt=dt, integrator=integrator,
                neighbor=neighbor, thermo_every=thermo_every,
            )
            for system, integrator, neighbor in zip(systems, integrators, neighbors)
        ]
        self._lockstep(model, force_backend, dt, replicas)

    def _lockstep(self, model, force_backend, dt: float, replicas: list) -> None:
        """The lockstep loop's own state; everything else is the replicas'."""
        self.model = model
        self.dt = dt
        # An injected seam (a serving pool, a test double) is evaluated
        # through unchanged.  Remote backends have no local engine —
        # self.engine stays None and counters live server-side.
        self.force_backend = force_backend
        self.engine = getattr(force_backend, "engine", None)
        self.replicas = replicas
        self.loop_seconds = 0.0
        self.setup_seconds = 0.0
        self.force_evaluations = 0  # fused evaluations (every replica's frames)

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

    # ------------------------------------------------------------------- views

    @property
    def n_replicas(self) -> int:
        return len(self.replicas)

    @property
    def step_count(self) -> int:
        return self.replicas[0].step_count

    @property
    def systems(self) -> list[System]:
        return [rep.system for rep in self.replicas]

    @property
    def integrators(self) -> list[Integrator]:
        return [rep.integrator for rep in self.replicas]

    @property
    def neighbors(self) -> list[NeighborList]:
        return [rep.neighbor for rep in self.replicas]

    @property
    def thermo(self) -> list:
        """Per-replica thermo logs (whatever each replica's ``thermo`` is:
        a :class:`~repro.md.thermo.ThermoLog` for serial replicas)."""
        return [rep.thermo for rep in self.replicas]

    # ---------------------------------------------------------------- stepping

    def _evaluate(self) -> list[PotentialResult]:
        """ONE backend call over every replica's frames; results are dealt
        back to the replicas by count, in frame order."""
        per_replica = [rep.force_frames() for rep in self.replicas]
        results = self.force_backend.evaluate(
            [frame for frames in per_replica for frame in frames]
        )
        self.force_evaluations += 1
        start = 0
        for rep, frames in zip(self.replicas, per_replica):
            rep.accept_forces(results[start : start + len(frames)])
            start += len(frames)
        return results

    def initialize(self) -> list[PotentialResult]:
        """Prepare every replica and evaluate initial forces (setup time)."""
        t0 = time.perf_counter()
        for rep in self.replicas:
            rep.prepare()
        results = self._evaluate()
        self.setup_seconds += time.perf_counter() - t0
        return results

    def run(self, n_steps: int, callback: Optional[Callable] = None) -> list:
        """Advance all replicas ``n_steps`` in lockstep; returns ``thermo``.

        Per step: every replica's ``begin_step``, one fused evaluation,
        every replica's ``end_step``, then ``callback(self)`` — per replica
        exactly the sequence of its own ``step_once``.
        """
        if not self.replicas[0].initialized:
            self.initialize()

        t0 = time.perf_counter()
        for rep in self.replicas:
            rep.record_thermo()
        for _ in range(n_steps):
            for rep in self.replicas:
                rep.begin_step()
            self._evaluate()
            for rep in self.replicas:
                rep.end_step()
            if callback is not None:
                callback(self)
        for rep in self.replicas:
            rep.finish_run()
        self.loop_seconds += time.perf_counter() - t0
        return self.thermo

    # ----------------------------------------------------------------- metrics

    def total_atoms(self) -> int:
        return sum(rep.system.n_atoms for rep in self.replicas)

    def time_to_solution(self) -> float:
        """Seconds per MD step per atom, aggregated over all replicas."""
        if self.step_count == 0:
            return float("nan")
        return self.loop_seconds / self.step_count / self.total_atoms()

    def last_results(self) -> list[PotentialResult]:
        """Each serial replica's latest :class:`PotentialResult`."""
        return [rep.last_result() for rep in self.replicas]


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
