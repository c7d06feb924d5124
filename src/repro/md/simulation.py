"""The serial MD driver: the loop the paper times as "MD loop time".

Reproduces the protocol of Sec 6.1: velocity-Verlet integration, neighbor
list with a 2 Å skin rebuilt every 50 steps, thermodynamic data recorded
every 20 steps, and wall-clock accounting split into setup time and loop
time (the paper's time-to-solution definition in Sec 6.3).

When the potential is a DP model (:class:`repro.dp.pair.DeepPotPair`), each
``compute`` call submits a one-frame workload to the shared
:class:`repro.dp.backend.ForceBackend` seam (an R=1 shape bucket on the
batched engine), so this single-replica driver, the multi-replica
:class:`repro.md.ensemble.EnsembleSimulation`, and the distributed drivers
in :mod:`repro.parallel` all execute the same evaluation layer with
bitwise-identical results.

The step is written once, as the *replica protocol*: ``prepare`` (neighbour
list, evaluates nothing), ``begin_step`` (half kick + drift, fixes, rebuild
check), ``force_frames`` / ``accept_forces`` (what to evaluate, and taking
the answer), ``end_step`` (half kick, thermo, trajectory), ``record_thermo``
and ``finish_run``.  :meth:`Simulation.step_once` speaks it around its own
potential; :class:`~repro.md.ensemble.EnsembleSimulation` speaks it over R
``Simulation`` s around ONE fused evaluation, and
:class:`repro.parallel.driver.DistributedSimulation` implements the same
phases over rank sub-domains.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.md.deform import Deform
from repro.md.integrators import Integrator, VelocityVerlet
from repro.md.neighbor import NeighborList
from repro.md.potential import ForceFrame, Potential, PotentialResult
from repro.md.system import System
from repro.md.thermo import ThermoLog, ThermoState


@dataclass
class Simulation:
    """Couples a system, a potential, an integrator and optional fixes.

    Usage::

        sim = Simulation(system, potential, dt=0.0005)  # 0.5 fs
        sim.run(500)
        print(sim.loop_seconds, sim.time_to_solution())
    """

    system: System
    potential: Potential
    dt: float = 0.001  # ps (paper: 0.5 fs water, 1 fs copper)
    integrator: Integrator = field(default_factory=VelocityVerlet)
    neighbor: Optional[NeighborList] = None
    thermo_every: int = 20
    deform: Optional[Deform] = None
    trajectory_every: int = 0  # 0 = do not store frames

    def __post_init__(self):
        if self.neighbor is None:
            self.neighbor = NeighborList(cutoff=self.potential.cutoff, skin=2.0)
        self.thermo = ThermoLog(every=self.thermo_every)
        self.trajectory: list[np.ndarray] = []
        self.step_count = 0
        self.loop_seconds = 0.0
        self.setup_seconds = 0.0
        self.force_evaluations = 0
        self._result: Optional[PotentialResult] = None

    # -- the replica protocol -------------------------------------------------

    @property
    def initialized(self) -> bool:
        """Whether forces for the current positions have been accepted."""
        return self._result is not None

    def prepare(self) -> None:
        """Build the neighbor list (set-up; evaluates nothing)."""
        self.neighbor.build(self.system, step=0)

    def begin_step(self) -> None:
        """Half kick + drift, fixes, rebuild check; advances the step."""
        self.integrator.first_half(self.system, self._result.forces, self.dt)
        self.step_count += 1
        if self.deform is not None:
            self.deform.apply(self.system, self.step_count, self.dt)
        self.neighbor.maybe_rebuild(self.system, self.step_count)

    def force_frames(self) -> list[ForceFrame]:
        """The work a force backend must do for this replica: one frame."""
        return [ForceFrame(self.system, self.neighbor.pair_i, self.neighbor.pair_j)]

    def accept_forces(self, results: Sequence[PotentialResult]) -> None:
        """Take the evaluation of :meth:`force_frames` (one result)."""
        (self._result,) = results
        self.force_evaluations += 1

    def end_step(self) -> None:
        """Half kick with the accepted forces, thermo, trajectory."""
        self.integrator.second_half(self.system, self._result.forces, self.dt)
        self.record_thermo()
        if self.trajectory_every and self.step_count % self.trajectory_every == 0:
            self.trajectory.append(self.system.positions.copy())

    def record_thermo(self) -> None:
        """Log the current step if it falls on the thermo cadence."""
        self.thermo.maybe_record(
            self.system, self._result.energy, self._result.virial,
            self.step_count, self.dt,
        )

    def finish_run(self) -> None:
        """Nothing is pending at the end of a serial run."""

    # -- the MD loop -----------------------------------------------------------

    def _evaluate(self) -> PotentialResult:
        res = self.potential.compute(
            self.system, self.neighbor.pair_i, self.neighbor.pair_j
        )
        self.accept_forces([res])
        return res

    def initialize(self) -> PotentialResult:
        """Build the neighbor list and evaluate initial forces ("setup time")."""
        t0 = time.perf_counter()
        self.prepare()
        res = self._evaluate()
        self.setup_seconds += time.perf_counter() - t0
        return res

    def step_once(self, callback: Optional[Callable] = None) -> PotentialResult:
        """One MD step: the replica phases around this driver's own potential
        (half kick, fixes, rebuild check — forces — half kick, thermo).

        ``run`` loops over it; a lockstep driver calls the same phases on
        each of its replicas around one fused evaluation instead.
        """
        if self._result is None:
            self.initialize()
        self.begin_step()
        res = self._evaluate()
        self.end_step()
        if callback is not None:
            callback(self)
        return res

    def run(self, n_steps: int, callback: Optional[Callable] = None) -> ThermoLog:
        """Advance ``n_steps``; energies/forces are evaluated n_steps+1 times
        in total (matching the paper's "501 evaluations for 500 steps")."""
        if self._result is None:
            self.initialize()

        t0 = time.perf_counter()
        # Record the state at the starting step (LAMMPS logs step 0).
        self.record_thermo()
        for _ in range(n_steps):
            self.step_once(callback)
        self.finish_run()
        self.loop_seconds += time.perf_counter() - t0
        return self.thermo

    # -- the paper's metrics ---------------------------------------------------

    def time_to_solution(self) -> float:
        """Seconds per MD step per atom — the Table 1 metric."""
        if self.step_count == 0:
            return float("nan")
        return self.loop_seconds / self.step_count / self.system.n_atoms

    def last_result(self) -> PotentialResult:
        if self._result is None:
            raise RuntimeError("simulation not initialised")
        return self._result
