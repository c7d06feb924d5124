"""Distributed MD drivers: lockstep SPMD over simulated ranks.

One step follows the LAMMPS/DeePMD-kit schedule (Sec 5.4):

1. velocity-Verlet first half on every rank (local atoms only);
2. reneighbor check — on rebuild, atoms migrate to their new owners and the
   ghost exchange lists are rebuilt; otherwise ghost *positions* are
   forward-communicated along the fixed lists;
3. DP force evaluation over the ranks' local+ghost frames: every rank's
   frame is submitted to the force seam (:mod:`repro.dp.backend`), by
   default a :class:`~repro.dp.backend.ForceBackend`, which groups frames
   into shape buckets and issues ONE batched graph evaluation per bucket —
   the paper's Fig 1 (a) picture of domain decomposition feeding a batched
   evaluator.  The one-evaluation-per-rank schedule it is asserted against
   is not a mode of this driver: tests inject
   ``force_backend=PerFrameBackend(model)``;
4. reverse communication adds ghost forces back to their owner ranks;
5. velocity-Verlet second half;
6. every ``thermo_every`` steps, energy/virial are (I)allreduced — the
   output-frequency and non-blocking-reduction optimizations of Sec 5.4.

Those steps are the *replica protocol* of :mod:`repro.md.simulation`
(``begin_step`` = 1–2, ``force_frames`` / ``accept_forces`` = 3–4,
``end_step`` = 5–6), so :class:`DistributedSimulation` runs alone or as a
replica of the lockstep loop in :mod:`repro.md.ensemble`:
:class:`DistributedEnsembleSimulation` is that loop constructed over R
decomposed replicas, fusing all R x P sub-domain frames into the same
per-step backend call — replica-level parallelism multiplies the batch the
evaluator amortizes over instead of multiplying graph dispatches.  Both
drivers produce *identical physics* to the serial engine (see
tests/test_parallel.py and tests/test_distributed_ensemble.py) while
exercising the real communication pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.dp.backend import ForceBackend, ForceFrame
from repro.dp.model import DeepPot
from repro.md.ensemble import EnsembleSimulation
from repro.md.system import System
from repro.md.thermo import ThermoState
from repro.md.neighbor import neighbor_pairs
from repro.parallel.comm import SimComm
from repro.parallel.decomp import DomainDecomposition
from repro.units import MVV_TO_EV


@dataclass
class DistributedSimulation:
    """Domain-decomposed DP molecular dynamics on simulated MPI ranks.

    All rank frames of a step go to ``force_backend.evaluate`` — by default
    a dedicated :class:`~repro.dp.backend.ForceBackend` (one batched
    evaluation per shape bucket, each result bitwise identical to
    evaluating its frame alone).  Any ``evaluate(frames)`` implementation
    may be injected instead: the distributed-ensemble driver shares one
    backend so R replicas' frames coalesce, and tests pass
    :class:`~repro.dp.backend.PerFrameBackend` as the oracle.

    The decomposition is built at construction; forces are lazy, like the
    serial driver's — ``run``, ``forces_now`` and ``total_energy_now``
    evaluate the set-up forces on first use unless an enclosing lockstep
    driver has already dealt them out (``initialized``).
    """

    system: System
    model: DeepPot
    grid: tuple[int, int, int] = (2, 1, 1)
    dt: float = 0.001
    skin: float = 2.0
    rebuild_every: int = 50
    thermo_every: int = 20
    use_iallreduce: bool = True
    force_backend: Optional[ForceBackend] = None

    def __post_init__(self):
        self.comm = SimComm(int(np.prod(self.grid)))
        self.decomp = DomainDecomposition(self.grid, self.comm)
        self.step_count = 0
        self.initialized = False  # forces accepted for the current positions
        self.thermo: list[ThermoState] = []
        self._ref_positions: Optional[dict[int, np.ndarray]] = None
        self._pending_thermo = []
        self._rank_energy = np.zeros(self.comm.size)
        self._rank_virial = np.zeros((self.comm.size, 3, 3))
        if self.force_backend is None:
            # A dedicated engine per driver keeps the rank-frame scratch
            # and plan-arena shapes steady (same policy as the ensemble).
            self.force_backend = ForceBackend(self.model)
        self.prepare()

    # ----------------------------------------------------------------- setup

    @property
    def ghost_cutoff(self) -> float:
        return self.model.config.rcut + self.skin

    def prepare(self) -> None:
        """Decompose the system over the ranks (evaluates nothing).  Done
        once, by the constructor; a lockstep driver's call finds it built."""
        if self._ref_positions is not None:
            return
        self.decomp.assign_atoms(self.system)
        self.decomp.build_ghost_lists(self.system.box, self.ghost_cutoff)
        self._snapshot_reference()

    def initialize(self) -> None:
        """Evaluate the set-up forces over the constructor's decomposition."""
        self._compute_forces()

    def _snapshot_reference(self) -> None:
        self._ref_positions = {
            d.rank: d.positions.copy() for d in self.decomp.domains
        }
        self._last_rebuild = self.step_count

    def _needs_rebuild(self) -> bool:
        if self.step_count - self._last_rebuild >= self.rebuild_every:
            return True
        half_skin = 0.5 * self.skin
        for dom in self.decomp.domains:
            ref = self._ref_positions[dom.rank]
            if ref.shape != dom.positions.shape:
                return True
            disp = dom.positions - ref
            if disp.size and np.max(np.einsum("ij,ij->i", disp, disp)) > half_skin**2:
                return True
        return False

    # ----------------------------------------------------------------- forces

    def force_frames(self) -> list[ForceFrame]:
        """Per-rank local+ghost frames for the backend (empty ranks zeroed).

        Resets the per-rank energy/virial accumulators; the matching
        :meth:`accept_forces` fills them back in.
        """
        self._rank_energy = np.zeros(self.comm.size)
        self._rank_virial = np.zeros((self.comm.size, 3, 3))
        frames: list[ForceFrame] = []
        self._frame_ranks: list[int] = []
        for dom in self.decomp.domains:
            if dom.n_own == 0:
                dom.forces = np.zeros((0, 3))
                continue
            local = dom.local_system(
                self.system.box, self.system.masses, self.system.type_names
            )
            pi, pj = neighbor_pairs(local, self.model.config.rcut, pbc=False)
            frames.append(ForceFrame(local, pi, pj, nloc=dom.n_own, pbc=False))
            self._frame_ranks.append(dom.rank)
        return frames

    def accept_forces(self, results: Sequence) -> None:
        """Unpack the results of :meth:`force_frames` (one per non-empty
        rank, in rank order) and reverse-communicate ghost forces."""
        by_rank = dict(zip(self._frame_ranks, results))
        ghost_forces: dict[int, np.ndarray] = {}
        for dom in self.decomp.domains:
            res = by_rank.get(dom.rank)
            if res is None:  # rank owns no atoms this interval
                ghost_forces[dom.rank] = np.zeros((dom.n_ghost, 3))
                continue
            dom.forces = res.forces[: dom.n_own].copy()
            ghost_forces[dom.rank] = res.forces[dom.n_own :]
            self._rank_energy[dom.rank] = res.energy
            self._rank_virial[dom.rank] = res.virial
        self.decomp.reverse_exchange(ghost_forces)
        self.initialized = True

    def _compute_forces(self) -> None:
        """Force evaluation + reverse ghost-force communication."""
        self.accept_forces(self.force_backend.evaluate(self.force_frames()))

    # ------------------------------------------------------------------- run

    def run(
        self, n_steps: int, callback: Optional[Callable] = None
    ) -> list[ThermoState]:
        if not self.initialized:
            self.initialize()
        self.record_thermo()
        for _ in range(n_steps):
            self.step_once(callback)
        self.finish_run()
        return self.thermo

    def step_once(self, callback: Optional[Callable] = None) -> None:
        """One MD step: the replica phases around this driver's own backend."""
        self.begin_step()
        self._compute_forces()
        self.end_step()
        if callback is not None:
            callback(self)

    def begin_step(self) -> None:
        """First half kick + drift (per rank), advancing the step; then
        reneighbor (atom migration + ghost list rebuild) or
        forward-communicate ghost positions."""
        self._half_kick(drift=True)
        self.step_count += 1
        if self._needs_rebuild():
            snapshot = self.decomp.gather_system(self.system)
            self.decomp.assign_atoms(snapshot)
            self.decomp.build_ghost_lists(self.system.box, self.ghost_cutoff)
            self._snapshot_reference()
        else:
            self.decomp.forward_exchange()

    def end_step(self) -> None:
        """Second half kick, then the thermo reduction at the paper's
        reduced output frequency."""
        self._half_kick(drift=False)
        self.record_thermo()

    def _half_kick(self, drift: bool) -> None:
        dt = self.dt
        for dom in self.decomp.domains:
            if dom.n_own == 0:
                continue
            inv_m = 1.0 / (self.system.masses[dom.types] * MVV_TO_EV)
            dom.velocities += 0.5 * dt * dom.forces * inv_m[:, None]
            if drift:
                dom.positions += dt * dom.velocities

    # ----------------------------------------------------------------- thermo

    def record_thermo(self) -> None:
        """(I)allreduce energy/virial/kinetic rows on the thermo cadence."""
        if self.step_count % self.thermo_every != 0:
            return
        # Idempotence at run() boundaries (mirrors ThermoLog.maybe_record):
        # every run() re-records its starting step, so back-to-back runs and
        # checkpoint/resume must not duplicate an already-recorded (or
        # already-pending) row.
        if self.thermo and self.thermo[-1].step == self.step_count:
            return
        if self._pending_thermo and self._pending_thermo[-1][0] == self.step_count:
            return
        e_contrib = list(self._rank_energy)
        w_contrib = list(self._rank_virial)
        ke_contrib = []
        for dom in self.decomp.domains:
            m = self.system.masses[dom.types]
            ke_contrib.append(
                0.5 * MVV_TO_EV * float(np.sum(m[:, None] * dom.velocities**2))
            )
        if self.use_iallreduce:
            handle_e = self.comm.iallreduce(e_contrib)
            handle_w = self.comm.iallreduce(w_contrib)
            handle_k = self.comm.iallreduce(ke_contrib)
            self._pending_thermo.append(
                (self.step_count, handle_e, handle_w, handle_k)
            )
            # Overlap window: resolve the previous pending reduction now.
            if len(self._pending_thermo) > 1:
                self._resolve_thermo(self._pending_thermo.pop(0))
        else:
            e = self.comm.allreduce(e_contrib)
            w = self.comm.allreduce(w_contrib)
            k = self.comm.allreduce(ke_contrib)
            self._record(self.step_count, e, w, k)

    def finish_run(self) -> None:
        """Resolve the reductions still in flight."""
        while self._pending_thermo:
            self._resolve_thermo(self._pending_thermo.pop(0))

    def _resolve_thermo(self, item) -> None:
        step, he, hw, hk = item
        self._record(step, he.wait(), hw.wait(), hk.wait())

    def _record(self, step: int, energy: float, virial, kinetic: float) -> None:
        # Built from the *reduced* scalars — no global gather, as on Summit.
        from repro.units import EVA3_TO_BAR, kinetic_temperature

        n_dof = max(3 * self.system.n_atoms - 3, 1)
        volume = self.system.box.volume
        pressure = (
            (2.0 * kinetic + float(np.trace(np.asarray(virial).reshape(3, 3))))
            / (3.0 * volume)
            * EVA3_TO_BAR
        )
        self.thermo.append(
            ThermoState(
                step=step,
                time_ps=step * self.dt,
                kinetic_energy=kinetic,
                potential_energy=float(energy),
                total_energy=kinetic + float(energy),
                temperature=kinetic_temperature(kinetic, n_dof),
                pressure=pressure,
            )
        )

    # ------------------------------------------------------------------ views

    def current_system(self) -> System:
        """Global system assembled from all ranks (positions + velocities)."""
        return self.decomp.gather_system(self.system)

    def total_energy_now(self) -> float:
        if not self.initialized:
            self.initialize()
        return float(self._rank_energy.sum())

    def forces_now(self) -> np.ndarray:
        """Global force array gathered from rank-local blocks."""
        if not self.initialized:
            self.initialize()
        out = np.zeros((self.system.n_atoms, 3))
        for dom in self.decomp.domains:
            out[dom.global_idx] = dom.forces
        return out


class DistributedEnsembleSimulation(EnsembleSimulation):
    """R domain-decomposed replicas x P ranks advanced in lockstep.

    :class:`~repro.md.ensemble.EnsembleSimulation`'s lockstep loop over
    replicas that are full :class:`DistributedSimulation` s (own
    communicator, decomposition, thermo reductions, rebuild schedule): all
    R x P sub-domain frames of a step are submitted to ONE shared
    :class:`~repro.dp.backend.ForceBackend` call, which buckets them by
    shape and issues one batched graph evaluation per bucket — the
    evaluations-per-step counter equals the bucket count, not R x P.
    Physics is bitwise identical to running the R replicas as independent
    ``DistributedSimulation`` s (and therefore to the serial engine), because
    every frame's result is independent of the batch it was coalesced into.

    Parameters mirror :class:`DistributedSimulation`; ``systems`` carries
    one snapshot per replica (typically the same structure with different
    velocity seeds — see ``from_system``).  ``thermo`` is one list of
    :class:`~repro.md.thermo.ThermoState` rows per replica; the inherited
    ``systems`` view holds the templates the replicas were decomposed from
    — the moving atoms live in the rank domains, gathered by
    :meth:`current_systems`.
    """

    def __init__(
        self,
        systems: Sequence[System],
        model,
        grid: tuple[int, int, int] = (2, 1, 1),
        dt: float = 0.001,
        skin: float = 2.0,
        rebuild_every: int = 50,
        thermo_every: int = 20,
        use_iallreduce: bool = True,
        force_backend: Optional[ForceBackend] = None,
    ):
        model = getattr(model, "model", model)  # unwrap DeepPotPair
        systems = list(systems)
        if not systems:
            raise ValueError(
                "DistributedEnsembleSimulation needs at least one replica"
            )
        if force_backend is None:
            force_backend = ForceBackend(model)
        replicas = [
            DistributedSimulation(
                system=s,
                model=model,
                grid=grid,
                dt=dt,
                skin=skin,
                rebuild_every=rebuild_every,
                thermo_every=thermo_every,
                use_iallreduce=use_iallreduce,
                force_backend=force_backend,
            )
            for s in systems
        ]
        self._lockstep(model, force_backend, dt, replicas)
        # Setup-time forces for ALL replicas in one fused backend call.
        self.initialize()

    def current_systems(self) -> list[System]:
        """Per-replica global systems gathered from their ranks."""
        return [rep.current_system() for rep in self.replicas]
