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

Both drivers produce *identical physics* to the serial engine (see
tests/test_parallel.py and tests/test_distributed_ensemble.py) while
exercising the real communication pattern.
:class:`DistributedEnsembleSimulation` advances R replicas x P ranks in
lockstep and fuses all R x P sub-domain frames into the same per-step
backend call, so replica-level parallelism multiplies the batch the
evaluator amortizes over instead of multiplying graph dispatches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.dp.backend import ForceBackend, ForceFrame
from repro.dp.model import DeepPot
from repro.md.system import System
from repro.md.thermo import ThermoState
from repro.md.neighbor import neighbor_pairs
from repro.md.velocity import boltzmann_replicas
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
    ``defer_initial_forces`` skips the setup-time evaluation so an
    enclosing ensemble can batch it across replicas.
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
    defer_initial_forces: bool = False

    def __post_init__(self):
        self.comm = SimComm(int(np.prod(self.grid)))
        self.decomp = DomainDecomposition(self.grid, self.comm)
        self.step_count = 0
        self.thermo: list[ThermoState] = []
        self._ref_positions: Optional[dict[int, np.ndarray]] = None
        self._pending_thermo = []
        self._rank_energy = np.zeros(self.comm.size)
        self._rank_virial = np.zeros((self.comm.size, 3, 3))
        if self.force_backend is None:
            # A dedicated engine per driver keeps the rank-frame scratch
            # and plan-arena shapes steady (same policy as the ensemble).
            self.force_backend = ForceBackend(self.model)
        self._setup()

    # ----------------------------------------------------------------- setup

    @property
    def ghost_cutoff(self) -> float:
        return self.model.config.rcut + self.skin

    def _setup(self) -> None:
        self.decomp.assign_atoms(self.system)
        self.decomp.build_ghost_lists(self.system.box, self.ghost_cutoff)
        self._snapshot_reference()
        if not self.defer_initial_forces:
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

    def _force_frames(self) -> tuple[list[ForceFrame], list[int]]:
        """Per-rank local+ghost frames for the backend (empty ranks zeroed).

        Resets the per-rank energy/virial accumulators; the matching
        :meth:`_apply_force_results` fills them back in.
        """
        self._rank_energy = np.zeros(self.comm.size)
        self._rank_virial = np.zeros((self.comm.size, 3, 3))
        frames: list[ForceFrame] = []
        ranks: list[int] = []
        for dom in self.decomp.domains:
            if dom.n_own == 0:
                dom.forces = np.zeros((0, 3))
                continue
            local = dom.local_system(
                self.system.box, self.system.masses, self.system.type_names
            )
            pi, pj = neighbor_pairs(local, self.model.config.rcut, pbc=False)
            frames.append(ForceFrame(local, pi, pj, nloc=dom.n_own, pbc=False))
            ranks.append(dom.rank)
        return frames, ranks

    def _apply_force_results(self, ranks: Sequence[int], results) -> None:
        """Unpack per-rank results and reverse-communicate ghost forces."""
        by_rank = dict(zip(ranks, results))
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

    def _compute_forces(self) -> None:
        """Force evaluation + reverse ghost-force communication."""
        frames, ranks = self._force_frames()
        results = self.force_backend.evaluate(frames)
        self._apply_force_results(ranks, results)

    # ------------------------------------------------------------------- run

    def run(self, n_steps: int) -> list[ThermoState]:
        self._maybe_record_thermo()
        for _ in range(n_steps):
            self._step()
        self._flush_pending_thermo()
        return self.thermo

    # The step is split into phases so the distributed-ensemble driver can
    # interleave R replicas around ONE fused force evaluation; ``_step``
    # remains the canonical single-replica sequence.

    def _first_half_kick(self) -> None:
        """Phase 1: first half kick + drift (per rank); advances the step."""
        dt = self.dt
        for dom in self.decomp.domains:
            if dom.n_own == 0:
                continue
            inv_m = 1.0 / (self.system.masses[dom.types] * MVV_TO_EV)
            dom.velocities += 0.5 * dt * dom.forces * inv_m[:, None]
            dom.positions += dt * dom.velocities
        self.step_count += 1

    def _prepare_neighbors(self) -> None:
        """Phase 2: reneighbor (atom migration + ghost list rebuild) or
        forward-communicate ghost positions."""
        if self._needs_rebuild():
            snapshot = self.decomp.gather_system(self._template())
            self.decomp.assign_atoms(snapshot)
            self.decomp.build_ghost_lists(self.system.box, self.ghost_cutoff)
            self._snapshot_reference()
        else:
            self.decomp.forward_exchange()

    def _second_half_kick(self) -> None:
        """Phase 5: second half kick."""
        dt = self.dt
        for dom in self.decomp.domains:
            if dom.n_own == 0:
                continue
            inv_m = 1.0 / (self.system.masses[dom.types] * MVV_TO_EV)
            dom.velocities += 0.5 * dt * dom.forces * inv_m[:, None]

    def _step(self) -> None:
        self._first_half_kick()
        self._prepare_neighbors()
        self._compute_forces()
        self._second_half_kick()
        # thermo reduction at the paper's reduced output frequency
        self._maybe_record_thermo()

    def _template(self) -> System:
        return self.system

    # ----------------------------------------------------------------- thermo

    def _maybe_record_thermo(self) -> None:
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

    def _flush_pending_thermo(self) -> None:
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
        return float(self._rank_energy.sum())

    def forces_now(self) -> np.ndarray:
        """Global force array gathered from rank-local blocks."""
        out = np.zeros((self.system.n_atoms, 3))
        for dom in self.decomp.domains:
            out[dom.global_idx] = dom.forces
        return out


class DistributedEnsembleSimulation:
    """R domain-decomposed replicas x P ranks advanced in lockstep.

    Every replica is a full :class:`DistributedSimulation` (own communicator,
    decomposition, thermo reductions, rebuild schedule), but all R x P
    sub-domain frames of a step are submitted to ONE shared
    :class:`~repro.dp.backend.ForceBackend` call, which buckets them by
    shape and issues one batched graph evaluation per bucket — the
    evaluations-per-step counter equals the bucket count, not R x P.
    Physics is bitwise identical to running the R replicas as independent
    ``DistributedSimulation`` s (and therefore to the serial engine), because
    every frame's result is independent of the batch it was coalesced into.

    Parameters mirror :class:`DistributedSimulation`; ``systems`` carries
    one snapshot per replica (typically the same structure with different
    velocity seeds — see :meth:`from_system`).
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
        self.model = model
        self.force_backend = (
            force_backend if force_backend is not None else ForceBackend(model)
        )
        self.replicas = [
            DistributedSimulation(
                system=s,
                model=model,
                grid=grid,
                dt=dt,
                skin=skin,
                rebuild_every=rebuild_every,
                thermo_every=thermo_every,
                use_iallreduce=use_iallreduce,
                force_backend=self.force_backend,
                defer_initial_forces=True,
            )
            for s in systems
        ]
        self.loop_seconds = 0.0
        # Setup-time forces for ALL replicas in one fused backend call.
        self._evaluate_all()

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
    ) -> "DistributedEnsembleSimulation":
        """Clone one structure into R replicas with fresh Boltzmann
        velocities (scalar seeds are offset per replica), exactly as
        :meth:`repro.md.ensemble.EnsembleSimulation.from_system` does."""
        replicas = boltzmann_replicas(system, n_replicas, temperature, seed)
        return cls(replicas, model, **kwargs)

    # ---------------------------------------------------------------- stepping

    @property
    def n_replicas(self) -> int:
        return len(self.replicas)

    @property
    def step_count(self) -> int:
        return self.replicas[0].step_count

    @property
    def thermo(self) -> list[list[ThermoState]]:
        """Per-replica thermo logs (one list per replica)."""
        return [rep.thermo for rep in self.replicas]

    def _evaluate_all(self) -> None:
        """One fused force evaluation over every replica's rank frames."""
        frames: list[ForceFrame] = []
        owners: list[tuple[DistributedSimulation, list[int], int]] = []
        for rep in self.replicas:
            rep_frames, ranks = rep._force_frames()
            frames.extend(rep_frames)
            owners.append((rep, ranks, len(rep_frames)))
        results = self.force_backend.evaluate(frames)
        pos = 0
        for rep, ranks, count in owners:
            rep._apply_force_results(ranks, results[pos : pos + count])
            pos += count

    def _step(self) -> None:
        for rep in self.replicas:
            rep._first_half_kick()
        for rep in self.replicas:
            rep._prepare_neighbors()
        self._evaluate_all()
        for rep in self.replicas:
            rep._second_half_kick()
            rep._maybe_record_thermo()

    def run(self, n_steps: int) -> list[list[ThermoState]]:
        """Advance all replicas ``n_steps`` in lockstep."""
        import time

        for rep in self.replicas:
            rep._maybe_record_thermo()
        t0 = time.perf_counter()
        for _ in range(n_steps):
            self._step()
        self.loop_seconds += time.perf_counter() - t0
        for rep in self.replicas:
            rep._flush_pending_thermo()
        return self.thermo

    # ----------------------------------------------------------------- metrics

    def total_atoms(self) -> int:
        return sum(rep.system.n_atoms for rep in self.replicas)

    def time_to_solution(self) -> float:
        """Seconds per MD step per atom, aggregated over all replicas."""
        if self.step_count == 0:
            return float("nan")
        return self.loop_seconds / self.step_count / self.total_atoms()

    def current_systems(self) -> list[System]:
        """Per-replica global systems gathered from their ranks."""
        return [rep.current_system() for rep in self.replicas]
