"""Exact-restart checkpointing (:mod:`repro.md.checkpoint`).

The contract: kill a run at any step boundary, rebuild the driver with
the same constructor arguments, restore, finish — and every observable
(positions, velocities, forces, thermo rows, evaluation counters) is
**bitwise identical** to the uninterrupted run.  Pinned here for the
serial :class:`~repro.md.simulation.Simulation` (NVE / Langevin /
Nosé-Hoover / deforming box), the domain-decomposed
:class:`~repro.parallel.driver.DistributedSimulation`, and the two lockstep
drivers over them (:class:`~repro.md.ensemble.EnsembleSimulation`,
:class:`~repro.parallel.driver.DistributedEnsembleSimulation`), whose
checkpoints nest their replicas' states.

The file layer is tested adversarially: flipped payload bytes and
truncation are *refused* (checksum), mismatched drivers/dt/system are
refused (meta checks), and a failed write never destroys the previous
checkpoint (atomic replace).  The trigger layer (:class:`CheckpointWriter`)
turns a real SIGTERM — raised synchronously via ``signal.raise_signal`` so
the test is deterministic — into save-then-interrupt at the next step
boundary.
"""

import hashlib
import os
import signal

import numpy as np
import pytest

from repro.analysis.structures import water_box
from repro.dp.model import DeepPot, DPConfig
from repro.dp.pair import DeepPotPair
from repro.md import boltzmann_velocities
from repro.md.checkpoint import (
    MAGIC,
    CheckpointError,
    CheckpointInterrupt,
    CheckpointWriter,
    load_checkpoint,
    pack_tagged,
    restore_checkpoint,
    save_checkpoint,
)
from repro.md.ensemble import EnsembleSimulation
from repro.md.integrators import Langevin, NoseHoover
from repro.md.neighbor import fitted_neighbor_list
from repro.md.simulation import Simulation
from repro.parallel import DistributedEnsembleSimulation, DistributedSimulation


@pytest.fixture(scope="module")
def model():
    return DeepPot(DPConfig.tiny(sel=(8, 16), rcut=3.0))


def make_sim(model, integrator=None, seed=1, thermo_every=4):
    system = water_box((2, 2, 2), seed=0)
    boltzmann_velocities(system, 300.0, seed=seed)
    kwargs = {} if integrator is None else {"integrator": integrator}
    return Simulation(
        system,
        DeepPotPair(model),
        dt=5e-4,
        neighbor=fitted_neighbor_list(system, model.config.rcut),
        thermo_every=thermo_every,
        **kwargs,
    )


def assert_sim_bitwise(a: Simulation, b: Simulation):
    assert a.step_count == b.step_count
    assert a.force_evaluations == b.force_evaluations
    assert np.array_equal(a.system.positions, b.system.positions)
    assert np.array_equal(a.system.velocities, b.system.velocities)
    assert a.last_result().energy == b.last_result().energy
    assert np.array_equal(a.last_result().forces, b.last_result().forces)
    assert [r.as_tuple() for r in a.thermo.rows] == [
        r.as_tuple() for r in b.thermo.rows
    ]


def make_ensemble(model):
    return EnsembleSimulation.from_system(
        water_box((2, 2, 2), seed=0), model, n_replicas=3,
        temperature=(280.0, 320.0, 360.0), seed=5, dt=5e-4,
        thermo_every=4,
    )


def make_ensemble_with_trajectory(model):
    ens = make_ensemble(model)
    for rep in ens.replicas:
        rep.trajectory_every = 3
    return ens


def make_distributed(model):
    system = water_box((3, 3, 3), seed=2)
    boltzmann_velocities(system, 300.0, seed=3)
    return DistributedSimulation(
        system, model, grid=(2, 1, 1), dt=5e-4, skin=1.0,
        thermo_every=4,
    )


def make_distributed_ensemble(model):
    return DistributedEnsembleSimulation.from_system(
        water_box((3, 3, 3), seed=2), model, n_replicas=2, seed=9,
        grid=(2, 1, 1), dt=5e-4, skin=1.0, rebuild_every=3, thermo_every=2,
    )


#: One factory per driver kind; the serial one carries a Langevin RNG so a
#: resume that lost hidden integrator state would diverge.
DRIVERS = {
    "Simulation": lambda model: make_sim(
        model, Langevin(temperature=300.0, seed=7)
    ),
    "EnsembleSimulation": make_ensemble,
    "DistributedSimulation": make_distributed,
    "DistributedEnsembleSimulation": make_distributed_ensemble,
}


def observables(sim):
    """Everything a resumed run must reproduce bit for bit, for any driver
    (a lockstep driver: its counter and its replicas' observables)."""
    if hasattr(sim, "replicas"):
        return [sim.force_evaluations] + [
            observables(rep) for rep in sim.replicas
        ]
    if isinstance(sim, DistributedSimulation):
        gathered = sim.current_system()
        return (
            sim.step_count,
            gathered.positions.tobytes(),
            gathered.velocities.tobytes(),
            sim.forces_now().tobytes(),
            [r.as_tuple() for r in sim.thermo],
        )
    return (
        sim.step_count,
        sim.force_evaluations,
        sim.system.positions.tobytes(),
        sim.system.velocities.tobytes(),
        sim.last_result().energy,
        sim.last_result().forces.tobytes(),
        [r.as_tuple() for r in sim.thermo.rows],
        [frame.tobytes() for frame in sim.trajectory],
    )


#: ``u32 header length | JSON header | raw little-endian array bytes`` of
#: the container in ``TestFileLayer::test_payload_golden_bytes``.
GOLDEN_PAYLOAD_HEX = (
    "00000079"
    + (
        b'{"format":1,"kind":"Simulation","dt":0.0005,"arrays":'
        b'[["positions","<f8",[2,3]],["types","<i8",[2]],["energy","<f8",[]]]}'
    ).hex()
    + "0000000000000000" "000000000000f03f" "0000000000000040"
    + "0000000000000840" "0000000000001040" "0000000000001440"
    + "0100000000000000" "0000000000000000"
    + "000000000000f8bf"
)


def roundtrip(sim, tmp_path, name="ckpt.repro"):
    path = save_checkpoint(sim, tmp_path / name)
    return path


# ---------------------------------------------------------------------------
# serial Simulation: bitwise resume
# ---------------------------------------------------------------------------


class TestSimulationResume:
    @pytest.mark.parametrize(
        "integrator",
        [None, Langevin(temperature=300.0, seed=7),
         NoseHoover(temperature=300.0)],
        ids=["nve", "langevin", "nosehoover"],
    )
    def test_resume_is_bitwise(self, model, tmp_path, integrator):
        """The headline contract, for every integrator with hidden state
        (Langevin: RNG stream; Nosé-Hoover: friction xi)."""
        total, cut = 14, 5
        ref = make_sim(model, integrator)
        ref.run(total)

        # type(integrator) reconstructs with the same ctor args.
        fresh_integ = (
            None if integrator is None
            else Langevin(temperature=300.0, seed=7)
            if isinstance(integrator, Langevin)
            else NoseHoover(temperature=300.0)
        )
        victim = make_sim(model, fresh_integ)
        victim.run(cut)
        path = roundtrip(victim, tmp_path)

        resumed_integ = (
            None if integrator is None
            else Langevin(temperature=300.0, seed=99)  # restore overwrites
            if isinstance(integrator, Langevin)
            else NoseHoover(temperature=300.0)
        )
        resumed = make_sim(model, resumed_integ, seed=13)  # velocities too
        restore_checkpoint(resumed, path)
        resumed.run(total - cut)
        assert_sim_bitwise(resumed, ref)

    def test_resume_preserves_neighbor_rebuild_schedule(self, model,
                                                        tmp_path):
        """force_evaluations and n_builds count identically across the
        cut — the restored ``_result`` must suppress re-initialization."""
        total, cut = 12, 7
        ref = make_sim(model)
        ref.run(total)
        victim = make_sim(model)
        victim.run(cut)
        path = roundtrip(victim, tmp_path)
        resumed = restore_checkpoint(make_sim(model), path)
        assert resumed.force_evaluations == victim.force_evaluations
        resumed.run(total - cut)
        assert resumed.neighbor.n_builds == ref.neighbor.n_builds
        assert resumed.force_evaluations == ref.force_evaluations

    def test_resume_at_thermo_boundary_no_duplicate_row(self, model,
                                                        tmp_path):
        """Cutting exactly on a thermo step must not duplicate the row:
        every ``run()`` re-records its starting step and the log
        deduplicates it."""
        total, cut = 12, 8  # thermo_every=4 -> cut lands on a logged step
        ref = make_sim(model)
        ref.run(total)
        victim = make_sim(model)
        victim.run(cut)
        path = roundtrip(victim, tmp_path)
        resumed = restore_checkpoint(make_sim(model), path)
        resumed.run(total - cut)
        steps = [r.step for r in resumed.thermo.rows]
        assert steps == sorted(set(steps))  # strictly increasing, no dupes
        assert_sim_bitwise(resumed, ref)

    def test_split_run_equals_single_run_without_checkpoint(self, model):
        """The thermo dedupe guard alone makes back-to-back ``run()`` calls
        equivalent to one long run (a pre-existing wart this PR fixes)."""
        a = make_sim(model)
        a.run(12)
        b = make_sim(model)
        b.run(5)
        b.run(7)
        assert_sim_bitwise(a, b)


# ---------------------------------------------------------------------------
# ensemble + distributed drivers
# ---------------------------------------------------------------------------


class TestEnsembleResume:
    @pytest.mark.parametrize(
        "make",
        [make_ensemble, make_ensemble_with_trajectory,
         make_distributed_ensemble],
        ids=["ensemble", "ensemble-trajectory", "distributed-ensemble"],
    )
    def test_resume_is_bitwise(self, model, tmp_path, make):
        """Both lockstep drivers: positions, velocities, forces, thermo rows
        (and stored trajectories) of every replica, plus the counters."""
        total, cut = 10, 4
        ref = make(model)
        ref.run(total)
        victim = make(model)
        victim.run(cut)
        path = save_checkpoint(victim, tmp_path / "ens.repro")
        resumed = restore_checkpoint(make(model), path)
        resumed.run(total - cut)
        assert resumed.step_count == ref.step_count == total
        assert observables(resumed) == observables(ref)
        if make is make_ensemble_with_trajectory:
            assert [len(r.trajectory) for r in resumed.replicas] == [3, 3, 3]

    def test_replica_count_mismatch_refused(self, model, tmp_path):
        ens = EnsembleSimulation.from_system(
            water_box((2, 2, 2), seed=0), model, n_replicas=2, dt=5e-4
        )
        ens.run(2)
        path = save_checkpoint(ens, tmp_path / "ens2.repro")
        other = EnsembleSimulation.from_system(
            water_box((2, 2, 2), seed=0), model, n_replicas=3, dt=5e-4
        )
        with pytest.raises(CheckpointError, match="replica count"):
            restore_checkpoint(other, path)


class TestDistributedResume:
    def test_resume_is_bitwise(self, model, tmp_path):
        total, cut = 10, 4

        def make():
            system = water_box((3, 3, 3), seed=2)
            boltzmann_velocities(system, 300.0, seed=3)
            return DistributedSimulation(
                system, model, grid=(2, 1, 1), dt=5e-4, skin=1.0,
                thermo_every=4,
            )

        ref = make()
        ref.run(total)
        victim = make()
        victim.run(cut)
        path = save_checkpoint(victim, tmp_path / "dist.repro")
        resumed = restore_checkpoint(make(), path)
        resumed.run(total - cut)
        assert resumed.step_count == ref.step_count
        got, want = resumed.current_system(), ref.current_system()
        assert np.array_equal(got.positions, want.positions)
        assert np.array_equal(got.velocities, want.velocities)
        assert np.array_equal(resumed.forces_now(), ref.forces_now())
        assert [r.as_tuple() for r in resumed.thermo] == [
            r.as_tuple() for r in ref.thermo
        ]

    @pytest.mark.parametrize(
        "kind", ["Simulation", "EnsembleSimulation", "DistributedSimulation"]
    )
    def test_checkpoint_before_the_first_evaluation_round_trips(
        self, model, tmp_path, kind
    ):
        """The lazy drivers can be saved before any force exists; whoever
        evaluates the set-up forces, they are evaluated once."""
        ref = DRIVERS[kind](model)
        ref.run(5)
        victim = DRIVERS[kind](model)
        path = save_checkpoint(victim, tmp_path / "cold.repro")
        resumed = restore_checkpoint(DRIVERS[kind](model), path)
        resumed.run(5)
        assert observables(resumed) == observables(ref)
        # ... and a warm checkpoint restores as evaluated: 5 more steps
        # cost 5 evaluations, not 6.
        path = save_checkpoint(resumed, tmp_path / "warm.repro")
        warm = restore_checkpoint(DRIVERS[kind](model), path)
        backend = (
            warm.potential.force_backend if kind == "Simulation"
            else warm.force_backend
        )
        before = backend.evaluations
        warm.run(5)
        assert backend.evaluations - before == 5 * backend.bucket_count

    def test_grid_mismatch_refused(self, model, tmp_path):
        system = water_box((3, 3, 3), seed=2)
        sim = DistributedSimulation(system, model, grid=(2, 1, 1), dt=5e-4,
                                    skin=1.0)
        sim.run(2)
        path = save_checkpoint(sim, tmp_path / "grid.repro")
        other = DistributedSimulation(
            water_box((3, 3, 3), seed=2), model, grid=(1, 2, 1), dt=5e-4,
            skin=1.0,
        )
        with pytest.raises(CheckpointError, match="grid mismatch"):
            restore_checkpoint(other, path)


# ---------------------------------------------------------------------------
# file layer: refusals + atomicity
# ---------------------------------------------------------------------------


class TestFileLayer:
    def test_corrupted_payload_refused(self, model, tmp_path):
        sim = make_sim(model)
        sim.run(3)
        path = roundtrip(sim, tmp_path)
        data = bytearray(path.read_bytes())
        data[-7] ^= 0x01  # flip one payload bit
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            load_checkpoint(path)

    def test_truncated_file_refused(self, model, tmp_path):
        sim = make_sim(model)
        sim.run(3)
        path = roundtrip(sim, tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            load_checkpoint(path)

    def test_bad_magic_refused(self, tmp_path):
        path = tmp_path / "junk.repro"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(path)

    def test_payload_golden_bytes(self):
        """The payload container is shared with the serving wire protocol;
        not one byte of it may move (these bytes were written by the
        private ``_pack`` this container replaced)."""
        payload = pack_tagged(
            {"format": 1, "kind": "Simulation", "dt": 0.0005},
            {
                "positions": np.arange(6, dtype=np.float64).reshape(2, 3),
                "types": np.array([1, 0], dtype=np.int64),
                "energy": np.float64(-1.5),
            },
        )
        assert payload.hex() == GOLDEN_PAYLOAD_HEX

    def test_older_format_refused(self, tmp_path):
        """Format 1 spelled an ensemble as flat per-replica fields; it is
        refused by number, not misread."""
        payload = pack_tagged({"format": 1, "kind": "EnsembleSimulation"}, {})
        digest = hashlib.blake2b(payload, digest_size=16).hexdigest()
        path = tmp_path / "old.repro"
        path.write_bytes(MAGIC + digest.encode("ascii") + b"\n" + payload)
        with pytest.raises(CheckpointError, match="format 1 != 2"):
            load_checkpoint(path)

    def test_driver_kind_mismatch_refused(self, model, tmp_path):
        sim = make_sim(model)
        sim.run(2)
        path = roundtrip(sim, tmp_path)
        ens = EnsembleSimulation.from_system(
            water_box((2, 2, 2), seed=0), model, n_replicas=2, dt=5e-4
        )
        with pytest.raises(CheckpointError, match="driver is a"):
            restore_checkpoint(ens, path)

    def test_dt_mismatch_refused(self, model, tmp_path):
        sim = make_sim(model)
        sim.run(2)
        path = roundtrip(sim, tmp_path)
        system = water_box((2, 2, 2), seed=0)
        other = Simulation(
            system, DeepPotPair(model), dt=1e-3,
            neighbor=fitted_neighbor_list(system, model.config.rcut),
        )
        with pytest.raises(CheckpointError, match="dt mismatch"):
            restore_checkpoint(other, path)

    def test_integrator_kind_mismatch_refused(self, model, tmp_path):
        sim = make_sim(model, Langevin(temperature=300.0, seed=7))
        sim.run(2)
        path = roundtrip(sim, tmp_path)
        other = make_sim(model, NoseHoover(temperature=300.0))
        with pytest.raises(CheckpointError, match="integrator mismatch"):
            restore_checkpoint(other, path)

    def test_different_system_refused(self, model, tmp_path):
        sim = make_sim(model)
        sim.run(2)
        path = roundtrip(sim, tmp_path)
        bigger = water_box((3, 3, 3), seed=0)
        other = Simulation(
            bigger, DeepPotPair(model), dt=5e-4,
            neighbor=fitted_neighbor_list(bigger, model.config.rcut),
        )
        with pytest.raises(CheckpointError, match="different system"):
            restore_checkpoint(other, path)

    def test_save_overwrites_atomically(self, model, tmp_path):
        """A newer save replaces the file in one step; no temp litter."""
        sim = make_sim(model)
        sim.run(2)
        path = roundtrip(sim, tmp_path)
        first = path.read_bytes()
        sim.run(2)
        save_checkpoint(sim, path)
        second = path.read_bytes()
        assert first != second
        assert second.startswith(MAGIC)
        assert [p for p in os.listdir(tmp_path) if "tmp" in p] == []

    def test_save_is_deterministic_bytes(self, model, tmp_path):
        """Same state => same file bytes (no timestamps — the reason this
        is not an ``np.savez`` zip)."""
        sim = make_sim(model)
        sim.run(3)
        a = roundtrip(sim, tmp_path, "a.repro").read_bytes()
        b = roundtrip(sim, tmp_path, "b.repro").read_bytes()
        assert a == b


# ---------------------------------------------------------------------------
# triggers: periodic + SIGTERM
# ---------------------------------------------------------------------------


class TestCheckpointWriter:
    @pytest.mark.parametrize("kind", sorted(DRIVERS))
    def test_periodic_saves(self, model, tmp_path, kind):
        sim = DRIVERS[kind](model)
        writer = CheckpointWriter(sim, tmp_path, every=5)
        sim.run(12, callback=writer)
        assert writer.saves == 2  # steps 5 and 10
        assert writer.path.exists()
        # The file on disk is the step-10 state, not the step-12 state.
        resumed = restore_checkpoint(DRIVERS[kind](model), writer.path)
        assert resumed.step_count == 10
        # Saving mid-run (the distributed drivers flush their pending
        # reductions to do it) changed nothing about the run itself.
        ref = DRIVERS[kind](model)
        ref.run(12)
        assert observables(sim) == observables(ref)

    @pytest.mark.parametrize("kind", sorted(DRIVERS))
    def test_sigterm_saves_and_interrupts(self, model, tmp_path, kind):
        """A real SIGTERM (raised synchronously for determinism) checkpoints
        at the NEXT step boundary and interrupts; resume finishes bitwise."""
        total, kill_at = 12, 7
        ref = DRIVERS[kind](model)
        ref.run(total)

        victim = DRIVERS[kind](model)
        writer = CheckpointWriter(victim, tmp_path).install_sigterm()

        def cb(s):
            if s.step_count == kill_at:
                signal.raise_signal(signal.SIGTERM)
            writer(s)

        try:
            with pytest.raises(CheckpointInterrupt):
                victim.run(total, callback=cb)
        finally:
            writer.uninstall_sigterm()
        assert victim.step_count == kill_at  # stopped at a step boundary
        assert writer.signaled and writer.saves == 1

        resumed = restore_checkpoint(DRIVERS[kind](model), writer.path)
        resumed.run(total - kill_at)
        assert observables(resumed) == observables(ref)

    def test_uninstall_restores_previous_handler(self, model, tmp_path):
        before = signal.getsignal(signal.SIGTERM)
        writer = CheckpointWriter(make_sim(model), tmp_path).install_sigterm()
        assert signal.getsignal(signal.SIGTERM) == writer._on_signal
        writer.uninstall_sigterm()
        assert signal.getsignal(signal.SIGTERM) == before

    def test_negative_every_rejected(self, model, tmp_path):
        with pytest.raises(ValueError, match="every"):
            CheckpointWriter(make_sim(model), tmp_path, every=-1)
