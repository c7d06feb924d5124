"""DistributedEnsembleSimulation (R replicas x P ranks, one fused backend
call per step) and the decomposition edge cases the parallel layer relies
on: pz > 1 grids, migration across periodic boundaries on rebuild, and
ghost-force reverse-communication conservation."""

import numpy as np
import pytest

from repro.analysis.structures import water_box
from repro.dp import DeepPot, DPConfig, DeepPotPair
from repro.dp.backend import PerFrameBackend
from repro.md import (
    EnsembleSimulation,
    NeighborList,
    Simulation,
    boltzmann_velocities,
    fitted_neighbor_list,
)
from repro.md.neighbor import neighbor_pairs
from repro.parallel import (
    DistributedEnsembleSimulation,
    DistributedSimulation,
    DomainDecomposition,
    SimComm,
)


@pytest.fixture(scope="module")
def tiny_model():
    return DeepPot(DPConfig.tiny())


@pytest.fixture()
def water_sys():
    sys = water_box((4, 4, 4), seed=0)
    boltzmann_velocities(sys, 250.0, seed=2)
    return sys


SIM_KW = dict(dt=0.0005, skin=1.0, rebuild_every=4)


def serial_replica(system, model):
    return Simulation(
        system, DeepPotPair(model), dt=SIM_KW["dt"], thermo_every=2,
        neighbor=fitted_neighbor_list(system, model.config.rcut, skin=2.0),
    )


def serial_state(sim):
    return (
        sim.system.positions.tobytes(), sim.system.velocities.tobytes(),
        sim.last_result().forces.tobytes(), sim.thermo.rows,
    )


def distributed_replica(system, model):
    return DistributedSimulation(
        system, model, grid=(2, 1, 1), thermo_every=2, **SIM_KW
    )


def distributed_state(sim):
    gathered = sim.current_system()
    return (
        gathered.positions.tobytes(), gathered.velocities.tobytes(),
        sim.forces_now().tobytes(), sim.thermo,
    )


class TestLockstepConformance:
    """One lockstep loop (``EnsembleSimulation.run``) over either replica
    type: R replicas in lockstep are R independent drivers, bit for bit,
    at one backend evaluation per shape bucket per step."""

    @pytest.mark.parametrize(
        "lockstep,kwargs,solo,state",
        [
            (EnsembleSimulation, dict(dt=SIM_KW["dt"]),
             serial_replica, serial_state),
            (DistributedEnsembleSimulation, dict(grid=(2, 1, 1), **SIM_KW),
             distributed_replica, distributed_state),
        ],
        ids=["Simulation", "DistributedSimulation"],
    )
    def test_lockstep_equals_independent_drivers(
        self, tiny_model, water_sys, lockstep, kwargs, solo, state
    ):
        R, seed = 3, 21
        ens = lockstep.from_system(
            water_sys, tiny_model, n_replicas=R, temperature=300.0,
            seed=seed, thermo_every=2, **kwargs,
        )
        ens.run(2)  # includes the set-up evaluation of a lazy driver
        backend = ens.force_backend
        before = backend.evaluations
        buckets = []  # per step (a rebuild at step 4 changes the shapes)
        ens.run(4, callback=lambda e: buckets.append(backend.bucket_count))
        assert backend.evaluations - before == sum(buckets)
        frames_per_step = R * int(np.prod(kwargs.get("grid", (1, 1, 1))))
        assert len(buckets) == 4 and max(buckets) < frames_per_step
        assert ens.step_count == 6 and ens.force_evaluations == 7
        for k, rep in enumerate(ens.replicas):
            system = water_sys.copy()
            boltzmann_velocities(system, 300.0, seed=seed + k)
            alone = solo(system, tiny_model)
            alone.run(6)
            assert type(rep) is type(alone)
            assert state(rep) == state(alone)
            assert len(state(rep)[-1]) == 4  # thermo rows 0, 2, 4, 6


class TestDistributedEnsemble:
    @pytest.mark.parametrize("grid", [(2, 1, 1), (2, 2, 1)])
    def test_bitwise_vs_independent_distributed_runs(
        self, tiny_model, water_sys, grid
    ):
        """R=3 lockstep replicas == 3 independent DistributedSimulations,
        bitwise: positions, velocities, forces, and every thermo row."""
        ens = DistributedEnsembleSimulation.from_system(
            water_sys, tiny_model, n_replicas=3, temperature=300.0, seed=7,
            grid=grid, **SIM_KW,
        )
        ens.run(6)
        for k in range(3):
            solo_sys = water_sys.copy()
            boltzmann_velocities(solo_sys, 300.0, seed=7 + k)
            solo = DistributedSimulation(
                solo_sys, tiny_model, grid=grid, **SIM_KW
            )
            solo.run(6)
            g_ens = ens.replicas[k].current_system()
            g_solo = solo.current_system()
            assert np.array_equal(g_ens.positions, g_solo.positions)
            assert np.array_equal(g_ens.velocities, g_solo.velocities)
            assert np.array_equal(
                ens.replicas[k].forces_now(), solo.forces_now()
            )
            assert ens.replicas[k].thermo == solo.thermo

    def test_matches_serial_engine_trajectory(self, tiny_model, water_sys):
        """Each ensemble replica reproduces the serial engine's trajectory
        (the established distributed == serial contract)."""
        ens = DistributedEnsembleSimulation.from_system(
            water_sys, tiny_model, n_replicas=3, temperature=300.0, seed=11,
            grid=(2, 2, 1), **SIM_KW,
        )
        ens.run(8)
        for k in range(3):
            serial_sys = water_sys.copy()
            boltzmann_velocities(serial_sys, 300.0, seed=11 + k)
            sim = Simulation(
                serial_sys,
                DeepPotPair(tiny_model),
                dt=SIM_KW["dt"],
                neighbor=NeighborList(
                    cutoff=tiny_model.config.rcut, skin=1.0, rebuild_every=4
                ),
            )
            sim.run(8)
            gathered = ens.replicas[k].current_system()
            diff = gathered.box.minimum_image(
                gathered.positions - gathered.box.wrap(serial_sys.positions)
            )
            assert np.abs(diff).max() < 1e-10

    @pytest.mark.parametrize("grid", [(2, 1, 1), (2, 2, 1)])
    def test_one_evaluation_per_bucket_not_per_rank_replica(
        self, tiny_model, water_sys, grid
    ):
        """The acceptance counter: a step issues exactly ``bucket_count``
        batched evaluations, strictly fewer than R x P."""
        R = 3
        P = int(np.prod(grid))
        ens = DistributedEnsembleSimulation.from_system(
            water_sys, tiny_model, n_replicas=R, temperature=300.0, seed=3,
            grid=grid, dt=0.0005, skin=1.0, rebuild_every=1000,
        )
        backend = ens.force_backend
        before = backend.evaluations
        ens.run(3)
        per_step = (backend.evaluations - before) / 3
        assert per_step == backend.bucket_count
        assert backend.bucket_count < R * P
        # Every step's evaluation went through the stacked staging path.
        assert backend.engine.general_batches == 0
        assert backend.engine.ghost_stacked_batches > 0

    def test_thermo_structure_and_blocking_reduction(self, tiny_model, water_sys):
        ens = DistributedEnsembleSimulation.from_system(
            water_sys, tiny_model, n_replicas=2, temperature=280.0, seed=1,
            grid=(2, 1, 1), dt=0.0005, skin=1.0, thermo_every=2,
            use_iallreduce=False,
        )
        logs = ens.run(4)
        assert len(logs) == 2
        for rep_log in logs:
            assert [row.step for row in rep_log] == [0, 2, 4]
        assert all(
            rep.comm.stats.allreduce_calls > 0 for rep in ens.replicas
        )

    def test_empty_replica_list_rejected(self, tiny_model):
        with pytest.raises(ValueError, match="at least one replica"):
            DistributedEnsembleSimulation([], tiny_model)

    def test_mismatched_sequences_rejected(self, tiny_model, water_sys):
        with pytest.raises(ValueError, match="one entry per replica"):
            DistributedEnsembleSimulation.from_system(
                water_sys, tiny_model, n_replicas=3, temperature=[300.0, 310.0]
            )


class TestDecompositionEdgeCases:
    """Satellite coverage: pz > 1 grids, PBC migration, reverse-comm."""

    @pytest.mark.parametrize("grid", [(1, 1, 2), (1, 2, 2), (2, 2, 2)])
    def test_pz_grids_partition_completely(self, water_sys, grid):
        comm = SimComm(int(np.prod(grid)))
        decomp = DomainDecomposition(grid, comm)
        decomp.assign_atoms(water_sys)
        all_ids = np.concatenate([d.global_idx for d in decomp.domains])
        assert sorted(all_ids.tolist()) == list(range(water_sys.n_atoms))
        for dom in decomp.domains:
            if dom.n_own:
                assert np.all(dom.positions >= dom.lo - 1e-12)
                assert np.all(dom.positions < dom.hi + 1e-12)

    @pytest.mark.parametrize("grid", [(1, 1, 2), (1, 2, 2)])
    def test_pz_grid_forces_match_serial(self, tiny_model, water_sys, grid):
        pi, pj = neighbor_pairs(water_sys, tiny_model.config.rcut)
        serial = tiny_model.evaluate(water_sys, pi, pj)
        dist = DistributedSimulation(
            water_sys.copy(), tiny_model, grid=grid, dt=0.0005, skin=1.0
        )
        np.testing.assert_allclose(dist.forces_now(), serial.forces, atol=1e-12)

    def test_migration_across_periodic_boundary_on_rebuild(
        self, tiny_model, water_sys
    ):
        """An atom drifting out of the box must be wrapped and reassigned to
        the periodically-correct owner when the rebuild reassigns atoms."""
        dist = DistributedSimulation(
            water_sys.copy(), tiny_model, grid=(2, 1, 1), dt=0.0005,
            skin=1.0, rebuild_every=2,
        )
        # Push one atom of rank 0 across the -x periodic boundary: after a
        # wrap it belongs to the *last* domain along x.
        dom0 = dist.decomp.domains[0]
        lengths = dist.system.box.lengths
        moved_global = int(dom0.global_idx[0])
        dom0.positions[0, 0] = -0.05  # just outside, wraps to L - 0.05
        snapshot = dist.decomp.gather_system(dist.system)
        dist.decomp.assign_atoms(snapshot)
        owners = {
            int(g): d.rank for d in dist.decomp.domains for g in d.global_idx
        }
        assert owners[moved_global] == 1  # wrapped into the high-x domain
        wrapped_x = snapshot.box.wrap(snapshot.positions)[moved_global, 0]
        assert wrapped_x == pytest.approx(lengths[0] - 0.05)
        # Partition stays complete after the migration.
        all_ids = np.concatenate(
            [d.global_idx for d in dist.decomp.domains]
        )
        assert sorted(all_ids.tolist()) == list(range(snapshot.n_atoms))

    def test_rebuilds_with_migration_stay_bitwise_vs_oracle(
        self, tiny_model, water_sys
    ):
        """Hot trajectory with frequent rebuilds (guaranteed migrations):
        the bucketed path tracks the per-rank oracle bitwise throughout."""
        hot = water_sys.copy()
        boltzmann_velocities(hot, 600.0, seed=9)
        kw = dict(grid=(2, 2, 1), dt=0.0005, skin=1.0, rebuild_every=2)
        a = DistributedSimulation(hot.copy(), tiny_model, **kw)
        b = DistributedSimulation(
            hot.copy(), tiny_model, force_backend=PerFrameBackend(tiny_model),
            **kw
        )
        a.run(10)
        b.run(10)
        assert np.array_equal(
            a.current_system().positions, b.current_system().positions
        )
        assert np.array_equal(a.forces_now(), b.forces_now())

    def test_reverse_comm_conserves_every_ghost_contribution(self, water_sys):
        """Exact conservation: with integer-valued ghost forces, the sum
        accumulated onto owners equals the sum sent, component by
        component (no row lost, duplicated, or misrouted)."""
        comm = SimComm(4)
        decomp = DomainDecomposition((2, 2, 1), comm)
        decomp.assign_atoms(water_sys)
        decomp.build_ghost_lists(water_sys.box, 3.0)
        rng = np.random.default_rng(0)
        ghost_forces = {}
        sent_total = np.zeros(3)
        for dom in decomp.domains:
            vals = rng.integers(-5, 6, size=(dom.n_ghost, 3)).astype(float)
            ghost_forces[dom.rank] = vals
            sent_total += vals.sum(axis=0)
            dom.forces = np.zeros((dom.n_own, 3))
        decomp.reverse_exchange(ghost_forces)
        received_total = np.zeros(3)
        for dom in decomp.domains:
            received_total += dom.forces.sum(axis=0)
        # Integer arithmetic in floats: exact equality, not approx.
        assert np.array_equal(received_total, sent_total)

    def test_distributed_force_sum_matches_serial(self, tiny_model, water_sys):
        """After reverse communication the global force sum (momentum
        change) agrees with the serial engine's to accumulation
        round-off."""
        pi, pj = neighbor_pairs(water_sys, tiny_model.config.rcut)
        serial = tiny_model.evaluate(water_sys, pi, pj)
        dist = DistributedSimulation(
            water_sys.copy(), tiny_model, grid=(2, 2, 1), dt=0.0005, skin=1.0
        )
        np.testing.assert_allclose(
            dist.forces_now().sum(axis=0), serial.forces.sum(axis=0),
            atol=1e-10,
        )
        # Both paths conserve momentum (Newton's third law holds on the
        # reassembled forces).
        assert np.abs(dist.forces_now().sum(axis=0)).max() < 1e-9
