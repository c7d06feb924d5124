"""Batched-vs-serial equivalence for the multi-replica evaluation engine.

Covers the three contracts of :mod:`repro.dp.batch` / :mod:`repro.md.ensemble`:

1. R=1 through the batched engine is *bitwise* identical to the serial path
   (energies, forces, virials, atomic energies), so the single-replica MD
   driver lost nothing by routing through the engine;
2. R>1 replicas are bitwise identical to independent serial evaluations —
   forces/virials (scatter-add orderings are preserved per replica) AND
   energies/atomic energies (tfmini's matrix-vector kernel is row-count
   independent, so GEMM results never depend on batch composition);
3. the steady-state loop reuses the engine's persistent scratch buffers —
   no new large allocations after warm-up (deterministic counter assert).
"""

import numpy as np
import pytest

from repro.analysis.structures import water_box
from repro.dp.batch import BatchedEvaluator
from repro.dp.model import DeepPot, DPConfig
from repro.dp.pair import DeepPotPair
from repro.md.deform import Deform
from repro.md.ensemble import EnsembleMSD, EnsembleSimulation
from repro.md.neighbor import fitted_neighbor_list, neighbor_pairs
from repro.md.simulation import Simulation
from repro.md.velocity import boltzmann_velocities


@pytest.fixture(scope="module")
def model():
    return DeepPot(DPConfig.tiny())


@pytest.fixture(scope="module")
def base_system():
    return water_box((3, 3, 3), seed=0)


def perturbed_replicas(base, n, scale=0.02):
    out = []
    for k in range(n):
        s = base.copy()
        rng = np.random.default_rng(100 + k)
        s.positions = s.positions + rng.normal(scale=scale, size=s.positions.shape)
        out.append(s)
    return out


class TestBatchedEquivalence:
    def test_r1_bitwise_identical_to_serial(self, model, base_system):
        pi, pj = neighbor_pairs(base_system, model.config.rcut)
        ser = model.evaluate_serial(base_system, pi, pj)
        bat = model.evaluate(base_system, pi, pj)  # engine R=1 path
        assert bat.energy == ser.energy
        assert np.array_equal(bat.forces, ser.forces)
        assert np.array_equal(bat.virial, ser.virial)
        assert np.array_equal(bat.atom_energies, ser.atom_energies)

    def test_r1_ghost_mode_bitwise(self, model, base_system):
        pi, pj = neighbor_pairs(base_system, model.config.rcut)
        nloc = base_system.n_atoms // 2
        ser = model.evaluate_serial(base_system, pi, pj, nloc=nloc)
        bat = model.evaluate(base_system, pi, pj, nloc=nloc)
        assert bat.energy == ser.energy
        assert np.array_equal(bat.forces, ser.forces)
        assert bat.atom_energies.shape == (nloc,)

    def test_multi_replica_agrees_with_serial(self, model, base_system):
        reps = perturbed_replicas(base_system, 4)
        pls = [neighbor_pairs(s, model.config.rcut) for s in reps]
        engine = BatchedEvaluator(model)
        batch = engine.evaluate_batch(reps, pls)
        assert len(batch) == 4
        for system, (pi, pj), res in zip(reps, pls, batch):
            ser = model.evaluate_serial(system, pi, pj)
            # forces/virials keep their per-replica scatter-add order, and
            # the row-count-independent matvec kernel makes the energies
            # batch-composition independent too: everything is exact.
            assert np.array_equal(res.forces, ser.forces)
            assert np.array_equal(res.virial, ser.virial)
            assert res.energy == ser.energy
            assert np.array_equal(res.atom_energies, ser.atom_energies)

    def test_multi_replica_general_path_agrees(self, model, base_system):
        """Per-replica nloc forces the non-stacked staging path; results must
        agree with serial ghost-mode evaluations all the same."""
        reps = perturbed_replicas(base_system, 2)
        pls = [neighbor_pairs(s, model.config.rcut) for s in reps]
        nlocs = [reps[0].n_atoms // 2, reps[1].n_atoms]
        engine = BatchedEvaluator(model)
        batch = engine.evaluate_batch(reps, pls, nlocs=nlocs)
        for system, (pi, pj), nloc, res in zip(reps, pls, nlocs, batch):
            ser = model.evaluate_serial(system, pi, pj, nloc=nloc)
            assert np.array_equal(res.forces, ser.forces)
            assert res.energy == ser.energy
            assert res.atom_energies.shape == (nloc,)

    def test_replicas_independent_of_batch_composition(self, model, base_system):
        """A replica's result does not depend on who it is batched with."""
        reps = perturbed_replicas(base_system, 3)
        pls = [neighbor_pairs(s, model.config.rcut) for s in reps]
        engine = BatchedEvaluator(model)
        full = engine.evaluate_batch(reps, pls)
        pair = BatchedEvaluator(model).evaluate_batch(reps[:2], pls[:2])
        assert np.array_equal(full[0].forces, pair[0].forces)
        assert np.array_equal(full[1].forces, pair[1].forces)

    def test_mismatched_lengths_raise(self, model, base_system):
        pi, pj = neighbor_pairs(base_system, model.config.rcut)
        engine = BatchedEvaluator(model)
        with pytest.raises(ValueError):
            engine.evaluate_batch([base_system], [(pi, pj), (pi, pj)])
        with pytest.raises(ValueError):
            engine.evaluate_batch([base_system], [(pi, pj)], nlocs=[1, 2])

    def test_empty_batch(self, model):
        assert BatchedEvaluator(model).evaluate_batch([], []) == []


class TestEnsembleSimulation:
    def test_r1_matches_simulation_bitwise(self, model, base_system):
        s_serial = base_system.copy()
        boltzmann_velocities(s_serial, 300.0, seed=7)
        s_ens = s_serial.copy()

        sim = Simulation(
            s_serial, DeepPotPair(model), dt=0.0005,
            neighbor=fitted_neighbor_list(s_serial, model.config.rcut),
        )
        sim.run(5)

        ens = EnsembleSimulation(
            [s_ens], model, dt=0.0005,
            neighbors=[fitted_neighbor_list(s_ens, model.config.rcut)],
        )
        ens.run(5)

        assert np.array_equal(s_serial.positions, s_ens.positions)
        assert np.array_equal(s_serial.velocities, s_ens.velocities)
        assert np.array_equal(
            sim.thermo.column("potential_energy"),
            ens.thermo[0].column("potential_energy"),
        )

    def test_mixed_seed_replicas_match_independent_runs(self, model, base_system):
        seeds, temps = [1, 2, 3], [250.0, 300.0, 350.0]
        solo_systems = []
        for sd, temp in zip(seeds, temps):
            s = base_system.copy()
            boltzmann_velocities(s, temp, seed=sd)
            solo_systems.append(s)
        ens_systems = [s.copy() for s in solo_systems]

        for s in solo_systems:
            sim = Simulation(
                s, DeepPotPair(model), dt=0.0005,
                neighbor=fitted_neighbor_list(s, model.config.rcut),
            )
            sim.run(4)

        ens = EnsembleSimulation(
            ens_systems, model, dt=0.0005,
            neighbors=[fitted_neighbor_list(s, model.config.rcut) for s in ens_systems],
        )
        ens.run(4)

        for solo, rep in zip(solo_systems, ens_systems):
            assert np.array_equal(solo.positions, rep.positions)
            assert np.array_equal(solo.velocities, rep.velocities)

    def test_deform_on_one_replica_matches_lone_simulation(
        self, model, base_system
    ):
        """A replica is a whole ``Simulation``: a per-replica fix (Fig 7's
        tensile deformation) and a stored trajectory run inside the
        lockstep loop exactly as they do alone."""
        def strain():
            return Deform(axis=2, strain_rate=0.5, start_step=1)

        ens = EnsembleSimulation.from_system(
            base_system, model, n_replicas=2, seed=3, dt=0.0005,
            thermo_every=2,
        )
        ens.replicas[1].deform = strain()
        ens.replicas[1].trajectory_every = 2
        ens.run(5)

        lone_system = base_system.copy()
        boltzmann_velocities(lone_system, 330.0, seed=3 + 1)
        lone = Simulation(
            lone_system, DeepPotPair(model), dt=0.0005, thermo_every=2,
            neighbor=fitted_neighbor_list(lone_system, model.config.rcut),
            deform=strain(), trajectory_every=2,
        )
        lone.run(5)

        strained = ens.replicas[1]
        assert strained.system.box.lengths[2] > base_system.box.lengths[2]
        assert np.array_equal(strained.system.box.lengths, lone_system.box.lengths)
        assert np.array_equal(strained.system.positions, lone_system.positions)
        assert np.array_equal(strained.system.velocities, lone_system.velocities)
        assert strained.thermo.rows == lone.thermo.rows
        assert len(strained.trajectory) == 2
        assert all(
            np.array_equal(a, b)
            for a, b in zip(strained.trajectory, lone.trajectory)
        )
        # ... and replica 0 never saw it.
        assert np.array_equal(
            ens.systems[0].box.lengths, base_system.box.lengths
        )
        assert ens.replicas[0].trajectory == []

    def test_from_system_builds_decorrelated_replicas(self, model, base_system):
        ens = EnsembleSimulation.from_system(
            base_system, model, n_replicas=3, temperature=[200.0, 300.0, 400.0],
            seed=5, dt=0.0005,
        )
        assert ens.n_replicas == 3
        v0, v1 = ens.systems[0].velocities, ens.systems[1].velocities
        assert not np.array_equal(v0, v1)
        # replica temperatures honour the requested ladder
        assert ens.systems[0].temperature() == pytest.approx(200.0)
        assert ens.systems[2].temperature() == pytest.approx(400.0)

    def test_one_batched_eval_per_step(self, model, base_system):
        ens = EnsembleSimulation.from_system(
            base_system, model, n_replicas=4, dt=0.0005
        )
        ens.run(3)
        # n_steps + 1 evaluations (as in the serial driver), each covering R frames
        assert ens.force_evaluations == 4
        assert ens.engine.batch_evaluations == 4
        assert ens.engine.frames_evaluated == 16


class TestEnsembleMSD:
    def test_shapes_zero_origin_and_replica_mean(self, model, base_system):
        ens = EnsembleSimulation.from_system(
            base_system, model, n_replicas=3, dt=0.0005
        )
        msd = EnsembleMSD(ens, every=2)
        ens.run(6, callback=msd)
        # frame 0 (construction) + steps 2, 4, 6
        assert msd.n_frames == 4
        assert msd.n_replicas == 3
        per = msd.replica_msd()
        assert per.shape == (3, 4)
        assert np.all(per[:, 0] == 0.0)  # MSD is relative to frame 0
        assert np.all(per[:, -1] > 0.0)  # thermal motion happened
        mean, stderr = msd.msd()
        assert np.array_equal(mean, per.mean(axis=0))
        assert stderr.shape == (4,)
        assert np.all(stderr >= 0.0)
        # replicas have different seeds -> genuinely different curves
        assert not np.array_equal(per[0], per[1])

    def test_diffusion_estimate_with_error_bar(self, model, base_system):
        ens = EnsembleSimulation.from_system(
            base_system, model, n_replicas=3, dt=0.0005
        )
        msd = EnsembleMSD(ens, every=2)
        ens.run(8, callback=msd)
        est = msd.diffusion(fit_from=0.25)
        assert est.per_replica.shape == (3,)
        assert np.isfinite(est.mean)
        assert est.stderr >= 0.0
        assert est.mean == pytest.approx(est.per_replica.mean())
        expected_err = est.per_replica.std(ddof=1) / np.sqrt(3)
        assert est.stderr == pytest.approx(expected_err)

    def test_single_replica_has_zero_stderr(self, model, base_system):
        ens = EnsembleSimulation.from_system(
            base_system, model, n_replicas=1, dt=0.0005
        )
        msd = EnsembleMSD(ens, every=2)
        ens.run(4, callback=msd)
        _, stderr = msd.msd()
        assert np.all(stderr == 0.0)
        assert msd.diffusion(fit_from=0.0).stderr == 0.0

    def test_attaching_after_equilibration_keeps_uniform_spacing(
        self, model, base_system
    ):
        """Frames are spaced ``every`` steps from the attachment point, so
        an equilibration run of any length (not a multiple of ``every``)
        may precede the collector without skewing the time axis."""
        ens = EnsembleSimulation.from_system(
            base_system, model, n_replicas=1, dt=0.0005
        )
        ens.run(3)  # equilibration; 3 is not a multiple of every=2
        msd = EnsembleMSD(ens, every=2)
        ens.run(4, callback=msd)
        # frame 0 at step 3 (attachment) + steps 5 and 7
        assert msd.n_frames == 3

    def test_rejects_bad_stride(self, model, base_system):
        ens = EnsembleSimulation.from_system(
            base_system, model, n_replicas=1, dt=0.0005
        )
        with pytest.raises(ValueError):
            EnsembleMSD(ens, every=0)


class TestBufferReuse:
    def test_steady_state_loop_is_allocation_free(self, model, base_system):
        """After warm-up, repeated evaluations allocate no new large buffers
        and keep handing out the *same* scratch arrays."""
        reps = perturbed_replicas(base_system, 3)
        pls = [neighbor_pairs(s, model.config.rcut) for s in reps]
        engine = BatchedEvaluator(model)
        engine.evaluate_batch(reps, pls)  # warm-up allocates the pool

        count = engine.scratch.alloc_count
        nbytes = engine.scratch.nbytes()
        buf_ids = {key: id(a) for key, a in engine.scratch._arrays.items()}
        fmt_ids = [id(f.nlist) for f in engine._fmts.values()]
        for _ in range(5):
            engine.evaluate_batch(reps, pls)
        assert engine.scratch.alloc_count == count
        assert engine.scratch.nbytes() == nbytes
        assert {k: id(a) for k, a in engine.scratch._arrays.items()} == buf_ids
        assert [id(f.nlist) for f in engine._fmts.values()] == fmt_ids

    def test_md_loop_reuses_buffers(self, model, base_system):
        ens = EnsembleSimulation.from_system(
            base_system, model, n_replicas=2, dt=0.0005
        )
        ens.run(1)  # warm-up: initialize + first step
        count = ens.engine.scratch.alloc_count
        ens.run(4)
        assert ens.engine.scratch.alloc_count == count

    def test_pool_sizes_buffers_by_largest_shape(self, model, base_system):
        """A smaller batch after a larger one fits the buffers it left;
        alternating between the two allocates nothing (no thrash) and
        holds the larger one's bytes."""
        reps = perturbed_replicas(base_system, 2)
        pls = [neighbor_pairs(s, model.config.rcut) for s in reps]
        engine = BatchedEvaluator(model)
        engine.evaluate_batch(reps, pls)
        count, nbytes = engine.scratch.alloc_count, engine.scratch.nbytes()
        for _ in range(3):
            engine.evaluate_batch(reps[:1], pls[:1])
            engine.evaluate_batch(reps, pls)
        assert engine.scratch.alloc_count == count
        assert engine.scratch.nbytes() == nbytes

    def test_pair_count_drift_bounded_allocations(self, model, base_system):
        """Neighbor-list rebuilds change the pair count slightly every time;
        the pair staging slabs are power-of-two sized so allocations plateau
        instead of growing once per rebuild."""
        reps = perturbed_replicas(base_system, 2)
        engine = BatchedEvaluator(model)
        rng = np.random.default_rng(0)
        counts = []
        for _ in range(8):
            # jitter positions -> a different pair count per "rebuild"
            for s in reps:
                s.positions = s.positions + rng.normal(
                    scale=0.01, size=s.positions.shape
                )
            pls = [neighbor_pairs(s, model.config.rcut) for s in reps]
            engine.evaluate_batch(reps, pls)
            counts.append(engine.scratch.alloc_count)
        assert len({len(p[0]) for p in
                    [neighbor_pairs(s, model.config.rcut) for s in reps]}) >= 1
        # allocations stop growing after the slabs warm up
        assert counts[-1] == counts[3]

    def test_from_system_accepts_numpy_scalars(self, model, base_system):
        ens = EnsembleSimulation.from_system(
            base_system, model, n_replicas=2,
            temperature=np.float64(300.0), seed=np.int64(7), dt=0.0005,
        )
        assert ens.n_replicas == 2
        assert not np.array_equal(
            ens.systems[0].velocities, ens.systems[1].velocities
        )

    def test_format_neighbors_out_reuse(self, model, base_system):
        from repro.dp.nlist_fmt import format_neighbors

        cfg = model.config
        pi, pj = neighbor_pairs(base_system, cfg.rcut)
        fresh = format_neighbors(base_system, pi, pj, cfg.rcut, cfg.sel)
        reused = format_neighbors(
            base_system, pi, pj, cfg.rcut, cfg.sel, out=fresh
        )
        assert reused is fresh  # same layout object, storage recycled
        again = format_neighbors(base_system, pi, pj, cfg.rcut, cfg.sel)
        assert np.array_equal(reused.nlist, again.nlist)
