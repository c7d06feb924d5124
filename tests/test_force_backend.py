"""The force seam: shape bucketing, locals-first ghost stacking, identity
staging, plan feed-slot staging, frame validation, and the pinned surface.

The layer's one contract, asserted bitwise throughout: a frame's result
never depends on which other frames it was bucketed/stacked with — the
per-frame ``DeepPot.evaluate`` path (``PerFrameBackend`` behind a driver)
is the retained oracle.
"""

import inspect
from dataclasses import fields

import numpy as np
import pytest

from repro.analysis.structures import fcc_lattice, water_box
from repro.dp import (
    DeepPot,
    DPConfig,
    DeepPotPair,
    ForceBackend,
    ForceFrame,
    frame_bucket_key,
    plan_frame_buckets,
)
from repro.dp.backend import (
    InvalidFrame,
    PerFrameBackend,
    ServingForceBackend,
)
from repro.dp.batch import BatchedEvaluator
from repro.md import EnsembleSimulation, Simulation
from repro.md.neighbor import neighbor_pairs
from repro.md.velocity import boltzmann_velocities
from repro.parallel import DistributedSimulation, SimComm, DomainDecomposition
from repro.serving import InferenceServer


@pytest.fixture(scope="module")
def model():
    return DeepPot(DPConfig.tiny())


@pytest.fixture(scope="module")
def copper_model():
    return DeepPot(DPConfig.tiny(type_names=("Cu",), sel=(24,), rcut=3.5))


@pytest.fixture()
def water_sys():
    return water_box((4, 4, 4), seed=0)


def full_local_frame(system, rcut):
    pi, pj = neighbor_pairs(system, rcut)
    return ForceFrame(system, pi, pj)


def rank_frames(system, model, grid, skin=1.0):
    """Decompose ``system`` and return the per-rank ghost frames."""
    comm = SimComm(int(np.prod(grid)))
    decomp = DomainDecomposition(grid, comm)
    decomp.assign_atoms(system)
    decomp.build_ghost_lists(system.box, model.config.rcut + skin)
    frames = []
    for dom in decomp.domains:
        if dom.n_own == 0:
            continue
        local = dom.local_system(system.box, system.masses, system.type_names)
        pi, pj = neighbor_pairs(local, model.config.rcut, pbc=False)
        frames.append(ForceFrame(local, pi, pj, nloc=dom.n_own, pbc=False))
    return frames


def assert_result_bitwise(a, b):
    assert a.energy == b.energy
    assert np.array_equal(a.forces, b.forces)
    assert np.array_equal(a.virial, b.virial)
    assert np.array_equal(a.atom_energies, b.atom_energies)


class TestBucketPartition:
    def test_equal_keys_share_a_bucket(self, model, water_sys):
        f = full_local_frame(water_sys, model.config.rcut)
        keys = [frame_bucket_key(f.system, f.nloc, f.pbc)] * 3
        assert plan_frame_buckets(keys) == [[0, 1, 2]]

    def test_singletons_coalesce_per_pbc(self):
        keys = [
            (True, 10, 10, b"a", b"t1"),
            (False, 12, 8, b"", b"t2"),
            (True, 20, 20, b"b", b"t3"),
            (False, 14, 9, b"", b"t4"),
        ]
        buckets = plan_frame_buckets(keys)
        # two residual buckets: one per pbc value, deterministic order
        assert sorted(map(sorted, buckets)) == [[0, 2], [1, 3]]

    def test_multi_buckets_come_first_in_appearance_order(self):
        k1 = (True, 10, 10, b"a", b"t")
        k2 = (False, 5, 3, b"", b"u")
        keys = [k2, k1, k2, (True, 7, 7, b"c", b"v"), k1]
        buckets = plan_frame_buckets(keys)
        assert buckets[0] == [0, 2] and buckets[1] == [1, 4]
        assert buckets[2] == [3]

    def test_box_only_keys_pbc_frames(self, water_sys):
        small = water_box((3, 3, 3), seed=1)
        k_open_a = frame_bucket_key(water_sys, None, pbc=False)
        k_open_b = frame_bucket_key(small, None, pbc=False)
        assert k_open_a[3] == b"" and k_open_b[3] == b""
        assert frame_bucket_key(water_sys, None, pbc=True)[3] != b""


class TestGhostStacking:
    """Locals-first stacking: unequal-nloc ghost frames share one lexsort."""

    @pytest.mark.parametrize("grid", [(2, 1, 1), (2, 2, 1), (1, 2, 2)])
    def test_stacked_rank_frames_bitwise_vs_per_rank_oracle(
        self, model, water_sys, grid
    ):
        frames = rank_frames(water_sys.copy(), model, grid)
        nlocs = [f.nloc for f in frames]
        assert len(set((f.system.n_atoms, f.nloc) for f in frames)) > 1 or len(frames) > 1
        engine = BatchedEvaluator(model)
        stacked = engine.evaluate_batch(
            [f.system for f in frames],
            [(f.pair_i, f.pair_j) for f in frames],
            nlocs=nlocs,
            pbc=False,
        )
        assert engine.stacked_batches == 1
        assert engine.ghost_stacked_batches == 1
        for frame, got in zip(frames, stacked):
            oracle = model.evaluate(
                frame.system, frame.pair_i, frame.pair_j,
                nloc=frame.nloc, pbc=False,
            )
            assert_result_bitwise(got, oracle)

    def test_single_ghost_frame_unchanged_vs_pbc_reference(self, model, water_sys):
        """R=1 ghost stacking is the identity relabeling — same physics as
        the PBC evaluation of the global system (existing ghost contract)."""
        frames = rank_frames(water_sys.copy(), model, (2, 1, 1))
        f = frames[0]
        res = model.evaluate(f.system, f.pair_i, f.pair_j, nloc=f.nloc, pbc=False)
        assert res.forces.shape == (f.system.n_atoms, 3)
        assert res.atom_energies.shape == (f.nloc,)

    def test_mixed_nloc_stack_results_independent_of_batch_composition(
        self, model, water_sys
    ):
        """A frame's result must not change when stacked with frames of a
        *different* grid's shapes."""
        frames_a = rank_frames(water_sys.copy(), model, (2, 1, 1))
        frames_b = rank_frames(water_sys.copy(), model, (2, 2, 1))
        engine = BatchedEvaluator(model)
        mixed = frames_a + frames_b
        out = engine.evaluate_frames(mixed)
        solo = [
            model.evaluate(f.system, f.pair_i, f.pair_j, nloc=f.nloc, pbc=False)
            for f in mixed
        ]
        for got, ref in zip(out, solo):
            assert_result_bitwise(got, ref)

    def test_nloc_bounds_validated(self, model, water_sys):
        pi, pj = neighbor_pairs(water_sys, model.config.rcut)
        engine = BatchedEvaluator(model)
        with pytest.raises(ValueError, match="nloc"):
            engine.evaluate_batch(
                [water_sys], [(pi, pj)], nlocs=[water_sys.n_atoms + 1], pbc=False
            )


class TestEvaluateFrames:
    def test_results_in_frame_order(self, model, water_sys):
        frames = rank_frames(water_sys.copy(), model, (2, 1, 1))
        frames.append(full_local_frame(water_box((3, 3, 3), seed=2), model.config.rcut))
        engine = BatchedEvaluator(model)
        out = engine.evaluate_frames(frames)
        assert len(out) == len(frames)
        for f, got in zip(frames, out):
            ref = model.evaluate(f.system, f.pair_i, f.pair_j, nloc=f.nloc, pbc=f.pbc)
            assert_result_bitwise(got, ref)

    def test_one_evaluation_per_bucket(self, model, water_sys):
        sys_b = water_sys.copy()
        frames = [
            full_local_frame(water_sys, model.config.rcut),
            full_local_frame(sys_b, model.config.rcut),
        ] + rank_frames(water_sys.copy(), model, (2, 1, 1))
        engine = BatchedEvaluator(model)
        keys = [frame_bucket_key(f.system, f.nloc, f.pbc) for f in frames]
        buckets = plan_frame_buckets(keys)
        engine.evaluate_frames(frames)
        assert engine.batch_evaluations == len(buckets)
        assert engine.bucket_evaluations == len(buckets)
        assert len(buckets) < len(frames)

    def test_pbc_and_open_frames_never_share_a_run(self, model, water_sys):
        """The partition is the engine's own: a caller cannot hand it a
        bucket that mixes minimum-image and open-boundary frames."""
        f_pbc = full_local_frame(water_sys, model.config.rcut)
        f_open = rank_frames(water_sys.copy(), model, (2, 1, 1))[0]
        engine = BatchedEvaluator(model)
        out = engine.evaluate_frames([f_pbc, f_open])
        assert engine.bucket_evaluations == 2
        for f, got in zip((f_pbc, f_open), out):
            ref = model.evaluate(f.system, f.pair_i, f.pair_j, nloc=f.nloc, pbc=f.pbc)
            assert_result_bitwise(got, ref)


class TestForceBackendCounters:
    def test_partition_describes_the_frames_at_hand(self, model, water_sys):
        """No partition outlives its call: 2-rank frames, then 4-rank frames,
        then a squeezed box through ONE backend — what "never a stale
        partition" used to need a cache protocol for."""
        backend = ForceBackend(model)
        assert (backend.bucket_count, backend.evaluations) == (0, 0)
        frame = full_local_frame(water_sys.copy(), model.config.rcut)
        squeezed = frame.system.copy()
        squeezed.box.lengths[:] = squeezed.box.lengths * 0.999
        squeezed.positions *= 0.999
        populations = [
            rank_frames(water_sys.copy(), model, (2, 1, 1)),
            rank_frames(water_sys.copy(), model, (2, 2, 1)),
            [frame, full_local_frame(squeezed, model.config.rcut)],
        ]
        total = 0
        for frames in populations + populations[:1]:
            expected = len(plan_frame_buckets(
                [frame_bucket_key(f.system, f.nloc, f.pbc) for f in frames]
            ))
            results = backend.evaluate(frames)
            total += expected
            assert backend.bucket_count == expected
            assert backend.evaluations == total
            for f, got in zip(frames, results):
                ref = model.evaluate_serial(
                    f.system, f.pair_i, f.pair_j, nloc=f.nloc, pbc=f.pbc
                )
                assert_result_bitwise(got, ref)
        # The two boxes of the third population shared one general-branch
        # run; everything else stacked.
        assert backend.engine.general_batches == 1

    def test_evaluations_counts_backend_buckets_only(self, model, water_sys):
        """One increment per bucket per evaluate — and immune to unrelated
        traffic on a *shared* engine (the DeepPotPair case)."""
        backend = ForceBackend(model, engine=model.batched)
        frames = rank_frames(water_sys.copy(), model, (2, 1, 1))
        before = backend.evaluations
        backend.evaluate(frames)
        assert backend.evaluations - before == backend.bucket_count
        # Direct model traffic through the same engine must not count.
        pi, pj = neighbor_pairs(water_sys, model.config.rcut)
        model.evaluate(water_sys, pi, pj)
        assert backend.evaluations - before == backend.bucket_count

    def test_session_oracle_engine_is_injected_not_a_kwarg(self, model, water_sys):
        backend = ForceBackend(model, engine=BatchedEvaluator(model, use_plan=False))
        frame = full_local_frame(water_sys, model.config.rcut)
        got = backend.evaluate([frame])[0]
        assert backend.engine._plan is None  # never compiled
        assert_result_bitwise(
            got, model.evaluate_serial(frame.system, frame.pair_i, frame.pair_j)
        )


class TestIdentityStagingAndFeedSlots:
    """The plan's feeds (per-type environment rows) are gathered into
    engine scratch; type-sorted stacks skip the gather copies entirely
    (counter-asserted)."""

    def test_single_type_takes_identity_path(self, copper_model):
        system = fcc_lattice((3, 3, 3))
        pi, pj = neighbor_pairs(system, copper_model.config.rcut)
        engine = BatchedEvaluator(copper_model)
        for _ in range(3):
            engine.evaluate_batch([system], [(pi, pj)])
        assert engine.stage_identity == 3
        assert engine.stage_gathers == 0
        # No gather destination was ever needed — the per-step gather copy
        # of em/ed/rij/nlist is gone: scratch holds no sorted twin of a
        # staging buffer.
        assert not set(engine.scratch._arrays) & {
            "em_t0", "ed_sorted", "rij_sorted", "nlist_sorted", "atom_idx"
        }

    def test_identity_path_bitwise_vs_session_oracle(self, copper_model):
        system = fcc_lattice((3, 3, 3))
        pi, pj = neighbor_pairs(system, copper_model.config.rcut)
        fast = copper_model.evaluate(system, pi, pj)
        oracle = copper_model.evaluate_serial(system, pi, pj)
        assert_result_bitwise(fast, oracle)

    def test_water_feeds_gathered_into_scratch(self, model, water_sys):
        engine = BatchedEvaluator(model)
        pi, pj = neighbor_pairs(water_sys, model.config.rcut)
        engine.evaluate_batch([water_sys], [(pi, pj)])
        plan = engine.plan
        runs0 = plan.stats.runs
        scratch_allocs = engine.scratch.alloc_count
        for _ in range(4):
            engine.evaluate_batch([water_sys], [(pi, pj)])
        # Steady state: every plan feed (one em block per type) and the
        # gathered geometry tensors of the out-of-plan force/virial
        # assembly have their one scratch buffer; no new ones appear.
        assert plan.stats.runs - runs0 == 4
        assert {f"em_t{t}" for t in range(model.config.n_types)} | {
            "ed_sorted", "rij_sorted", "nlist_sorted", "atom_idx"
        } <= set(engine.scratch._arrays)
        assert engine.scratch.alloc_count == scratch_allocs
        assert engine.stage_gathers == 5

    def test_oracle_path_uses_scratch_not_plan(self, model, water_sys):
        engine = BatchedEvaluator(model, use_plan=False)
        pi, pj = neighbor_pairs(water_sys, model.config.rcut)
        res = engine.evaluate_batch([water_sys], [(pi, pj)])[0]
        assert engine._plan is None  # never compiled
        ref = model.evaluate_serial(water_sys, pi, pj)
        assert_result_bitwise(res, ref)

    def test_scratch_and_fmt_caches_bounded_under_rebuild_churn(self, model):
        """Migration-heavy runs re-shape the stacked staging buffers on
        every reneighboring: scratch holds one buffer per name (here the
        first, largest shape's) and the layout cache stays bounded (FIFO)."""
        engine = BatchedEvaluator(model)
        engine.max_fmt_layouts = 4
        base = water_box((3, 3, 3), seed=0)
        rng = np.random.default_rng(0)
        for k in range(8):
            # Vary the atom count so every shape key is fresh (the ghost
            # split drifts like this on real migrations).
            sys_k = base.copy()
            keep = rng.permutation(base.n_atoms)[: base.n_atoms - 2 * k]
            sys_k.positions = sys_k.positions[np.sort(keep)]
            sys_k.types = sys_k.types[np.sort(keep)]
            pi, pj = neighbor_pairs(sys_k, model.config.rcut)
            res = engine.evaluate_batch([sys_k], [(pi, pj)])[0]
            ref = model.evaluate_serial(sys_k, pi, pj)
            assert_result_bitwise(res, ref)
            if k == 0:
                warmed = engine.scratch.alloc_count
        assert engine.scratch.alloc_count == warmed  # later shapes are smaller
        assert len(engine._fmts) <= engine.max_fmt_layouts
        assert engine.fmt_evictions > 0


class TestDriversShareTheSeam:
    def test_pair_style_routes_through_backend(self, model, water_sys):
        pair = DeepPotPair(model)
        assert pair.model is model and pair.cutoff == model.config.rcut
        assert pair.force_backend.engine is model.batched
        pi, pj = neighbor_pairs(water_sys, model.config.rcut)
        before = pair.force_backend.engine.bucket_evaluations
        res = pair.compute(water_sys, pi, pj)
        assert pair.force_backend.engine.bucket_evaluations == before + 1
        assert pair.force_backend.bucket_count == 1
        assert_result_bitwise(res, model.evaluate_serial(water_sys, pi, pj))

    def test_backend_buckets_mixed_boxes(self, model, water_sys):
        """Two PBC frames with different boxes: one residual bucket, the
        general staging branch, each result bitwise its frame alone."""
        backend = DeepPotPair(model).force_backend
        small = water_box((3, 3, 3), seed=3)
        frames = [full_local_frame(s, model.config.rcut) for s in (water_sys, small)]
        general = backend.engine.general_batches
        out = backend.evaluate(frames)
        assert backend.bucket_count == 1
        assert backend.engine.general_batches == general + 1
        for f, got in zip(frames, out):
            assert_result_bitwise(
                got, model.evaluate_serial(f.system, f.pair_i, f.pair_j)
            )

    def test_distributed_bucketed_matches_per_rank_oracle(self, model, water_sys):
        """The production backend vs the seam's reference implementation,
        bitwise over 8 steps with rebuilds (and migrations) in between."""
        boltzmann_velocities(water_sys, 250.0, seed=2)
        kw = dict(grid=(2, 2, 1), dt=0.0005, skin=1.0, rebuild_every=4,
                  thermo_every=2)
        a = DistributedSimulation(water_sys.copy(), model, **kw)
        b = DistributedSimulation(
            water_sys.copy(), model, force_backend=PerFrameBackend(model), **kw
        )
        assert isinstance(a.force_backend, ForceBackend)
        a.run(8)
        b.run(8)
        assert a._last_rebuild == b._last_rebuild == 8  # rebuilt at 4 and 8
        ga, gb = a.current_system(), b.current_system()
        assert np.array_equal(ga.positions, gb.positions)
        assert np.array_equal(ga.velocities, gb.velocities)
        assert np.array_equal(a.forces_now(), b.forces_now())
        assert len(a.thermo) == 5 and a.thermo == b.thermo
        assert a.force_backend.evaluations == 9 * a.force_backend.bucket_count


@pytest.mark.filterwarnings("ignore:invalid value encountered")
class TestInvalidFrames:
    """ROADMAP 4(a), the MD half: a frame that cannot be evaluated honestly
    is a typed error at the seam, never finite-looking wrong physics."""

    def _nan(s):
        s.positions[0, 1] = np.nan

    def _inf(s):
        s.positions[0, 1] = np.inf

    def _flat_box(s):
        s.box.lengths[2] = 0.0

    def _negative_type(s):
        # -1 is the id that stays silent upstream: ``masses[-1]`` is legal
        # numpy, so System and the integrators accept it.
        s.types[0] = -1

    # kind -> (poison a System-like in place, what the error says)
    BAD = {
        "nan position": (_nan, "non-finite positions"),
        "inf position": (_inf, "non-finite positions"),
        "non-positive box": (_flat_box, "box lengths"),
        "out-of-range type": (_negative_type, r"type ids outside \[0, 2\)"),
    }

    def test_silent_wrong_physics_reproduction(self, model):
        """The parent's behaviour, kept as the reason for the check: with a
        NaN coordinate the engine returns all-finite forces for a frame in
        which the atom has silently lost its neighbours."""
        system = water_box((3, 3, 3), seed=0)
        pi, pj = neighbor_pairs(system, model.config.rcut)
        clean = model.evaluate(system, pi, pj)
        system.positions[5, 1] = np.nan
        wrong = model.evaluate(system, pi, pj)  # below the seam: no check
        assert np.isfinite(wrong.forces).all() and np.isfinite(wrong.energy)
        assert wrong.energy != clean.energy
        with pytest.raises(InvalidFrame, match="frame 0 of 1: non-finite"):
            DeepPotPair(model).compute(system, pi, pj)

    def test_invalid_frame_is_the_serving_class(self):
        import repro.serving

        assert repro.serving.InvalidFrame is InvalidFrame
        assert issubclass(InvalidFrame, ValueError)

    @pytest.mark.parametrize("kind", sorted(BAD))
    def test_simulation_refuses(self, model, water_sys, kind):
        poison, message = self.BAD[kind]
        sim = Simulation(water_sys, DeepPotPair(model), dt=0.0005)
        sim.run(1)
        backend = sim.potential.force_backend
        evals = backend.evaluations
        poison(sim.system)
        with pytest.raises(InvalidFrame, match="frame 0 of 1: " + message):
            sim._evaluate()  # the seam call of a step, neighbour list as built
        assert backend.evaluations == evals

    @pytest.mark.parametrize("kind", sorted(BAD))
    def test_ensemble_names_the_replica_and_evaluates_nobody(self, model, kind):
        poison, message = self.BAD[kind]
        ens = EnsembleSimulation.from_system(
            water_box((3, 3, 3), seed=0), model, n_replicas=3, seed=4,
            dt=0.0005,
        )
        ens.run(1)
        backend, engine = ens.force_backend, ens.engine
        evals, frames = backend.evaluations, engine.frames_evaluated
        poison(ens.systems[1])
        with pytest.raises(InvalidFrame, match="frame 1 of 3: " + message):
            ens._evaluate()
        # Nothing was staged: the two healthy batch-mates did not run.
        assert (backend.evaluations, engine.frames_evaluated) == (evals, frames)

    @pytest.mark.parametrize("kind", sorted(set(BAD) - {"non-positive box"}))
    def test_distributed_refuses(self, model, water_sys, kind):
        """(A non-positive box never gets this far here: every rank frame
        copies the box, and ``Box`` refuses it.)"""
        poison, message = self.BAD[kind]
        sim = DistributedSimulation(water_sys, model, grid=(2, 1, 1), skin=1.0)
        evals = sim.force_backend.evaluations
        poison(sim.decomp.domains[1])  # a domain duck-types positions/types
        with pytest.raises(InvalidFrame, match="frame 1 of 2: " + message):
            sim._compute_forces()
        assert sim.force_backend.evaluations == evals

    def test_a_nan_reaches_the_seam_through_run(self, model, water_sys):
        """Through the public loop of all three drivers: the NaN survives
        the kick and the rebuild check (every comparison with it is False)
        and stops at the seam instead of becoming a trajectory."""
        drivers = [
            Simulation(water_sys.copy(), DeepPotPair(model), dt=0.0005),
            EnsembleSimulation.from_system(
                water_box((3, 3, 3), seed=0), model, n_replicas=2, dt=0.0005
            ),
        ]
        for sim in drivers:
            sim.run(1)
        drivers[0].system.positions[5, 1] = np.nan
        drivers[1].systems[1].positions[5, 1] = np.nan
        dist = DistributedSimulation(water_sys.copy(), model, grid=(2, 1, 1), skin=1.0)
        dist.decomp.domains[0].positions[0, 0] = np.nan
        for sim, where in zip(drivers + [dist], ("0 of 1", "1 of 2", "0 of 2")):
            with pytest.raises(InvalidFrame, match=f"frame {where}: non-finite"):
                sim.run(1)


class TestPinnedSurface:
    """One way into the engine: the exact parameter lists, so a knob cannot
    come back unnoticed (this test fails at the parent commit)."""

    @staticmethod
    def params(fn):
        return list(inspect.signature(fn).parameters)

    def test_signatures(self):
        p = self.params
        assert p(DeepPot.evaluate) == [
            "self", "system", "pair_i", "pair_j", "nloc", "pbc"]
        assert not hasattr(DeepPot, "evaluate_batch")  # engines batch
        assert p(BatchedEvaluator.evaluate_batch) == [
            "self", "systems", "pair_lists", "nlocs", "pbc"]
        assert p(BatchedEvaluator.evaluate_frames) == ["self", "frames"]
        assert p(ForceBackend.__init__) == ["self", "model", "engine"]
        assert p(PerFrameBackend.__init__) == ["self", "model"]
        assert p(DeepPotPair) == ["model"]
        assert p(EnsembleSimulation.__init__) == [
            "self", "systems", "model", "dt", "integrators", "neighbors",
            "thermo_every", "force_backend", "cutoff"]
        assert p(InferenceServer.__init__) == [
            "self", "models", "max_batch", "max_wait_us", "max_queue",
            "autostart", "max_per_client", "faults", "max_respawns"]
        assert [f.name for f in fields(DistributedSimulation)] == [
            "system", "model", "grid", "dt", "skin", "rebuild_every",
            "thermo_every", "use_iallreduce", "force_backend"]

    def test_the_string_survives_only_on_the_reference_path(self):
        for fn in (DeepPot.prepare_feeds, DeepPot.evaluate_serial):
            assert "backend" in self.params(fn)

    @pytest.mark.parametrize(
        "seam", [ForceBackend, ServingForceBackend, PerFrameBackend]
    )
    def test_the_seam_is_one_method(self, seam):
        assert callable(seam.evaluate)
        assert self.params(seam.evaluate) == ["self", "frames"]
        assert not hasattr(seam, "invalidate_buckets")
        public = {n for n, v in vars(seam).items()
                  if callable(v) and not n.startswith("_")}
        assert public == {"evaluate"}
