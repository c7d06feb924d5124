"""The plan compiler's one pipeline: schedule, liveness, coloring.

Covers :mod:`repro.tfmini.plan` end to end:

- the liveness list-scheduler is deterministic and dependency-correct;
- every compiled plan — water / copper x double / mixed x {R=1 evaluate,
  R=8 stacked evaluate, ``Trainer.step``} — is bitwise identical to the
  ``Session.run`` oracle (``use_plan=False``), colors strictly below the
  FIFO shape-keyed baseline, and performs zero arena allocations once warm;
- the whole zoo matrix verifies clean under P101–P108;
- a steady run executes exactly the records whose values are read (pinned
  counts per zoo plan; trainer plans have nothing to prune);
- the metric dicts (``plan_metrics``, ``InferenceServer.executor_stats``)
  carry exactly the documented keys.
"""

import numpy as np
import pytest

from repro.analysis.plancheck import check_all_plans, plan_metrics
from repro.analysis.structures import fcc_lattice, water_box
from repro.dp.batch import BatchedEvaluator
from repro.dp.data import label_frames
from repro.dp.model import DeepPot
from repro.dp.train import TrainConfig, Trainer
from repro.md.neighbor import neighbor_pairs
from repro.oracles import FlexibleWater, SuttonChenEAM
from repro.tfmini.plan import compile_plan
from repro.zoo import copper_config, water_config

SPECIES = {
    "water": (water_config, lambda: water_box((3, 3, 3), seed=0),
              lambda: FlexibleWater(cutoff=4.0)),
    "copper": (copper_config, lambda: fcc_lattice((3, 3, 3)),
               lambda: SuttonChenEAM(r_on=4.0, cutoff=5.0)),
}


@pytest.fixture(scope="module")
def water():
    model = DeepPot(water_config("double"))
    system = water_box((3, 3, 3), seed=0)
    pairs = neighbor_pairs(system, model.config.rcut)
    return model, system, pairs


def dp_graph(model):
    feeds = (list(model.ph_env)
             + [model.ph_em_deriv, model.ph_rij, model.ph_nlist,
                model.ph_atom_idx, model.ph_natoms])
    fetches = [model._f_forces, model._f_net_deriv] + list(model._f_e_atoms)
    return fetches, feeds


def assert_colored_and_steady(plan, rerun):
    """Coloring beats the FIFO baseline; a warm plan allocates nothing."""
    assert 0 < plan.arena_nbytes() < plan.fifo_arena_nbytes()
    allocs, builds = plan.alloc_count(), plan.stats.arena_builds
    rerun()
    assert plan.alloc_count() == allocs
    assert plan.stats.arena_builds == builds


class TestScheduler:
    def test_deterministic(self, water):
        model, _system, _pairs = water
        fetches, feeds = dp_graph(model)
        p1 = compile_plan(fetches, feeds)
        p2 = compile_plan(fetches, feeds)
        assert [id(r.node) for r in p1._records] == \
            [id(r.node) for r in p2._records]

    def test_dependencies_respected(self, water):
        model, _system, _pairs = water
        fetches, feeds = dp_graph(model)
        plan = compile_plan(fetches, feeds)
        producer_pos = {r.out_slot: i for i, r in enumerate(plan._records)}
        for i, rec in enumerate(plan._records):
            for s in rec.input_slots:
                if s in producer_pos:
                    assert producer_pos[s] < i, (i, rec.op)


class TestBitwiseOracle:
    """Plan vs ``Session.run`` across the zoo: the one correctness suite."""

    @pytest.mark.parametrize("replicas", [1, 8], ids=["r1", "r8-stacked"])
    @pytest.mark.parametrize("precision", ["double", "mixed"])
    @pytest.mark.parametrize("species", list(SPECIES))
    def test_evaluate_vs_session_oracle(self, species, precision, replicas):
        config_fn, system_fn, _oracle_fn = SPECIES[species]
        model = DeepPot(config_fn(precision))
        base = system_fn()
        rng = np.random.default_rng(5)
        systems = []
        for _ in range(replicas):
            s = base.copy()
            s.positions += rng.normal(scale=0.02, size=s.positions.shape)
            systems.append(s)
        pair_lists = [neighbor_pairs(s, model.config.rcut) for s in systems]

        ref = BatchedEvaluator(model, use_plan=False).evaluate_batch(
            systems, pair_lists)
        engine = BatchedEvaluator(model)
        for _ in range(2):  # warm + steady paths both checked
            got = engine.evaluate_batch(systems, pair_lists)
            for a, b in zip(ref, got):
                assert np.array_equal(np.asarray(a.energy),
                                      np.asarray(b.energy))
                assert np.array_equal(a.forces, b.forces)
                assert np.array_equal(np.asarray(a.virial),
                                      np.asarray(b.virial))
        if replicas > 1:
            assert engine.stacked_batches > 0
        assert_colored_and_steady(
            engine.plan, lambda: engine.evaluate_batch(systems, pair_lists))

    @pytest.mark.parametrize("precision", ["double", "mixed"])
    @pytest.mark.parametrize("species", list(SPECIES))
    def test_trainer_step_vs_session_oracle(self, species, precision):
        config_fn, system_fn, oracle_fn = SPECIES[species]

        def run(use_plan):
            model = DeepPot(config_fn(precision))
            dataset = label_frames([system_fn()], oracle_fn())
            dataset.apply_stats(model)
            trainer = Trainer(
                model, dataset, TrainConfig(n_steps=2, log_every=10),
                use_plan=use_plan,
            )
            trainer.train()
            return trainer

        ref = run(False)
        got = run(True)
        assert [r.loss for r in ref.history] == [r.loss for r in got.history]
        for va, vb in zip(ref.model.trainable_variables(),
                          got.model.trainable_variables()):
            assert np.array_equal(va.value, vb.value)
        assert_colored_and_steady(got.plan, got.step)


class TestColoringAllocator:
    def test_zoo_colored_strictly_below_fifo(self):
        """The acceptance bar: coloring beats the FIFO recycler on every
        zoo plan (water/copper x double/mixed x evaluate/train/serving)
        and on the blocked paper-width engine plan, measured on warmed
        arenas, with every plan verifying clean."""
        results = check_all_plans(report=True)
        assert len(results) == 11
        assert [e["metrics"]["blocks_per_evaluation"] for e in results] == \
            [1] * 10 + [6]
        for entry in results:
            assert entry["report"].ok, (
                entry["plan"] + "\n" + entry["report"].summary())
            m = entry["metrics"]
            assert m["arena_nbytes_colored"] < m["arena_nbytes_fifo"], (
                entry["plan"], m)
            assert m["arena_bytes_saved"] == (
                m["arena_nbytes_fifo"] - m["arena_nbytes_colored"])

    def test_metrics_shape(self, water):
        model, system, pairs = water
        engine = BatchedEvaluator(model)
        engine.evaluate_batch([system], [pairs])
        m = plan_metrics(engine.plan)
        assert set(m) == {
            "records", "records_pruned", "blocks_per_evaluation",
            "rows_run", "rows_padded", "arenas", "arena_nbytes_colored",
            "arena_nbytes_fifo", "arena_bytes_saved",
        }
        assert m["records"] == engine.plan.n_records
        assert m["records_pruned"] == engine.plan.n_pruned
        assert m["arenas"] == 1
        # 81 centres x (12 + 24) slots, every section run whole.
        assert m["rows_run"] == m["rows_padded"] == 81 * 36


def assert_runs_exactly_what_is_read(plan):
    """Needed == fetched or value-read by a needed record — so no executed
    record has only shape readers, and nothing that is read is skipped."""
    value_read = set(plan._fetch_slots)
    for rec in plan._records:
        if rec.needed:
            value_read.update(rec.value_slots())
    for rec in plan._records:
        assert rec.needed == (rec.out_slot in value_read), rec.op
    assert plan.n_records + plan.n_pruned == len(plan._records)


class TestNeededRecords:
    """Structure only: nothing here runs a plan."""

    @pytest.mark.parametrize("species,precision,steady,pruned", [
        # 4 per (centre, neighbour) section are the compaction's: the gather
        # of s, the write-back of G, and their backward twins.
        ("copper", "double", 112, 10), ("copper", "mixed", 116, 10),
        ("water", "double", 329, 31), ("water", "mixed", 337, 31),
    ])
    def test_zoo_evaluate_plans(self, species, precision, steady, pruned):
        plan = BatchedEvaluator(DeepPot(SPECIES[species][0](precision))).plan
        assert (plan.n_records, plan.n_pruned) == (steady, pruned)
        assert_runs_exactly_what_is_read(plan)

    @pytest.mark.parametrize("species,records", [("water", 986), ("copper", 352)])
    def test_trainer_plans_prune_nothing(self, species, records):
        config_fn, system_fn, oracle_fn = SPECIES[species]
        model = DeepPot(config_fn("double"))
        dataset = label_frames([system_fn()], oracle_fn())
        dataset.apply_stats(model)
        plan = Trainer(model, dataset, TrainConfig(n_steps=1, log_every=10)).plan
        assert (plan.n_records, plan.n_pruned) == (records, 0)
        assert_runs_exactly_what_is_read(plan)

    def test_fig3_shaped_plan(self):
        """Paper-sized nets (25/50/100 embedding, 240^3 fitting, one type) on
        a small ``sel``: the tape ``md_copper_fig3`` compiles."""
        from repro.dp.model import DPConfig

        plan = BatchedEvaluator(DeepPot(DPConfig(
            type_names=("Cu",), rcut=4.0, rcut_smth=2.0, sel=(12,)))).plan
        assert (plan.n_records, plan.n_pruned) == (112, 10)
        assert_runs_exactly_what_is_read(plan)


class TestServingStats:
    def test_executor_stats_exact_keys(self, water):
        from repro.serving import InferenceServer

        model, system, pairs = water
        server = InferenceServer({"water": model}, autostart=False)
        try:
            server._engines["water"].evaluate_batch([system], [pairs])
            stats = server.executor_stats()["water"]
            assert set(stats) == {
                "topo_sorts", "runs", "arena_builds", "arena_allocs",
                "arena_nbytes", "arena_nbytes_fifo",
            }
            assert stats["arena_nbytes"] < stats["arena_nbytes_fifo"]
        finally:
            server.stop()
