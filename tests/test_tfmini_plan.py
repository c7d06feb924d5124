"""Compiled execution plans vs the ``Session.run`` oracle.

The contract under test (see :mod:`repro.tfmini.plan`):

* plan results are **bitwise identical** to ``Session.run`` — across the
  model zoo (water/copper x double/single network precision), fused and
  unfused graphs, R>1 batched evaluation, and a full Adam training step;
* the fixed costs are really gone — one ``topo_sort`` per compiled plan,
  zero arena allocations once a feed-shape signature is warm;
* a feed shape change re-plans automatically, and previously seen shapes
  keep their warm arenas;
* profiling through a plan produces the same ``OpStats`` call/FLOP/byte
  counters as the instrumented ``Session.run`` (Fig-3 parity) — in a steady
  run minus exactly the shape probes, which it does not execute;
* random small graphs (hypothesis) through ``tf.grad`` and the fusion
  passes stay bitwise warm and steady while alternating two feed shapes.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.tfmini as tf
from repro.tfmini import graph
from repro.tfmini.ops import register_op
from repro.analysis.structures import fcc_lattice, water_box
from repro.dp.batch import BatchedEvaluator
from repro.dp.model import DeepPot, DPConfig
from repro.dp.train import TrainConfig, Trainer
from repro.md.neighbor import neighbor_pairs


def assert_results_equal(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(np.asarray(x), np.asarray(y))


# ---------------------------------------------------------------------------
# synthetic graphs: fused vs unfused, replan, liveness, fallback
# ---------------------------------------------------------------------------


def _mlp_fetches(optimize: bool):
    """A matmul+bias+tanh block with gradients — hits the fusion passes."""
    rng = np.random.default_rng(7)
    x = tf.placeholder("x")
    w1 = tf.variable(rng.normal(size=(6, 8)), name="w1")
    b1 = tf.variable(rng.normal(size=(8,)), name="b1")
    w2 = tf.variable(rng.normal(size=(8, 1)), name="w2")
    h = tf.tanh(tf.add(tf.matmul(x, w1), b1))
    h = tf.concat(h, h, axis=-1)  # skip connection shape -> concat_sum pass
    hh = tf.add(h, tf.concat(tf.tanh(b1), tf.tanh(b1), axis=-1))
    y = tf.reduce_sum(tf.matmul(tf.slice_cols(hh, 0, 8), w2))
    grads = tf.grad(y, [w1, b1, w2])
    fetches = [y] + grads
    if optimize:
        fetches = tf.optimize_graph(fetches)
    return fetches, x


class TestSyntheticGraphs:
    @pytest.mark.parametrize("optimize", [False, True])
    def test_bitwise_vs_session_fused_and_unfused(self, optimize):
        fetches, x = _mlp_fetches(optimize)
        feeds = {x: np.random.default_rng(3).normal(size=(10, 6))}
        sess = tf.Session()
        plan = tf.compile_plan(fetches, [x])
        assert_results_equal(sess.run(fetches, feeds), plan.run(feeds))
        # steady-state run (arena-backed) must match too
        assert_results_equal(sess.run(fetches, feeds), plan.run(feeds))

    def test_fused_graph_executes_tanh_fused_records(self):
        fetches, x = _mlp_fetches(True)
        ops = {n.op for n in graph.topo_sort(fetches)}
        assert "tanh_fused" in ops and "gemm" in ops  # passes actually fired

    def test_one_topo_sort_per_plan(self):
        fetches, x = _mlp_fetches(True)
        feeds = {x: np.random.default_rng(0).normal(size=(4, 6))}
        before = graph.TOPO_SORT_CALLS
        plan = tf.compile_plan(fetches, [x])
        assert graph.TOPO_SORT_CALLS == before + 1
        for _ in range(5):
            plan.run(feeds)
        assert graph.TOPO_SORT_CALLS == before + 1
        assert plan.stats.topo_sorts == 1

    def test_zero_arena_allocations_after_warmup(self):
        fetches, x = _mlp_fetches(True)
        feeds = {x: np.random.default_rng(0).normal(size=(4, 6))}
        plan = tf.compile_plan(fetches, [x])
        plan.run(feeds)  # warm
        allocs = plan.alloc_count()
        assert allocs > 0
        for _ in range(10):
            plan.run(feeds)
        assert plan.alloc_count() == allocs

    def test_liveness_recycles_dead_slots(self):
        # A long chain of same-shape elementwise ops: with recycling the
        # arena needs far fewer buffers than the tape has records.
        x = tf.placeholder("x")
        node = x
        for _ in range(20):
            node = tf.tanh(tf.add(node, node))
        plan = tf.compile_plan(node, [x])
        out = plan.run({x: np.ones(5)})
        ref = tf.Session().run(node, {x: np.ones(5)})
        assert np.array_equal(out, ref)
        assert plan.n_records == 40
        # the fetch keeps one buffer pinned; the rest ping-pong
        assert plan.alloc_count() <= 4

    def test_shape_change_replans_and_keeps_warm_arenas(self):
        fetches, x = _mlp_fetches(False)
        sess = tf.Session()
        plan = tf.compile_plan(fetches, [x])
        fa = {x: np.random.default_rng(1).normal(size=(4, 6))}
        fb = {x: np.random.default_rng(2).normal(size=(9, 6))}
        assert_results_equal(sess.run(fetches, fa), plan.run(fa))
        assert_results_equal(sess.run(fetches, fb), plan.run(fb))
        assert plan.stats.arena_builds == 2
        allocs = plan.alloc_count()
        # revisiting either shape allocates nothing and stays bitwise right
        assert_results_equal(sess.run(fetches, fa), plan.run(fa))
        assert_results_equal(sess.run(fetches, fb), plan.run(fb))
        assert plan.stats.arena_builds == 2
        assert plan.alloc_count() == allocs

    def test_release_arenas_rewarns_and_stays_bitwise(self):
        fetches, x = _mlp_fetches(True)
        feeds = {x: np.random.default_rng(4).normal(size=(5, 6))}
        ref = tf.Session().run(fetches, feeds)
        plan = tf.compile_plan(fetches, [x])
        plan.run(feeds)
        assert plan.alloc_count() > 0
        plan.release_arenas()
        assert plan.alloc_count() == 0
        assert_results_equal(ref, plan.run(feeds))  # warm again
        assert_results_equal(ref, plan.run(feeds))  # steady again
        assert plan.alloc_count() > 0
        assert plan.stats.topo_sorts == 1  # release never recompiles

    def test_engine_release_buffers(self):
        model = DeepPot(DPConfig.tiny(sel=(8, 16), rcut=3.0))
        system = water_box((2, 2, 2), seed=2)
        pi, pj = neighbor_pairs(system, model.config.rcut)
        engine = BatchedEvaluator(model)
        ref = engine.evaluate_batch([system], [(pi, pj)])[0]
        engine.release_buffers()
        assert engine.plan.alloc_count() == 0
        res = engine.evaluate_batch([system], [(pi, pj)])[0]
        assert res.energy == ref.energy
        assert np.array_equal(res.forces, ref.forces)

    def test_arena_cap_evicts_fifo_and_stays_correct(self, monkeypatch):
        import repro.tfmini.plan as plan_mod

        monkeypatch.setattr(plan_mod, "_MAX_LAYOUTS", 2)
        x = tf.placeholder("x")
        node = tf.tanh(x)
        plan = tf.compile_plan(node, [x])
        sess = tf.Session()
        feeds = [{x: np.random.default_rng(k).normal(size=(k + 1,))} for k in range(4)]
        for f in feeds:  # 4 signatures through a 2-layout table
            assert np.array_equal(plan.run(f), sess.run(node, f))
        assert len(plan.arenas) == 2
        assert plan.stats.arena_evictions == 2
        # the pool is the largest layout *held*, whatever came before
        assert plan.arena_nbytes() == max(
            a.alloc_bytes for a in plan.arenas.values())
        # an evicted signature re-warms and is still bitwise right
        assert np.array_equal(plan.run(feeds[0]), sess.run(node, feeds[0]))
        assert plan.stats.arena_builds == 5

    def test_wrong_feed_count_raises(self):
        x, y = tf.placeholder("x"), tf.placeholder("y")
        plan = tf.compile_plan(tf.add(x, y), [x, y])
        plan.run({x: np.ones(2), y: np.ones(2)})
        with pytest.raises(ValueError, match="expects 2 feed values"):
            plan.run_list([np.ones(2)])

    def test_register_out_kernel_upgrades_op_to_arena_mode(self):
        # The extension hook for third-party ops: attaching an out= kernel
        # after registration moves plans compiled afterwards from the copy
        # fallback to destination-passing execution, bitwise unchanged.
        from repro.tfmini.ops import register_out_kernel

        register_op("plan_test_double", lambda inputs, attrs: inputs[0] * 2.0)
        x = tf.placeholder("x")
        node = graph.Node("plan_test_double", (x,))
        feeds = {x: np.arange(5.0)}
        ref = tf.Session().run(node, feeds)

        register_out_kernel(
            "plan_test_double",
            lambda inputs, attrs, out: np.multiply(inputs[0], 2.0, out=out),
        )
        plan = tf.compile_plan(node, [x], copy_fetches=False)
        plan.run(feeds)
        out1, out2 = plan.run(feeds), plan.run(feeds)
        assert np.array_equal(out1, ref)
        assert out1 is out2  # OUT mode: stable arena buffer

    def test_view_of_registration_affects_later_plans(self):
        # The extension hook for third-party view ops: declared with
        # ``view_of`` the op stays zero-copy under plans compiled afterwards
        # (undeclared, it pays the copy fallback, which is alias-safe).
        def first_half(inputs, attrs):
            return inputs[0][: len(inputs[0]) // 2]

        x = tf.placeholder("x")
        node = tf.tanh(graph.Node("plan_test_first_half", (x,)))
        feeds = {x: np.linspace(0, 1, 8)}
        ref = np.tanh(feeds[x][:4])

        register_op("plan_test_first_half", first_half)
        copying = tf.compile_plan(node, [x])
        register_op("plan_test_first_half", first_half, view_of=0)
        viewing = tf.compile_plan(node, [x])
        for plan in (copying, viewing):
            plan.run(feeds)
            assert np.array_equal(plan.run(feeds), ref)
        assert copying.alloc_count() == 2  # already compiled: keeps its tape
        # view records own no arena buffer: only tanh allocated
        assert viewing.alloc_count() == 1

    def test_missing_placeholder_raises_at_compile(self):
        x = tf.placeholder("x")
        y = tf.placeholder("y")
        with pytest.raises(KeyError, match="placeholder 'y'"):
            tf.compile_plan(tf.add(x, y), [x])

    def test_missing_feed_value_raises_at_run(self):
        x = tf.placeholder("x")
        plan = tf.compile_plan(tf.tanh(x), [x])
        with pytest.raises(KeyError, match="missing from feeds"):
            plan.run({})

    def test_variable_updates_are_visible(self):
        # Plans re-read Variable.value every run (TF1 semantics: optimizers
        # assign in place between steps).
        v = tf.variable(np.ones(3), name="v")
        x = tf.placeholder("x")
        node = tf.mul(v, x)
        plan = tf.compile_plan(node, [x])
        feeds = {x: np.full(3, 2.0)}
        assert np.array_equal(plan.run(feeds), np.full(3, 2.0))
        v.assign(np.full(3, 5.0))
        assert np.array_equal(plan.run(feeds), np.full(3, 10.0))

    def test_copy_fallback_for_ops_without_out_kernel(self):
        # An op registered with no forward_out executes under plans via the
        # allocate-and-copy-into-slot fallback: results match the oracle and
        # the slot's storage is the same stable buffer on every steady run.
        register_op("plan_test_cube", lambda inputs, attrs: inputs[0] ** 3)
        x = tf.placeholder("x")
        node = graph.Node("plan_test_cube", (x,))
        plan = tf.compile_plan(node, [x], copy_fetches=False)
        feeds = {x: np.arange(4.0)}
        ref = tf.Session().run(node, feeds)
        plan.run(feeds)  # warm run returns the plain kernel's fresh array
        out1 = plan.run(feeds)
        out2 = plan.run(feeds)
        assert np.array_equal(out1, ref)
        assert out1 is out2  # stable arena slot, not a fresh allocation

    def test_copy_fetches_decouples_results_from_arena(self):
        x = tf.placeholder("x")
        node = tf.tanh(x)
        plan = tf.compile_plan(node, [x], copy_fetches=True)
        plan.run({x: np.zeros(3)})
        a = plan.run({x: np.zeros(3)})
        b = plan.run({x: np.ones(3)})
        assert np.array_equal(a, np.tanh(np.zeros(3)))  # not clobbered by b
        assert np.array_equal(b, np.tanh(np.ones(3)))


def assert_steady_stats_are_session_minus_probes(plan, steady, ref, outside=(),
                                                 inside=()):
    """A profiled steady run records what ``Session.run`` records, minus
    exactly the shape probes (records whose values nothing reads) and the
    ``outside`` ops the reference graph runs but the plan's fetches omit,
    plus the ``inside`` ops only the plan's graph holds."""
    probes = Counter(r.op for r in plan._records if not r.needed)
    assert sum(probes.values()) == plan.n_pruned > 0
    assert +Counter(steady.calls) == (
        Counter(ref.calls) - probes - Counter(outside) + Counter(inside))
    for op in set(ref.calls) - set(probes) - set(outside):
        assert steady.flops[op] == ref.flops[op]
        assert steady.bytes[op] == ref.bytes[op]


class TestProfilingParity:
    def test_opstats_parity_with_session(self):
        fetches, x = _mlp_fetches(True)
        feeds = {x: np.random.default_rng(5).normal(size=(6, 6))}
        s_ref = tf.Session(profile=True)
        s_ref.run(fetches, feeds)

        plan = tf.compile_plan(fetches, [x])
        s_warm = tf.Session(profile=True)
        plan.run(feeds, session=s_warm)  # warm: every record, plain kernels
        s_steady = tf.Session(profile=True)
        plan.run(feeds, session=s_steady)  # steady: needed records only

        assert dict(s_warm.stats.calls) == dict(s_ref.stats.calls)
        assert dict(s_warm.stats.flops) == dict(s_ref.stats.flops)
        assert dict(s_warm.stats.bytes) == dict(s_ref.stats.bytes)
        assert_steady_stats_are_session_minus_probes(
            plan, s_steady.stats, s_ref.stats)

    def test_unprofiled_plan_records_nothing(self):
        fetches, x = _mlp_fetches(False)
        plan = tf.compile_plan(fetches, [x])
        sess = tf.Session(profile=False)
        plan.run({x: np.ones((2, 6))}, session=sess)
        assert sess.stats.total_seconds() == 0.0


# ---------------------------------------------------------------------------
# random graphs: grad + fusion passes leave shape probes and views behind
# ---------------------------------------------------------------------------

_STEPS = ("dense", "skip", "tanh", "bias", "reshape", "slice")


def _random_graph(steps, seed):
    """A chain over ``x: (n, 3)`` built from the vocabulary the DP nets use
    (rank-1 bias ``add``, ``matmul``, self-``concat`` skip, ``tanh``,
    ``reshape``, ``slice_axis``), differentiated and graph-optimized — the
    backward graph keeps pre-fusion forward nodes alive as ``like`` inputs."""
    rng = np.random.default_rng(seed)
    x = tf.placeholder("x")
    params = []

    def var(*shape):
        params.append(tf.variable(rng.normal(size=shape)))
        return params[-1]

    h, k = x, 3
    for step in steps:
        if step == "dense":
            k_out = int(rng.integers(1, 5))
            h = tf.tanh(tf.add(tf.matmul(h, var(k, k_out)), var(k_out)))
            k = k_out
        elif step == "skip" and k <= 6:
            y = tf.tanh(tf.matmul(h, var(k, 2 * k)))
            h = tf.add(tf.concat(h, h, axis=-1), y)
            k = 2 * k
        elif step == "tanh":
            h = tf.tanh(h)
        elif step == "bias":
            h = tf.add(h, var(k))
        elif step == "reshape":
            h = tf.reshape(tf.reshape(h, (-1,)), (-1, k))
        elif step == "slice" and k > 1:
            start = int(rng.integers(0, k - 1))
            stop = int(rng.integers(start + 1, k + 1))
            h = tf.slice_axis(h, 1, start, stop)
            k = stop - start
    y = tf.reduce_sum(tf.square(h))
    fetches = [y] + tf.grad(y, [x] + params)
    return tf.optimize_graph(fetches), x


class TestRandomGraphs:
    @given(
        steps=st.lists(st.sampled_from(_STEPS), min_size=1, max_size=6),
        seed=st.integers(0, 10**6),
        rows=st.tuples(st.integers(1, 7), st.integers(1, 7)),
    )
    @settings(max_examples=40, deadline=None)
    def test_warm_and_steady_bitwise_over_two_feed_shapes(self, steps, seed, rows):
        fetches, x = _random_graph(steps, seed)
        plan = tf.compile_plan(fetches, [x], verify=True)
        sess = tf.Session()
        rng = np.random.default_rng(seed + 1)
        # warm, warm, then two steady runs each, re-installing the other
        # signature's probe stand-ins every time
        for n in rows * 3:
            feeds = {x: rng.normal(size=(n, 3))}
            for got, want in zip(plan.run(feeds), sess.run(fetches, feeds)):
                got, want = np.asarray(got), np.asarray(want)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# DP models: zoo x precision, batched evaluation, training step
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def zoo_models():
    """water/copper x double/single — single via the Sec 5.2.3 fp32 clone."""
    from repro.zoo import as_mixed_precision, get_copper_model, get_water_model

    water = get_water_model()
    copper = get_copper_model()
    return {
        ("water", "double"): water,
        ("water", "single"): as_mixed_precision(water),
        ("copper", "double"): copper,
        ("copper", "single"): as_mixed_precision(copper),
    }


@pytest.fixture(scope="module")
def zoo_systems():
    # box edges must exceed 2x the zoo cutoffs (4 A water, 5 A copper)
    return {"water": water_box((3, 3, 3), seed=3), "copper": fcc_lattice((3, 3, 3))}


class TestDeepPotPlans:
    @pytest.mark.parametrize("name", ["water", "copper"])
    @pytest.mark.parametrize("precision", ["double", "single"])
    def test_zoo_bitwise_vs_session_oracle(self, zoo_models, zoo_systems, name, precision):
        """DeepPot.evaluate (compiled plan) == the same engine on Session.run."""
        model = zoo_models[(name, precision)]
        system = zoo_systems[name]
        pi, pj = neighbor_pairs(system, model.config.rcut)
        res_plan = model.evaluate(system, pi, pj)
        oracle = BatchedEvaluator(model, use_plan=False)
        res_sess = oracle.evaluate_batch([system], [(pi, pj)])[0]
        assert res_plan.energy == res_sess.energy
        assert np.array_equal(res_plan.forces, res_sess.forces)
        assert np.array_equal(res_plan.virial, res_sess.virial)
        assert np.array_equal(res_plan.atom_energies, res_sess.atom_energies)
        # ... and the serial single-frame oracle agrees too (R=1 contract)
        res_serial = model.evaluate_serial(system, pi, pj)
        assert res_plan.energy == res_serial.energy
        assert np.array_equal(res_plan.forces, res_serial.forces)

    @pytest.mark.parametrize("name", ["water", "copper"])
    def test_batched_r3_bitwise_vs_session_oracle(self, zoo_models, zoo_systems, name):
        """R>1 planned batches == the identical batch through Session.run."""
        model = zoo_models[(name, "double")]
        base = zoo_systems[name]
        systems = []
        for k in range(3):
            s = base.copy()
            rng = np.random.default_rng(50 + k)
            s.positions = s.positions + rng.normal(scale=0.02, size=s.positions.shape)
            systems.append(s)
        pls = [neighbor_pairs(s, model.config.rcut) for s in systems]
        planned = BatchedEvaluator(model).evaluate_batch(systems, pls)
        oracle = BatchedEvaluator(model, use_plan=False).evaluate_batch(systems, pls)
        for p, o in zip(planned, oracle):
            assert p.energy == o.energy
            assert np.array_equal(p.forces, o.forces)
            assert np.array_equal(p.virial, o.virial)
            assert np.array_equal(p.atom_energies, o.atom_energies)

    def test_engine_plan_counters(self, zoo_models, zoo_systems):
        model = zoo_models[("water", "double")]
        system = zoo_systems["water"]
        pi, pj = neighbor_pairs(system, model.config.rcut)
        engine = BatchedEvaluator(model)
        before = graph.TOPO_SORT_CALLS
        engine.evaluate_batch([system], [(pi, pj)])  # compile + warm
        assert graph.TOPO_SORT_CALLS == before + 1
        allocs = engine.plan.alloc_count()
        for _ in range(3):
            engine.evaluate_batch([system], [(pi, pj)])
        assert graph.TOPO_SORT_CALLS == before + 1  # no per-run topo_sort
        assert engine.plan.alloc_count() == allocs  # no steady-state allocs
        assert engine.plan.stats.runs == 4

    def test_profiled_evaluate_matches_session_oracle_counts(
        self, zoo_models, zoo_systems
    ):
        """Fig-3 instrumentation parity on the real DP graph."""
        model = zoo_models[("water", "double")]
        system = zoo_systems["water"]
        pi, pj = neighbor_pairs(system, model.config.rcut)
        planned = BatchedEvaluator(model)
        oracle = BatchedEvaluator(model, use_plan=False)
        planned.evaluate_batch([system], [(pi, pj)])  # warm outside profiling
        stats = {}
        real_session = model.session
        try:
            for key, engine in (("plan", planned), ("sess", oracle)):
                model.session = tf.Session(profile=True)
                engine.evaluate_batch([system], [(pi, pj)])
                stats[key] = model.session.stats
        finally:
            model.session = real_session
        # The oracle engine keeps ProdForce (and the concat of the per-type
        # dE/dR~ blocks it reads) in its graph; the planned engine
        # assembles forces outside the tape, and its graph is the compacted
        # one: per section (2 x 2) a gather of s and of dE/dG, the write-back
        # of G and of dE/ds.  Zoo-width sections run whole, so every op the
        # two graphs share does the same FLOPs on the same bytes.
        assert_steady_stats_are_session_minus_probes(
            planned.plan, stats["plan"], stats["sess"],
            outside=["prod_force", "concat"],
            inside={"take_rows": 8, "expand_rows": 4, "scatter_rows": 4})


class TestTrainingStepPlans:
    @pytest.fixture(scope="class")
    def dataset(self):
        from repro.zoo import build_water_dataset

        return build_water_dataset(n_frames=4, seed=11)

    def test_adam_step_bitwise_vs_session_oracle(self, dataset):
        """One full Adam step through the plan == through Session.run:
        same loss, and every updated parameter bitwise identical."""
        cfg = DPConfig.tiny(rcut=4.0)
        tcfg = TrainConfig(n_steps=4, seed=5)
        m_plan = DeepPot(cfg, rng=np.random.default_rng(9))
        m_sess = DeepPot(cfg, rng=np.random.default_rng(9))
        dataset.apply_stats(m_plan)
        dataset.apply_stats(m_sess)
        t_plan = Trainer(m_plan, dataset, tcfg)
        t_sess = Trainer(m_sess, dataset, tcfg, use_plan=False)
        for _ in range(2):  # warm step + steady (arena-backed) step
            loss_p = t_plan.step()
            loss_s = t_sess.step()
            assert loss_p == loss_s
        for vp, vs in zip(t_plan.variables, t_sess.variables):
            assert np.array_equal(vp.value, vs.value), vp.name

    def test_trainer_plan_counters(self, dataset):
        cfg = DPConfig.tiny(rcut=4.0)
        model = DeepPot(cfg)
        dataset.apply_stats(model)
        trainer = Trainer(model, dataset, TrainConfig(n_steps=4, seed=5))
        trainer.step()
        before = graph.TOPO_SORT_CALLS
        trainer.step()
        trainer.step()
        assert graph.TOPO_SORT_CALLS == before  # compiled once, never again
        assert trainer.plan.stats.topo_sorts == 1
        # equal-sized frames share one warm arena: no steady-state allocs
        allocs = trainer.plan.alloc_count()
        trainer.step()
        assert trainer.plan.alloc_count() == allocs


class TestServingPlans:
    def test_server_serves_planned_results_bitwise(self):
        """The serving worker's persistent engines execute through plans;
        served results stay bitwise identical to direct evaluation."""
        from repro.serving.worker import InferenceServer

        model = DeepPot(DPConfig.tiny(sel=(8, 16), rcut=3.0))
        system = water_box((2, 2, 2), seed=1)
        pi, pj = neighbor_pairs(system, model.config.rcut)
        direct = model.evaluate(system, pi, pj)
        with InferenceServer({"tiny": model}, max_batch=4) as server:
            stats0 = server.executor_stats()["tiny"]
            assert stats0["topo_sorts"] == 1  # compiled at registration
            futures = [server.submit("tiny", system, pi, pj) for _ in range(5)]
            results = [f.result(timeout=30) for f in futures]
        for res in results:
            assert res.energy == direct.energy
            assert np.array_equal(res.forces, direct.forces)
            assert np.array_equal(res.atom_energies, direct.atom_energies)
        stats = server.executor_stats()["tiny"]
        assert stats["topo_sorts"] == 1  # still exactly one graph traversal
        assert stats["runs"] >= 2  # 5 requests, max_batch=4 -> >= 2 batches
        assert stats["arena_builds"] >= 1
