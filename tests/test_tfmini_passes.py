"""Tests for the Sec 5.3 graph rewrite passes: semantics preserved, fusions fire."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.tfmini as tf
from repro.tfmini.graph import topo_sort


def ops_in(fetches):
    if isinstance(fetches, tf.Node):
        fetches = [fetches]
    return [n.op for n in topo_sort(fetches)]


@pytest.fixture
def rng():
    return np.random.default_rng(123)


class TestMatmulSumFusion:
    def test_rewrites_to_gemm(self, rng):
        x = tf.constant(rng.normal(size=(5, 3)))
        w = tf.variable(rng.normal(size=(3, 4)), name="w")
        b = tf.variable(rng.normal(size=4), name="b")
        y = tf.add(tf.matmul(x, w), b)
        opt = tf.optimize_graph(y, passes=("matmul_sum",))
        assert "gemm" in ops_in(opt)
        assert "matmul" not in ops_in(opt)
        np.testing.assert_allclose(tf.Session().run(opt), tf.Session().run(y))

    def test_bias_on_left_also_fuses(self, rng):
        x = tf.constant(rng.normal(size=(5, 3)))
        w = tf.variable(rng.normal(size=(3, 4)), name="w")
        b = tf.variable(rng.normal(size=4), name="b")
        y = tf.add(b, tf.matmul(x, w))
        opt = tf.optimize_graph(y, passes=("matmul_sum",))
        assert "gemm" in ops_in(opt)
        np.testing.assert_allclose(tf.Session().run(opt), tf.Session().run(y))

    def test_matrix_plus_matrix_not_fused(self, rng):
        # SUM of two full matrices is not a GEMM bias pattern.
        a = tf.variable(rng.normal(size=(3, 3)), name="a")
        b = tf.variable(rng.normal(size=(3, 3)), name="b")
        y = tf.add(tf.matmul(a, b), b)
        opt = tf.optimize_graph(y, passes=("matmul_sum",))
        assert "gemm" not in ops_in(opt)

    def test_feeds_still_work_after_rewrite(self, rng):
        x = tf.placeholder("x")
        w = tf.variable(rng.normal(size=(3, 4)), name="w")
        b = tf.variable(rng.normal(size=4), name="b")
        y = tf.add(tf.matmul(x, w), b)
        opt = tf.optimize_graph(y, passes=("matmul_sum",))
        xv = rng.normal(size=(2, 3))
        np.testing.assert_allclose(
            tf.Session().run(opt, {x: xv}), xv @ w.value + b.value
        )


class TestConcatSumFusion:
    def test_self_concat_plus_tensor_fuses(self, rng):
        x = tf.constant(rng.normal(size=(6, 4)))
        t = tf.constant(rng.normal(size=(6, 8)))
        y = tf.add(tf.concat(x, x, axis=1), t)
        opt = tf.optimize_graph(y, passes=("concat_sum",))
        assert "concat" not in ops_in(opt)
        assert "concat_sum" in ops_in(opt) and "gemm" not in ops_in(opt)
        np.testing.assert_array_equal(tf.Session().run(opt), tf.Session().run(y))

    def test_distinct_concat_inputs_not_fused(self, rng):
        a = tf.constant(rng.normal(size=(6, 4)))
        b = tf.constant(rng.normal(size=(6, 4)))
        t = tf.constant(rng.normal(size=(6, 8)))
        y = tf.add(tf.concat(a, b, axis=1), t)
        opt = tf.optimize_graph(y, passes=("concat_sum",))
        assert "concat" in ops_in(opt)

    def test_ii_matrix_semantics(self, rng):
        # The fused record must equal concat(x, x) exactly, and the paper's
        # x @ (I, I) + t form of it bit for bit.
        x_val = rng.normal(size=(3, 5))
        x = tf.constant(x_val)
        t = tf.constant(np.zeros((3, 10)))
        y = tf.add(tf.concat(x, x, axis=1), t)
        opt = tf.optimize_graph(y, passes=("concat_sum",))
        np.testing.assert_array_equal(
            tf.Session().run(opt), np.concatenate([x_val, x_val], axis=1)
        )
        ii = tf.constant(np.concatenate([np.eye(5), np.eye(5)], axis=1))
        for t_val in (rng.normal(size=(3, 10)), rng.normal(size=10)):
            t = tf.constant(t_val)
            fused = tf.optimize_graph(
                tf.add(tf.concat(x, x, axis=1), t), passes=("concat_sum",)
            )
            np.testing.assert_array_equal(
                tf.Session().run(fused), tf.Session().run(tf.gemm(x, ii, t))
            )


class TestTanhFusion:
    def _loss_graph(self, rng):
        x = tf.variable(rng.normal(size=(4, 3)), name="x")
        w = tf.variable(rng.normal(size=(3, 3)), name="w")
        y = tf.tanh(tf.matmul(x, w))
        loss = tf.reduce_sum(tf.square(y))
        g = tf.grad(loss, [x])[0]
        return loss, g

    def test_fuses_tanh_tanhgrad_pair(self, rng):
        loss, g = self._loss_graph(rng)
        opt = tf.optimize_graph([loss, g], passes=("tanh",))
        ops = ops_in(opt)
        assert "tanh_fused" in ops
        assert "tanh_grad" not in ops
        sess = tf.Session()
        ref = sess.run([loss, g])
        out = sess.run(opt)
        np.testing.assert_allclose(out[0], ref[0])
        np.testing.assert_allclose(out[1], ref[1])

    def test_forward_only_tanh_untouched(self, rng):
        x = tf.constant(rng.normal(size=(3, 3)))
        y = tf.tanh(x)
        opt = tf.optimize_graph(y, passes=("tanh",))
        assert "tanh" in ops_in(opt)
        assert "tanh_fused" not in ops_in(opt)

    def test_fused_kernel_evaluated_once(self, rng):
        """The fused node is shared: only one tanh_fused evaluation per run."""
        loss, g = self._loss_graph(rng)
        opt = tf.optimize_graph([loss, g], passes=("tanh",))
        sess = tf.Session(profile=True)
        sess.run(opt)
        assert sess.stats.calls["tanh_fused"] == 1


class TestCombinedPipeline:
    def test_all_passes_preserve_full_training_graph(self, rng):
        """Forward + backward of a skip-connected net, all passes applied."""
        x = tf.placeholder("x")
        w1 = tf.variable(rng.normal(size=(4, 8)) * 0.5, name="w1")
        b1 = tf.variable(rng.normal(size=8) * 0.1, name="b1")
        h = tf.add(tf.concat(x, x, axis=1), tf.tanh(tf.add(tf.matmul(x, w1), b1)))
        w2 = tf.variable(rng.normal(size=(8, 1)) * 0.5, name="w2")
        e = tf.reduce_sum(tf.matmul(h, w2))
        gx = tf.grad(e, [x])[0]
        gw = tf.grad(e, [w1, b1, w2])

        fetches = [e, gx] + gw
        opt = tf.optimize_graph(fetches)
        sess = tf.Session()
        xv = rng.normal(size=(7, 4))
        ref = sess.run(fetches, {x: xv})
        out = sess.run(opt, {x: xv})
        for r, o in zip(ref, out):
            np.testing.assert_allclose(o, r, rtol=1e-12, atol=1e-12)
        ops = ops_in(opt)
        assert "gemm" in ops and "tanh_fused" in ops

    @given(seed=st.integers(0, 2**31 - 1), rows=st.integers(1, 10))
    @settings(max_examples=20, deadline=None)
    def test_property_rewrite_is_semantics_preserving(self, seed, rows):
        rng = np.random.default_rng(seed)
        x = tf.constant(rng.normal(size=(rows, 3)))
        w = tf.variable(rng.normal(size=(3, 6)), name="w")
        b = tf.variable(rng.normal(size=6), name="b")
        pre = tf.add(tf.matmul(x, w), b)
        act = tf.tanh(pre)
        # mimic an embedding skip layer of doubled width
        skip = tf.add(tf.concat(x, x, axis=1), act)
        loss = tf.reduce_sum(tf.square(skip))
        g = tf.grad(loss, [w])[0]
        opt = tf.optimize_graph([loss, g])
        sess = tf.Session()
        ref = sess.run([loss, g])
        out = sess.run(opt)
        np.testing.assert_allclose(out[0], ref[0], rtol=1e-12)
        np.testing.assert_allclose(out[1], ref[1], rtol=1e-12)

    def test_unknown_pass_raises(self):
        with pytest.raises(KeyError, match="unknown pass"):
            tf.optimize_graph(tf.constant(1.0), passes=("bogus",))


class TestOptimizerUnit:
    def test_adam_reduces_quadratic_loss(self):
        v = tf.variable(np.array([5.0, -3.0]), name="v")
        target = tf.constant(np.array([1.0, 2.0]))
        loss = tf.reduce_sum(tf.square(v - target))
        gnode = tf.grad(loss, [v])[0]
        sess = tf.Session()
        adam = tf.Adam(lr=0.1)
        for _ in range(300):
            adam.apply([v], [sess.run(gnode)])
        np.testing.assert_allclose(v.value, [1.0, 2.0], atol=1e-2)

    def test_exponential_decay_schedule(self):
        sched = tf.ExponentialDecay(start=1e-3, stop=1e-8, decay_steps=100, rate=0.5)
        assert sched(0) == pytest.approx(1e-3)
        assert sched(100) == pytest.approx(5e-4)
        assert sched(200) == pytest.approx(2.5e-4)
        assert sched(10**9) == pytest.approx(1e-8)  # floored

    def test_adam_shape_mismatch_raises(self):
        v = tf.variable(np.zeros(3), name="v")
        adam = tf.Adam(lr=0.1)
        with pytest.raises(ValueError, match="grad shape"):
            adam.apply([v], [np.zeros(4)])

    def test_adam_skips_none_grads(self):
        v = tf.variable(np.ones(2), name="v")
        adam = tf.Adam(lr=0.1)
        adam.apply([v], [None])
        np.testing.assert_array_equal(v.value, np.ones(2))


class TestProfiling:
    def test_stats_accumulate_and_reset(self, rng):
        x = tf.constant(rng.normal(size=(64, 64)))
        y = tf.matmul(x, x)
        sess = tf.Session(profile=True)
        sess.run(y)
        assert sess.stats.calls["matmul"] == 1
        assert sess.stats.flops["matmul"] == 2 * 64 * 64 * 64
        assert sess.stats.total_seconds() > 0
        sess.stats.reset()
        assert sess.stats.total_seconds() == 0

    def test_category_percentages_sum_to_100(self, rng):
        x = tf.constant(rng.normal(size=(32, 16)))
        w = tf.variable(rng.normal(size=(16, 16)), name="w")
        y = tf.reduce_sum(tf.tanh(tf.matmul(x, w)))
        sess = tf.Session(profile=True)
        sess.run(y)
        pct = sess.stats.category_percentages()
        assert sum(pct.values()) == pytest.approx(100.0)
