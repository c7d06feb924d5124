"""Unit tests for tfmini operator kernels and shape behaviour."""

import numpy as np
import pytest

import repro.dp.model  # noqa: F401  (registers the DP custom ops)
import repro.tfmini as tf
from repro.tfmini.graph import Node, topo_sort
from repro.tfmini.ops import _REGISTRY, get_op, op_category, op_flops, scale


@pytest.fixture
def sess():
    return tf.Session()


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestLeaves:
    def test_constant_roundtrip(self, sess):
        c = tf.constant([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(sess.run(c), [[1.0, 2.0], [3.0, 4.0]])

    def test_variable_value_readback(self, sess):
        v = tf.variable(np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(sess.run(v), np.arange(6.0).reshape(2, 3))

    def test_variable_assign_updates_execution(self, sess):
        v = tf.variable(np.zeros(3))
        v.assign(np.ones(3))
        np.testing.assert_array_equal(sess.run(v), np.ones(3))

    def test_variable_assign_shape_mismatch_raises(self):
        v = tf.variable(np.zeros(3))
        with pytest.raises(ValueError, match="shape"):
            v.assign(np.zeros(4))

    def test_placeholder_must_be_fed(self, sess):
        p = tf.placeholder("p")
        with pytest.raises(KeyError, match="was not fed"):
            sess.run(p)

    def test_placeholder_feed(self, sess):
        p = tf.placeholder("p")
        np.testing.assert_array_equal(sess.run(p, {p: np.eye(2)}), np.eye(2))


class TestElementwise:
    def test_add_sub_mul_neg(self, sess, rng):
        a_val = rng.normal(size=(3, 4))
        b_val = rng.normal(size=(3, 4))
        a, b = tf.constant(a_val), tf.constant(b_val)
        np.testing.assert_allclose(sess.run(a + b), a_val + b_val)
        np.testing.assert_allclose(sess.run(a - b), a_val - b_val)
        np.testing.assert_allclose(sess.run(a * b), a_val * b_val)
        np.testing.assert_allclose(sess.run(-a), -a_val)

    def test_add_broadcasts_bias(self, sess, rng):
        x_val = rng.normal(size=(5, 3))
        b_val = rng.normal(size=3)
        out = sess.run(tf.add(tf.constant(x_val), tf.constant(b_val)))
        np.testing.assert_allclose(out, x_val + b_val)

    def test_square(self, sess, rng):
        x_val = rng.normal(size=(4,))
        np.testing.assert_allclose(sess.run(tf.square(tf.constant(x_val))), x_val**2)

    def test_scale(self, sess):
        x = tf.constant([1.0, -2.0])
        np.testing.assert_allclose(sess.run(scale(x, 2.5)), [2.5, -5.0])


class TestMatrixOps:
    def test_matmul(self, sess, rng):
        a_val = rng.normal(size=(3, 5))
        b_val = rng.normal(size=(5, 2))
        out = sess.run(tf.matmul(tf.constant(a_val), tf.constant(b_val)))
        np.testing.assert_allclose(out, a_val @ b_val)

    def test_gemm_equals_matmul_plus_bias(self, sess, rng):
        a_val = rng.normal(size=(7, 3))
        w_val = rng.normal(size=(3, 4))
        b_val = rng.normal(size=4)
        out = sess.run(tf.gemm(tf.constant(a_val), tf.constant(w_val), tf.constant(b_val)))
        np.testing.assert_allclose(out, a_val @ w_val + b_val)

    def test_gemm_beta_zero_drops_c(self, sess, rng):
        a_val = rng.normal(size=(2, 3))
        w_val = rng.normal(size=(3, 4))
        c_val = rng.normal(size=(2, 4))
        out = sess.run(
            tf.gemm(tf.constant(a_val), tf.constant(w_val), tf.constant(c_val), beta=0.0)
        )
        np.testing.assert_allclose(out, a_val @ w_val)

    def test_gemm_full_matrix_c(self, sess, rng):
        a_val = rng.normal(size=(2, 3))
        w_val = rng.normal(size=(3, 4))
        c_val = rng.normal(size=(2, 4))
        out = sess.run(
            tf.gemm(tf.constant(a_val), tf.constant(w_val), tf.constant(c_val), beta=2.0)
        )
        np.testing.assert_allclose(out, a_val @ w_val + 2.0 * c_val)

    def test_matvec_row_count_independent(self, sess, rng):
        """N==1 products must give bitwise-identical rows no matter how many
        other rows share the call — BLAS's matrix-vector kernels do not
        (they switch strategy with the row count), which is why matmul/gemm
        use a dedicated row-wise reduction for this shape.  The batched
        engine's frame-independence guarantee (repro.dp.batch, repro.serving)
        rests on this property."""
        w_val = rng.normal(size=(32, 1))
        b_val = rng.normal(size=1)
        for m in (10, 54, 100, 333):
            a_val = rng.normal(size=(m, 32))
            extra = rng.normal(size=(2 * m, 32))
            stacked = np.vstack([a_val, extra])
            alone = sess.run(tf.matmul(tf.constant(a_val), tf.constant(w_val)))
            together = sess.run(
                tf.matmul(tf.constant(stacked), tf.constant(w_val))
            )
            assert np.array_equal(alone, together[:m])
            alone_g = sess.run(
                tf.gemm(tf.constant(a_val), tf.constant(w_val), tf.constant(b_val))
            )
            together_g = sess.run(
                tf.gemm(tf.constant(stacked), tf.constant(w_val), tf.constant(b_val))
            )
            assert np.array_equal(alone_g, together_g[:m])

    def test_matvec_matches_reference_product(self, sess, rng):
        a_val = rng.normal(size=(9, 5))
        w_val = rng.normal(size=(5, 1))
        out = sess.run(tf.matmul(tf.constant(a_val), tf.constant(w_val)))
        np.testing.assert_allclose(out, a_val @ w_val)
        assert out.shape == (9, 1)

    def test_matvec_shape_mismatch_still_raises(self, sess, rng):
        """The row-wise kernel must not let broadcasting swallow a K
        mismatch that `a @ b` would reject."""
        a_val = rng.normal(size=(3, 4))
        w_val = rng.normal(size=(1, 1))
        with pytest.raises(ValueError):
            sess.run(tf.matmul(tf.constant(a_val), tf.constant(w_val)))

    def test_bmm(self, sess, rng):
        a_val = rng.normal(size=(6, 3, 5))
        b_val = rng.normal(size=(6, 5, 2))
        out = sess.run(tf.bmm(tf.constant(a_val), tf.constant(b_val)))
        np.testing.assert_allclose(out, a_val @ b_val)

    def test_transpose_default_and_perm(self, sess, rng):
        x_val = rng.normal(size=(2, 3, 4))
        np.testing.assert_allclose(
            sess.run(tf.transpose(tf.constant(x_val), (0, 2, 1))),
            x_val.transpose(0, 2, 1),
        )
        m = rng.normal(size=(2, 5))
        np.testing.assert_allclose(sess.run(tf.transpose(tf.constant(m))), m.T)


class TestShapeOps:
    def test_concat_last_axis(self, sess, rng):
        a_val = rng.normal(size=(3, 2))
        b_val = rng.normal(size=(3, 4))
        out = sess.run(tf.concat(tf.constant(a_val), tf.constant(b_val), axis=-1))
        np.testing.assert_allclose(out, np.concatenate([a_val, b_val], axis=-1))

    def test_slice_cols(self, sess, rng):
        x_val = rng.normal(size=(4, 10))
        out = sess.run(tf.slice_cols(tf.constant(x_val), 2, 7))
        np.testing.assert_allclose(out, x_val[:, 2:7])

    def test_reshape(self, sess):
        x = tf.constant(np.arange(12.0))
        np.testing.assert_array_equal(
            sess.run(tf.reshape(x, (3, 4))), np.arange(12.0).reshape(3, 4)
        )


class TestReductions:
    def test_reduce_sum_all(self, sess, rng):
        x_val = rng.normal(size=(3, 4))
        assert sess.run(tf.reduce_sum(tf.constant(x_val))) == pytest.approx(x_val.sum())

    def test_reduce_sum_axis(self, sess, rng):
        x_val = rng.normal(size=(3, 4))
        np.testing.assert_allclose(
            sess.run(tf.reduce_sum(tf.constant(x_val), axis=0)), x_val.sum(axis=0)
        )

    def test_reduce_mean(self, sess, rng):
        x_val = rng.normal(size=(5, 2))
        assert sess.run(tf.reduce_mean(tf.constant(x_val))) == pytest.approx(x_val.mean())


class TestActivationsAndCast:
    def test_tanh(self, sess, rng):
        x_val = rng.normal(size=(4, 4))
        np.testing.assert_allclose(sess.run(tf.tanh(tf.constant(x_val))), np.tanh(x_val))

    def test_cast_dtype(self, sess):
        x = tf.constant(np.ones((2, 2), dtype=np.float64))
        out = sess.run(tf.cast(x, np.float32))
        assert out.dtype == np.float32

    def test_cast_preserves_static_shape(self):
        x = tf.constant(np.ones((2, 3)))
        assert tf.cast(x, np.float32).shape == (2, 3)


class TestGraphUtilities:
    def test_topo_sort_orders_inputs_first(self):
        a = tf.constant(1.0)
        b = tf.constant(2.0)
        c = a + b
        d = c * a
        order = topo_sort([d])
        pos = {id(n): i for i, n in enumerate(order)}
        assert pos[id(a)] < pos[id(c)] < pos[id(d)]
        assert pos[id(b)] < pos[id(c)]

    def test_topo_sort_handles_deep_chains(self):
        # Deep graphs must not hit the Python recursion limit.
        x = tf.constant(0.0)
        node = x
        for _ in range(5000):
            node = node + x
        assert len(topo_sort([node])) == 5001

    def test_op_category_mapping(self):
        assert op_category("matmul") == "GEMM"
        assert op_category("gemm") == "GEMM"
        assert op_category("tanh_grad") == "TANH"
        assert op_category("slice") == "SLICE"
        assert op_category("env_mat_opt") == "CUSTOM"
        assert op_category("add") == "Others"

    def test_unknown_op_raises(self, sess):
        from repro.tfmini.graph import Node

        with pytest.raises(KeyError, match="unknown op"):
            sess.run(Node("no_such_op", (tf.constant(1.0),)))


# ---------------------------------------------------------------------------
# OpDef.shape_only: the declarations cannot lie
# ---------------------------------------------------------------------------
#
# The plan compiler never computes a value that is read only at positions
# an op declares ``shape_only``, and recycles its bytes early.  A position
# declared by mistake is silent wrong physics, so every declaration is
# gated here: poisoning the declared inputs must not change one output bit.

_R = np.random.default_rng(17)


def _f(*shape, dtype=np.float64):
    return _R.normal(size=shape).astype(dtype)


# op -> [(inputs, attrs), ...]; every branch of the kernel gets a case.
SHAPE_ONLY_CASES = {
    "reduce_to_shape": [([_f(4, 3), _f(3)], {}), ([_f(4, 3), _f(4, 3)], {})],
    "broadcast_like": [([_f(3), _f(4, 3)], {})],
    "reshape_like": [([_f(4, 3), _f(2, 6)], {})],
    "split_part": [
        ([_f(4, 6), _f(4, 2), _f(4, 4)], {"axis": -1, "part": part})
        for part in (0, 1)
    ],
    "split_part_grad": [
        ([_f(4, 2), _f(4, 2), _f(4, 4)], {"axis": -1, "part": 0}),
        ([_f(4, 4), _f(4, 2), _f(4, 4)], {"axis": -1, "part": 1}),
    ],
    "slice_axis_grad": [
        ([_f(2, 3), _f(5, 3)], {"axis": 0, "start": 1, "stop": 3}),
    ],
    "slice_grad": [([_f(4, 2), _f(4, 5)], {"start": 1, "stop": 3})],
    "bcast_reduce_grad": [
        ([_f(3), _f(4, 3)], {"axis": 0, "mean": False}),
        ([_f(4), _f(4, 3)], {"axis": 1, "mean": True}),
        ([_f(), _f(4, 3)], {"axis": None, "mean": True}),
    ],
    # partial listing (the last listed row fills the rest) and full listing
    "expand_rows": [
        ([_f(3, 2), np.array([4, 0, 2]), _f(5, 1)], {}),
        ([_f(5, 2), np.arange(5), _f(5, 1)], {}),
    ],
    "scatter_rows": [
        ([_f(3, 2), np.array([4, 0, 2]), _f(5, 2)], {}),
        ([_f(5, 2), np.arange(5), _f(5, 2)], {}),
    ],
    "cast_like": [([_f(4), _f(2, dtype=np.float32)], {})],
    "ones_like": [([_f(4, 3)], {}), ([_f(2, dtype=np.float32)], {})],
    "prod_virial": [
        ([_f(2, 3, 4), _f(2, 3, 4, 3), _f(2, 3, 3),
          np.arange(6, dtype=np.int64).reshape(2, 3)], {}),
    ],
}


def _poisoned(x):
    bad = np.nan if x.dtype.kind == "f" else np.iinfo(x.dtype).min
    return np.full(x.shape, bad, dtype=x.dtype)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestShapeOnlyDeclarations:
    def test_every_declaring_op_has_a_case(self):
        declared = {name for name, op in _REGISTRY.items() if op.shape_only}
        assert declared == set(SHAPE_ONLY_CASES)

    @pytest.mark.parametrize("name", sorted(SHAPE_ONLY_CASES))
    def test_declared_inputs_are_never_read_by_value(self, name):
        opdef = get_op(name)
        for inputs, attrs in SHAPE_ONLY_CASES[name]:
            poisoned = [
                _poisoned(x) if pos in opdef.shape_only else x
                for pos, x in enumerate(inputs)
            ]
            want = np.asarray(opdef.forward(inputs, attrs))
            got = np.asarray(opdef.forward(poisoned, attrs))
            assert _same_bits(got, want), (name, attrs)
            if opdef.forward_out is not None:
                out = np.full(want.shape, 7, dtype=want.dtype)
                opdef.forward_out(poisoned, attrs, out)
                assert _same_bits(out, want), (name, attrs)
            node = Node(name, tuple(tf.constant(x) for x in inputs), attrs)
            assert op_flops(node, poisoned, got) == op_flops(node, inputs, want)

    def test_a_value_read_is_caught(self):
        """The gate bites: ``reduce_to_shape``'s input 0 *is* read."""
        (x, like), attrs = SHAPE_ONLY_CASES["reduce_to_shape"][0]
        forward = get_op("reduce_to_shape").forward
        assert not _same_bits(
            forward([_poisoned(x), like], attrs), forward([x, like], attrs)
        )
