"""Sec 5.3 / Sec 7.1.2 — standard-operator fusions on tall-skinny matrices.

Paper (12,288-atom water, V100):
    MATMUL+SUM  -> GEMM        1.3x
    CONCAT+SUM  -> GEMM (I,I)  1.7x   (on a CPU the (I,I) GEMM loses to the
                                       broadcast add it equals bit for bit;
                                       the pass emits the add, the GEMM form
                                       is timed here as the paper's contrast)
    TANH+TANHGrad -> fused     1.6x
    combined extra loop speedup 1.21x

The benchmark uses the paper's own shapes: the oxygen-hydrogen embedding
rows of a 4,096-molecule water system are 376,832 x 50 multiplied by 50 x
100 (Sec 5.3.1) — scaled down by default to keep laptop runtimes sane.
"""

import numpy as np
import pytest

from benchmarks.conftest import (
    bench_median,
    bench_paired_ratio,
    bench_strict,
    print_header,
)
import repro.tfmini as tf
from repro.tfmini.graph import topo_sort

ROWS = 65536  # paper: 376,832
TIMES = {}
# Callables stashed by the individual benchmarks so the report can re-measure
# each unfused/fused pair back-to-back (paired interleaved trials) — ratios
# between separately-timed benchmarks flake whenever host load drifts
# between them.
FNS = {}


@pytest.fixture(scope="module")
def tensors():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(ROWS, 50))
    w = rng.normal(size=(50, 100))
    b = rng.normal(size=100)
    t = rng.normal(size=(ROWS, 100))
    return x, w, b, t


def _median(benchmark, fn, rounds=5):
    # Median-of-rounds, robust to single-round timer noise (see conftest).
    return bench_median(benchmark, fn, rounds=rounds)


class TestMatmulSum:
    def test_unfused(self, benchmark, tensors):
        x, w, b, t = tensors
        xn, wn, bn = tf.constant(x), tf.constant(w), tf.constant(b)
        y = tf.add(tf.matmul(xn, wn), bn)
        sess = tf.Session()
        FNS["mm_unfused"] = lambda: sess.run(y)
        TIMES["mm_unfused"] = _median(benchmark, FNS["mm_unfused"])

    def test_gemm(self, benchmark, tensors):
        x, w, b, t = tensors
        xn, wn, bn = tf.constant(x), tf.constant(w), tf.constant(b)
        y = tf.gemm(xn, wn, bn)
        sess = tf.Session()
        FNS["mm_gemm"] = lambda: sess.run(y)
        TIMES["mm_gemm"] = _median(benchmark, FNS["mm_gemm"])


class TestConcatSum:
    def test_unfused(self, benchmark, tensors):
        x, w, b, t = tensors
        xn, tn = tf.constant(x), tf.constant(t[:, :100])
        y = tf.add(tf.concat(xn, xn, axis=1), tn)
        sess = tf.Session()
        FNS["cc_unfused"] = lambda: sess.run(y)
        TIMES["cc_unfused"] = _median(benchmark, FNS["cc_unfused"])

    def test_gemm_ii(self, benchmark, tensors):
        """The paper's Sec 5.3.2 form, hand-built: one GEMM with (I, I)."""
        x, w, b, t = tensors
        xn, tn = tf.constant(x), tf.constant(t[:, :100])
        ii = tf.constant(np.concatenate([np.eye(50), np.eye(50)], axis=1))
        y = tf.gemm(xn, ii, tn)
        sess = tf.Session()
        FNS["cc_gemm"] = lambda: sess.run(y)
        TIMES["cc_gemm"] = _median(benchmark, FNS["cc_gemm"])

    def test_broadcast_add(self, benchmark, tensors):
        """What ``fuse_concat_sum`` emits: the same bits as one add."""
        x, w, b, t = tensors
        xn, tn = tf.constant(x), tf.constant(t[:, :100])
        y = tf.optimize_graph(
            tf.add(tf.concat(xn, xn, axis=1), tn), passes=("concat_sum",)
        )
        ops = [n.op for n in topo_sort([y])]
        assert "concat_sum" in ops and "concat" not in ops and "gemm" not in ops
        sess = tf.Session()
        np.testing.assert_array_equal(sess.run(y), FNS["cc_gemm"]())
        FNS["cc_fused"] = lambda: sess.run(y)
        TIMES["cc_fused"] = _median(benchmark, FNS["cc_fused"])


class TestTanhFusion:
    def _graph(self, tensors, fused: bool):
        x, w, b, t = tensors
        xv = tf.variable(x[: ROWS // 2], name="xv")
        y = tf.tanh(xv)
        loss = tf.reduce_sum(tf.square(y))
        g = tf.grad(loss, [xv])[0]
        fetches = [loss, g]
        if fused:
            fetches = tf.optimize_graph(fetches, passes=("tanh",))
            ops = [n.op for n in topo_sort(fetches)]
            assert "tanh_fused" in ops
        return fetches

    def test_unfused(self, benchmark, tensors):
        fetches = self._graph(tensors, fused=False)
        sess = tf.Session()
        FNS["tanh_unfused"] = lambda: sess.run(fetches)
        TIMES["tanh_unfused"] = _median(benchmark, FNS["tanh_unfused"])

    def test_fused(self, benchmark, tensors):
        fetches = self._graph(tensors, fused=True)
        sess = tf.Session()
        FNS["tanh_fused"] = lambda: sess.run(fetches)
        TIMES["tanh_fused"] = _median(benchmark, FNS["tanh_fused"])


def test_zz_report(benchmark, tensors):
    # register as a benchmark so --benchmark-only still runs the report
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    required = {
        "mm_unfused", "mm_gemm", "cc_unfused", "cc_gemm", "cc_fused",
        "tanh_unfused", "tanh_fused",
    }
    assert required <= TIMES.keys()
    # Paired interleaved re-measurement for the asserted ratios; the stored
    # per-benchmark medians are reported alongside.  Under
    # REPRO_BENCH_STRICT=0 (CI smoke) the extra timing work is skipped and
    # the report falls back to the already-collected medians.
    if bench_strict():
        mm = bench_paired_ratio(FNS["mm_unfused"], FNS["mm_gemm"], trials=7)
        cc_gemm = bench_paired_ratio(FNS["cc_unfused"], FNS["cc_gemm"], trials=7)
        cc = bench_paired_ratio(FNS["cc_unfused"], FNS["cc_fused"], trials=7)
        th = bench_paired_ratio(FNS["tanh_unfused"], FNS["tanh_fused"], trials=7)
    else:
        mm = TIMES["mm_unfused"] / TIMES["mm_gemm"]
        cc_gemm = TIMES["cc_unfused"] / TIMES["cc_gemm"]
        cc = TIMES["cc_unfused"] / TIMES["cc_fused"]
        th = TIMES["tanh_unfused"] / TIMES["tanh_fused"]
    print_header("Sec 5.3 / 7.1.2 — graph fusion speedups (this repo | paper)")
    print(f"{'rewrite':<26} {'unfused':>10} {'fused':>10} {'speedup':>9} {'paper':>6}")
    print(f"{'MATMUL+SUM -> GEMM':<26} {TIMES['mm_unfused']*1e3:>8.2f}ms "
          f"{TIMES['mm_gemm']*1e3:>8.2f}ms {mm:>8.2f}x {'1.3x':>6}")
    print(f"{'CONCAT+SUM -> GEMM(I,I)':<26} {TIMES['cc_unfused']*1e3:>8.2f}ms "
          f"{TIMES['cc_gemm']*1e3:>8.2f}ms {cc_gemm:>8.2f}x {'1.7x':>6}")
    print(f"{'CONCAT+SUM -> one add':<26} {TIMES['cc_unfused']*1e3:>8.2f}ms "
          f"{TIMES['cc_fused']*1e3:>8.2f}ms {cc:>8.2f}x {'':>6}")
    print(f"{'TANH+TANHGrad fusion':<26} {TIMES['tanh_unfused']*1e3:>8.2f}ms "
          f"{TIMES['tanh_fused']*1e3:>8.2f}ms {th:>8.2f}x {'1.6x':>6}")
    # Wall-clock ratio assertions: each fusion is at worst neutral, overall
    # a net win (typically 1.3-1.45x here, driven by MATMUL+SUM).
    # Paired-trial medians, gated on REPRO_BENCH_STRICT for CI.
    if bench_strict():
        assert mm > 0.85
        assert cc > 0.85
        assert th > 0.85
        assert mm * cc * th > 1.1


def test_whole_model_graph_optimization(benchmark, zoo_water_model, water_192):
    """The Sec 7.1.2 'extra 1.21x on the whole MD loop' analogue: evaluate
    the full DP graph with and without the rewrite passes."""
    from dataclasses import replace

    from repro.dp.model import DeepPot
    from repro.md.neighbor import neighbor_pairs

    base = zoo_water_model
    unopt = DeepPot(replace(base.config, optimize_graph=False))
    for vs, vd in zip(base.trainable_variables(), unopt.trainable_variables()):
        vd.assign(vs.value.copy())
    unopt.set_stats(base.davg, base.dstd, base.e0)

    pi, pj = neighbor_pairs(water_192, base.config.rcut)

    def run_opt():
        base.evaluate(water_192, pi, pj)

    def run_unopt():
        unopt.evaluate(water_192, pi, pj)

    t_opt = _median(benchmark, run_opt, rounds=5)
    print_header("Whole-graph effect of the Sec 5.3 passes")
    print(f"optimized graph:   {t_opt * 1e3:.1f} ms/eval")
    # Paired interleaved trials for the asserted ratio: whole-model evals are
    # several ms, so host-load drift between two separately-timed loops used
    # to dominate the ~1.1-1.2x fusion effect being measured.  Skipped
    # entirely under REPRO_BENCH_STRICT=0 (CI smoke) — no consumer, no cost.
    if bench_strict():
        ratio = bench_paired_ratio(run_unopt, run_opt, trials=5)
        print(f"speedup (paired trials): {ratio:.2f}x "
              f"(paper: 1.21x on the MD loop)")
        assert ratio > 0.7  # never a regression beyond noise
