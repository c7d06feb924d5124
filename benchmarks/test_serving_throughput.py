"""Serving throughput — micro-batch coalescing under multi-client load.

The service's thesis is the batched engine's thesis moved behind a queue:
N requests that arrive together should cost ~1 batched evaluation per
``max_batch`` of them, not N serial evaluations.  Assertions follow the
repo's bench-timing policy:

* deterministic (always on): N coalesced requests execute in exactly
  ``ceil(N / max_batch)`` batched graph runs — counted by ``ServerStats``
  (batches/frames/occupancy) AND by the engine's own
  ``batch_evaluations`` counter, so the amortization is structural; every
  served result stays bitwise identical to a direct evaluation;
* wall-clock (paired, median-based, gated on ``REPRO_BENCH_STRICT``):
  serving N pre-queued requests with ``max_batch=16`` vs ``max_batch=1``
  through the *same* stack (queue, worker thread) — isolating the
  micro-batching win from serving overhead.

The two-model case asserts counters only: one worker per model is the
only pool shape (its measurement against a shared worker is recorded in
ROADMAP.md, "Settled by measurement").
"""

import numpy as np
import pytest

from benchmarks.conftest import bench_paired_trials, bench_strict, print_header
from repro.analysis.structures import water_box
from repro.dp.model import DeepPot, DPConfig
from repro.md.neighbor import neighbor_pairs
from repro.serving import InferenceServer

N_REQUESTS = 32
MAX_BATCH = 8
WAIT = 120.0


@pytest.fixture(scope="module")
def model():
    # rcut shrunk so the 24-atom cell satisfies minimum image — the small-
    # frame regime where fixed per-evaluation cost dominates (the regime
    # the batched engine, and therefore the service, targets).
    return DeepPot(DPConfig.tiny(sel=(8, 16), rcut=3.0))


@pytest.fixture(scope="module")
def workload(model):
    base = water_box((2, 2, 2), seed=0)
    frames, pair_lists = [], []
    for k in range(N_REQUESTS):
        s = base.copy()
        rng = np.random.default_rng(1000 + k)
        s.positions = s.positions + rng.normal(scale=0.02, size=s.positions.shape)
        frames.append(s)
        pair_lists.append(neighbor_pairs(s, model.config.rcut))
    return frames, pair_lists


def serve_all(model, workload, max_batch):
    """Pre-queue the full workload, then let the worker coalesce it."""
    frames, pair_lists = workload
    server = InferenceServer(
        {"water": model}, max_batch=max_batch, max_queue=0, autostart=False
    )
    futures = [
        server.submit("water", s, pi, pj)
        for s, (pi, pj) in zip(frames, pair_lists)
    ]
    server.start()
    results = [f.result(WAIT) for f in futures]
    server.stop(timeout=WAIT)
    return server, results


def test_coalescing_is_structural(model, workload):
    """Deterministic: 32 pre-queued requests -> exactly ceil(32/8) = 4
    batched evaluations, perfect occupancy, bitwise results."""
    server, results = serve_all(model, workload, MAX_BATCH)
    snap = server.stats.snapshot()
    expected_batches = -(-N_REQUESTS // MAX_BATCH)
    assert snap["batches"] <= expected_batches  # the acceptance bound...
    assert snap["batches"] == expected_batches  # ...met exactly here
    assert snap["frames"] == N_REQUESTS
    assert snap["requests_completed"] == N_REQUESTS
    assert snap["occupancy"] == pytest.approx(N_REQUESTS / expected_batches)
    # the engine agrees: ONE graph execution per batch, none elsewhere
    engine = server._engines["water"]
    assert engine.batch_evaluations == expected_batches
    assert engine.frames_evaluated == N_REQUESTS
    # per-request correspondence stays bitwise under maximal coalescing
    frames, pair_lists = workload
    for s, (pi, pj), res in zip(frames[:4], pair_lists[:4], results[:4]):
        ref = model.evaluate(s, pi, pj)
        assert res.energy == ref.energy
        assert np.array_equal(res.forces, ref.forces)
        assert np.array_equal(res.virial, ref.virial)


def test_throughput_vs_unbatched_serving(model, workload):
    """The same serving stack with coalescing on (max_batch=16) vs off
    (max_batch=1): per-request cost must fall.  Paired interleaved trials,
    median ratio, gated on REPRO_BENCH_STRICT per the bench policy."""
    ratios = bench_paired_trials(
        lambda: serve_all(model, workload, max_batch=16),
        lambda: serve_all(model, workload, max_batch=1),
        trials=5,
    )
    median = float(np.median(ratios))
    best = float(np.min(ratios))
    print_header("Serving throughput — dynamic micro-batching vs per-request")
    print(f"{N_REQUESTS} pre-queued requests, 24-atom frames")
    print(f"batched serving runs at {median:.2f}x (median) / {best:.2f}x "
          f"(best) the cost of")
    print(f"unbatched serving ({1 / median:.2f}x throughput)")
    print("(fixed per-evaluation cost amortized across client requests —")
    print(" the paper's Sec 7 lesson applied behind a request queue)")
    if bench_strict():
        assert median < 0.95
        assert best < 0.9


# --------------------------------------------------------------------------
# Two-model traffic: one worker per model.  Bigger nets and frames than the
# coalescing workload above, so each batch spends most of its time inside
# GIL-releasing BLAS/ufunc kernels — the regime the two workers overlap in.

N_TWO_MODEL = 16
POOL_MAX_BATCH = 4


@pytest.fixture(scope="module")
def pool_models():
    cfg = dict(sel=(24, 48), rcut=4.0, embedding_layers=(16, 32, 64),
               fitting_layers=(64, 64, 64), axis_neuron=8)
    return (
        DeepPot(DPConfig.tiny(**cfg)),
        DeepPot(DPConfig.tiny(seed=7, **cfg)),
    )


@pytest.fixture(scope="module")
def two_model_workload(pool_models):
    model_a, _ = pool_models
    base = water_box((4, 4, 4), seed=0)  # 192-atom frames
    frames, pair_lists = [], []
    for k in range(N_TWO_MODEL):
        s = base.copy()
        rng = np.random.default_rng(2000 + k)
        s.positions = s.positions + rng.normal(scale=0.02, size=s.positions.shape)
        frames.append(s)
        pair_lists.append(neighbor_pairs(s, model_a.config.rcut))
    return frames, pair_lists


def serve_two_models(pool_models, workload):
    """Pre-queue interleaved a/b traffic, then serve it."""
    model_a, model_b = pool_models
    frames, pair_lists = workload
    server = InferenceServer(
        {"a": model_a, "b": model_b}, max_batch=POOL_MAX_BATCH,
        max_queue=0, autostart=False,
    )
    futures = [
        server.submit("a" if k % 2 == 0 else "b", s, pi, pj)
        for k, (s, (pi, pj)) in enumerate(zip(frames, pair_lists))
    ]
    server.start()
    results = [f.result(WAIT) for f in futures]
    server.stop(timeout=WAIT)
    return server, results


def test_two_model_pool_ownership_is_structural(pool_models, two_model_workload):
    """Deterministic: each model's worker coalesces its own 8 requests
    into ceil(8/4) = 2 batches, results bitwise."""
    server, results = serve_two_models(pool_models, two_model_workload)
    log = server.stats.batch_log
    per_model = -(-N_TWO_MODEL // 2 // POOL_MAX_BATCH)
    snap = server.stats.snapshot()
    for name in ("a", "b"):
        assert sum(rec.model == name for rec in log) == per_model
    assert snap["frames_per_model"] == {
        "a": N_TWO_MODEL // 2, "b": N_TWO_MODEL // 2
    }
    assert snap["requests_completed"] == N_TWO_MODEL
    model_a, model_b = pool_models
    frames, pair_lists = two_model_workload
    for k in (0, 1):  # one spot check per model
        ref = (model_a if k % 2 == 0 else model_b).evaluate(
            frames[k], *pair_lists[k]
        )
        assert results[k].energy == ref.energy
        assert np.array_equal(results[k].forces, ref.forces)
        assert np.array_equal(results[k].virial, ref.virial)
