"""Semantics of the micro-batching inference service (:mod:`repro.serving`).

Eight contracts, all asserted deterministically (no wall-clock thresholds —
see the bench-timing policy):

1. **correspondence** — every future resolves to *its own* frame's result,
   bitwise identical to a direct ``DeepPot.evaluate``, under concurrent
   submitters and regardless of batch composition or worker interleaving;
2. **FIFO fairness** — batches take requests in submission order; requests
   for other models keep their queue positions (no reordering, no mixing);
3. **backpressure** — a bounded queue rejects (or blocks) submissions at
   the configured depth and counts the rejections;
4. **shutdown** — drain completes every pending request, no-drain cancels
   them; either way the workers exit and later submissions are refused;
5. **stats** — the ``ServerStats`` counter block is an exact, reproducible
   function of the request schedule;
6. **worker pool** — per-model pools run each model's batches on that
   model's own worker over its own engine (never shared across threads),
   and shared pools give each worker private engines;
7. **deadlines** — a request abandoned at its client deadline is cancelled
   and counted exactly once, never completed; future metadata exists before
   any worker can resolve the future; hung client threads are joined
   against a deadline instead of forever;
8. **result cache** — repeated frames replay bitwise-identical results
   without re-entering the queue, ``invalidate`` forces recomputation,
   capacity evicts FIFO, and cached results are private copies (no client
   can corrupt another's replay by mutating a returned array).

Determinism device: ``server.paused()`` parks the workers between batches,
so a submission schedule can be staged in full before coalescing begins —
N pre-queued same-model requests then execute in exactly
``ceil(N / max_batch)`` batches.
"""

import threading
import time
from concurrent.futures import CancelledError
from concurrent.futures import TimeoutError as FutureTimeout

import numpy as np
import pytest

from repro.analysis.structures import water_box
from repro.dp.model import DeepPot, DPConfig
from repro.md.neighbor import neighbor_pairs
from repro.serving import (
    CrashWorker,
    FaultPlan,
    InferenceClient,
    InferenceRequest,
    InferenceServer,
    MicroBatchScheduler,
    QueueFull,
    RequestQueue,
    ServerClosed,
    ServerStats,
    WorkerCrashed,
)

WAIT = 60.0  # generous future timeouts; the suite never sleeps this long


@pytest.fixture(scope="module")
def model():
    return DeepPot(DPConfig.tiny(sel=(8, 16), rcut=3.0))


@pytest.fixture(scope="module")
def model_b(model):
    """A second, independently seeded model over the same type vocabulary —
    lets multi-model tests share one pool of water frames."""
    return DeepPot(DPConfig.tiny(sel=(8, 16), rcut=3.0, seed=7))


@pytest.fixture(scope="module")
def base():
    return water_box((2, 2, 2), seed=0)


def perturbed(base, n, seed0=0, scale=0.02):
    out = []
    for k in range(n):
        s = base.copy()
        rng = np.random.default_rng(seed0 + k)
        s.positions = s.positions + rng.normal(scale=scale, size=s.positions.shape)
        out.append(s)
    return out


def direct(model, system):
    return model.evaluate(system, *neighbor_pairs(system, model.config.rcut))


def assert_bitwise(result, reference):
    assert result.energy == reference.energy
    assert np.array_equal(result.forces, reference.forces)
    assert np.array_equal(result.virial, reference.virial)
    assert np.array_equal(result.atom_energies, reference.atom_energies)


class TestCorrespondence:
    def test_concurrent_submitters_bitwise(self, model, base):
        """4 closed-loop clients; every result corresponds to its own frame
        and is bitwise identical to a direct evaluation."""
        server = InferenceServer(
            {"water": model}, max_batch=4, max_wait_us=2000
        )
        served: dict[int, list] = {}

        def run_client(tid):
            client = server.client("water")
            frames = perturbed(base, 5, seed0=100 * tid)
            served[tid] = [(f, client.evaluate(f, timeout=WAIT)) for f in frames]

        threads = [
            threading.Thread(target=run_client, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        server.stop()
        assert server.stats.snapshot()["requests_completed"] == 20
        for results in served.values():
            for frame, result in results:
                assert_bitwise(result, direct(model, frame))

    def test_pipelined_futures_resolve_in_submission_order(self, model, base):
        frames = perturbed(base, 10)
        server = InferenceServer({"water": model}, max_batch=4, autostart=False)
        client = server.client()
        futures = [client.submit(f) for f in frames]
        server.start()
        results = [f.result(WAIT) for f in futures]
        server.stop()
        for frame, result in zip(frames, results):
            assert_bitwise(result, direct(model, frame))

    def test_mixed_boxes_take_general_path_bitwise(self, model, base):
        """Frames with different boxes cannot share the stacked fast
        path; the coalesced batch falls back to per-frame staging and stays
        bitwise."""
        small = perturbed(base, 1)[0]
        big = water_box((3, 3, 3), seed=3)
        server = InferenceServer({"water": model}, max_batch=4, autostart=False)
        futures = [server.submit("water", s) for s in (small, big)]
        server.start()
        results = [f.result(WAIT) for f in futures]
        server.stop()
        engine = server._engines["water"]
        assert engine.general_batches == 1
        assert engine.stacked_batches == 0
        assert server.stats.snapshot()["batches"] == 1
        assert_bitwise(results[0], direct(model, small))
        assert_bitwise(results[1], direct(model, big))

    def test_evaluate_many_round_trip(self, model, base):
        frames = perturbed(base, 6, seed0=50)
        with InferenceServer({"water": model}, max_batch=8) as server:
            results = server.client("water").evaluate_many(frames, timeout=WAIT)
        for frame, result in zip(frames, results):
            assert_bitwise(result, direct(model, frame))


class TestFifoFairness:
    def test_single_model_batches_are_fifo_runs(self, model, base):
        frames = perturbed(base, 10)
        server = InferenceServer({"water": model}, max_batch=4, autostart=False)
        futures = [server.submit("water", f) for f in frames]
        server.start()
        for f in futures:
            f.result(WAIT)
        server.stop()
        # per-model pool: the model's own worker (id == model name) ran all
        assert server.stats.batch_log == [
            ("water", (0, 1, 2, 3), "water"),
            ("water", (4, 5, 6, 7), "water"),
            ("water", (8, 9), "water"),
        ]

    def test_interleaved_models_never_mix_and_keep_order(
        self, model, model_b, base
    ):
        """Batches gather same-model requests FIFO, skipping (not
        reordering) the other model's requests.  A single shared worker
        (workers=1) pins the global batch order deterministically."""
        frames = perturbed(base, 8)
        server = InferenceServer(
            {"a": model, "b": model_b}, max_batch=4, workers=1, autostart=False
        )
        futures = []
        for k, frame in enumerate(frames):
            futures.append(server.submit("a" if k % 2 == 0 else "b", frame))
        server.start()
        results = [f.result(WAIT) for f in futures]
        server.stop()
        assert server.stats.batch_log == [
            ("a", (0, 2, 4, 6), "pool-0"),
            ("b", (1, 3, 5, 7), "pool-0"),
        ]
        for k, (frame, result) in enumerate(zip(frames, results)):
            assert_bitwise(result, direct(model if k % 2 == 0 else model_b, frame))

    def test_max_batch_one_serializes(self, model, base):
        frames = perturbed(base, 3)
        server = InferenceServer({"water": model}, max_batch=1, autostart=False)
        futures = [server.submit("water", f) for f in frames]
        server.start()
        for f in futures:
            f.result(WAIT)
        server.stop()
        snap = server.stats.snapshot()
        assert snap["batches"] == 3
        assert snap["max_batch_frames"] == 1


class TestBackpressure:
    def test_bounded_queue_rejects_when_full(self, model, base):
        frames = perturbed(base, 5)
        server = InferenceServer(
            {"water": model}, max_batch=8, max_queue=3, autostart=False
        )
        held = [server.submit("water", f, block=False) for f in frames[:3]]
        with pytest.raises(QueueFull):
            server.submit("water", frames[3], block=False)
        with pytest.raises(QueueFull):
            server.submit("water", frames[4], block=True, timeout=0.05)
        snap = server.stats.snapshot()
        assert snap["requests_rejected"] == 2
        assert snap["requests_submitted"] == 3
        server.start()
        for f in held:
            f.result(WAIT)
        server.stop()
        assert server.stats.snapshot()["requests_completed"] == 3

    def test_client_evaluate_timeout_bounds_the_enqueue_wait(self, model, base):
        """A stalled server with a full queue must not hang a synchronous
        client past its timeout — admission is bounded too."""
        server = InferenceServer(
            {"water": model}, max_batch=8, max_queue=1, autostart=False
        )
        server.submit("water", base)  # fills the queue; worker never runs
        client = server.client("water")
        with pytest.raises(QueueFull):
            client.evaluate(perturbed(base, 1)[0], timeout=0.05)
        with pytest.raises(QueueFull):
            client.evaluate_many(perturbed(base, 1, seed0=9), timeout=0.05)
        server.stop(drain=False)

    def test_blocked_submitter_proceeds_when_space_frees(self, model, base):
        frames = perturbed(base, 4)
        server = InferenceServer(
            {"water": model}, max_batch=2, max_queue=3, autostart=False
        )
        first = [server.submit("water", f) for f in frames[:3]]
        fourth = {}

        def blocked_submit():
            fourth["future"] = server.submit("water", frames[3], block=True)

        t = threading.Thread(target=blocked_submit)
        t.start()
        server.start()  # worker drains the queue, freeing space
        t.join(WAIT)
        assert not t.is_alive()
        for f in first + [fourth["future"]]:
            assert f.result(WAIT) is not None
        server.stop()
        assert server.stats.snapshot()["requests_completed"] == 4


class TestShutdown:
    def test_drain_completes_pending_requests(self, model, base):
        frames = perturbed(base, 5)
        server = InferenceServer({"water": model}, max_batch=2, autostart=False)
        futures = [server.submit("water", f) for f in frames]
        server.start()
        server.stop(drain=True, timeout=WAIT)
        assert not server.running
        for frame, f in zip(frames, futures):
            assert_bitwise(f.result(timeout=0), direct(model, frame))
        snap = server.stats.snapshot()
        assert snap["requests_completed"] == 5
        assert snap["requests_cancelled"] == 0

    def test_no_drain_cancels_pending_futures(self, model, base):
        frames = perturbed(base, 5)
        server = InferenceServer({"water": model}, max_batch=2, autostart=False)
        futures = [server.submit("water", f) for f in frames]
        # worker never started: everything is still pending
        server.stop(drain=False, timeout=WAIT)
        for f in futures:
            assert f.cancelled()
            with pytest.raises(CancelledError):
                f.result(timeout=0)
        snap = server.stats.snapshot()
        assert snap["requests_cancelled"] == 5
        assert snap["requests_completed"] == 0

    def test_submit_after_stop_is_refused(self, model, base):
        server = InferenceServer({"water": model}, max_batch=2)
        server.stop()
        with pytest.raises(ServerClosed):
            server.submit("water", base)
        with pytest.raises(ServerClosed):
            server.start()

    def test_stop_while_paused_still_drains(self, model, base):
        frames = perturbed(base, 3)
        server = InferenceServer({"water": model}, max_batch=4)
        server.pause()
        futures = [server.submit("water", f) for f in frames]
        server.stop(drain=True, timeout=WAIT)
        for f in futures:
            assert f.result(timeout=0) is not None
        # maximal coalescing: everything was pending when the worker woke
        assert server.stats.snapshot()["batches"] == 1

    def test_closed_loop_helper_reraises_client_failures(self, model, base):
        """A broken serving stack must surface as an error from the load
        helper, never as a silently empty result set (which would let
        `repro validate` pass vacuously)."""
        from repro.serving import perturbed_frames, run_closed_loop_clients

        class BoomEngine:
            def evaluate_batch(self, systems, pair_lists, backend="optimized"):
                raise RuntimeError("boom")

        server = InferenceServer({"water": model}, max_batch=4)
        server._engines["water"] = BoomEngine()
        with pytest.raises(RuntimeError, match="serving client 0 failed"):
            run_closed_loop_clients(
                server, "water", {0: perturbed_frames(base, 1)}, timeout=WAIT
            )
        server.stop(drain=False)

    def test_failed_batch_poisons_only_its_futures(self, model, base):
        class BoomEngine:
            def evaluate_batch(self, systems, pair_lists, backend="optimized"):
                raise RuntimeError("boom")

        frames = perturbed(base, 2)
        server = InferenceServer(
            {"water": model, "boom": model}, max_batch=4, autostart=False
        )
        server._engines["boom"] = BoomEngine()
        bad = server.submit("boom", frames[0])
        good = server.submit("water", frames[1])
        server.start()
        with pytest.raises(RuntimeError, match="boom"):
            bad.result(WAIT)
        assert_bitwise(good.result(WAIT), direct(model, frames[1]))
        server.stop()
        snap = server.stats.snapshot()
        assert snap["requests_failed"] == 1
        assert snap["requests_completed"] == 1


class TestStatsAndRegistry:
    def test_counters_are_exact(self, model, base):
        frames = perturbed(base, 5)
        server = InferenceServer({"water": model}, max_batch=4, autostart=False)
        futures = [server.submit("water", f) for f in frames]
        server.start()
        for f in futures:
            f.result(WAIT)
        server.stop()
        snap = server.stats.snapshot()
        assert snap["requests_submitted"] == 5
        assert snap["requests_completed"] == 5
        assert snap["requests_failed"] == 0
        assert snap["batches"] == 2  # ceil(5 / 4)
        assert snap["frames"] == 5
        assert snap["occupancy"] == pytest.approx(2.5)
        assert snap["max_batch_frames"] == 4
        assert snap["frames_per_model"] == {"water": 5}
        assert server.stats.pending() == 0
        report = server.stats.report()
        assert "occupancy 2.50" in report
        assert "water: 5" in report

    def test_batch_log_is_bounded_but_counters_are_complete(self):
        stats = ServerStats(batch_log_limit=2)
        for k in range(5):
            stats.record_batch("m", (k,), (0.0,), worker="w0")
        assert stats.batch_log == [("m", (3,), "w0"), ("m", (4,), "w0")]
        assert stats.batches == 5
        assert stats.frames == 5
        assert stats.frames_per_worker == {"w0": 5}
        assert stats.batches_per_worker == {"w0": 5}

    def test_registry_rejects_duplicates_and_unknown_names(self, model, base):
        server = InferenceServer({"water": model}, autostart=False)
        with pytest.raises(ValueError):
            server.register("water", model)
        with pytest.raises(KeyError):
            server.submit("copper", base)
        with pytest.raises(KeyError):
            InferenceClient(server, "copper")
        assert server.model_names() == ["water"]
        assert server.model("water") is model

    def test_default_client_needs_unambiguous_model(self, model, model_b):
        server = InferenceServer({"a": model, "b": model_b}, autostart=False)
        with pytest.raises(ValueError):
            server.client()
        assert server.client("a").model == "a"

    def test_client_pair_list_validation(self, model, base):
        server = InferenceServer({"water": model}, autostart=False)
        client = server.client()
        with pytest.raises(ValueError):
            client.evaluate_many([base, base], pair_lists=[(None, None)])

    def test_future_carries_request_metadata(self, model, base):
        server = InferenceServer({"water": model}, autostart=False)
        fut = server.submit("water", base)
        assert isinstance(fut.request, InferenceRequest)
        assert fut.request.seq == 0
        assert fut.request.model == "water"
        server.stop(drain=False)


class TestQueueAndScheduler:
    def test_seq_stamping_is_admission_order(self):
        q = RequestQueue(maxsize=4)
        reqs = [
            InferenceRequest("m", None, None, None) for _ in range(3)
        ]
        for r in reqs:
            q.put(r)
        assert [r.seq for r in reqs] == [0, 1, 2]
        assert len(q) == 3

    def test_pop_batch_gathers_same_key_fifo(self):
        q = RequestQueue(maxsize=0)
        for name in ["a", "b", "a", "a", "b"]:
            q.put(InferenceRequest(name, None, None, None))
        batch = q.pop_batch(max_batch=2, max_wait=0.0)
        assert [r.seq for r in batch] == [0, 2]
        batch = q.pop_batch(max_batch=8, max_wait=0.0)
        assert [r.seq for r in batch] == [1, 4]  # b-requests kept their order
        batch = q.pop_batch(max_batch=8, max_wait=0.0)
        assert [r.seq for r in batch] == [3]

    def test_pop_batch_only_restricts_to_one_key(self):
        """A per-model consumer draws exclusively on its model, leaving
        other models' requests (even older ones) untouched."""
        q = RequestQueue(maxsize=0)
        for name in ["a", "a", "b", "a", "b"]:
            q.put(InferenceRequest(name, None, None, None))
        batch = q.pop_batch(max_batch=8, max_wait=0.0, only="b")
        assert [r.seq for r in batch] == [2, 4]
        assert q.pending_by_key() == {"a": 3}
        batch = q.pop_batch(max_batch=2, max_wait=0.0, only="a")
        assert [r.seq for r in batch] == [0, 1]

    def test_per_key_counts_and_single_key_derivation(self):
        """The queue maintains per-key pending counts under its lock and
        computes each request's key exactly once, at admission — the fill
        loop never rescans the queue re-deriving keys (the O(queue)-per-
        wakeup fix)."""
        q = RequestQueue(maxsize=0)
        for name in ["a", "b", "a", "b", "b", "c"]:
            q.put(InferenceRequest(name, None, None, None))
        assert q.pending_by_key() == {"a": 2, "b": 3, "c": 1}
        assert q.key_calls == 6
        q.pop_batch(max_batch=8, max_wait=0.0)        # takes the a-run
        q.pop_batch(max_batch=1, max_wait=0.0, only="b")
        assert q.pending_by_key() == {"b": 2, "c": 1}
        assert len(q) == 3
        assert q.key_calls == 6  # pops never re-derived a key

    def test_pop_batch_drops_cancelled_requests(self):
        """Requests whose futures were cancelled while queued are discarded
        (reported via on_drop exactly once), never returned in a batch."""
        drops = []
        q = RequestQueue(maxsize=0, on_drop=drops.append)
        reqs = [InferenceRequest("m", None, None, None) for _ in range(4)]
        for r in reqs:
            q.put(r)
        assert reqs[0].future.cancel()
        assert reqs[2].future.cancel()
        batch = q.pop_batch(max_batch=8, max_wait=0.0)
        assert [r.seq for r in batch] == [1, 3]
        assert sum(drops) == 2
        assert len(q) == 0

    def test_cancel_frees_bounded_slot_without_a_consumer(self):
        """Cancelling a queued request frees its bounded-queue slot
        immediately — a blocked submitter must not starve behind dead
        requests when no worker is consuming."""
        drops = []
        q = RequestQueue(maxsize=2, on_drop=drops.append)
        reqs = [InferenceRequest("m", None, None, None) for _ in range(2)]
        for r in reqs:
            q.put(r)
        with pytest.raises(QueueFull):
            q.put(InferenceRequest("m", None, None, None), block=False)
        assert reqs[0].future.cancel()
        assert len(q) == 1  # the slot opened with no pop_batch involved
        late = q.put(InferenceRequest("m", None, None, None), block=False)
        assert late.seq == 2  # the refused put above consumed no seq
        assert sum(drops) == 1
        batch = q.pop_batch(max_batch=8, max_wait=0.0)
        assert [r.seq for r in batch] == [1, 2]
        assert sum(drops) == 1  # the earlier cancel is never re-counted

    def test_closed_queue_refuses_puts_and_drains(self):
        q = RequestQueue(maxsize=4)
        q.put(InferenceRequest("m", None, None, None))
        q.close()
        with pytest.raises(ServerClosed):
            q.put(InferenceRequest("m", None, None, None))
        batch = q.pop_batch(max_batch=4, max_wait=1.0)
        assert len(batch) == 1  # close cuts the wait budget short
        assert q.pop_batch(4, 0.0) is None
        assert q.pop_batch(4, 0.0, only="m") is None

    def test_close_and_drain_returns_pending(self):
        q = RequestQueue(maxsize=4)
        reqs = [
            InferenceRequest(name, None, None, None)
            for name in ["a", "b", "a"]
        ]
        for r in reqs:
            q.put(r)
        assert q.close_and_drain() == reqs  # global admission order
        assert len(q) == 0

    def test_scheduler_validates_policy(self):
        q = RequestQueue()
        with pytest.raises(ValueError):
            MicroBatchScheduler(q, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatchScheduler(q, max_wait_us=-1.0)

    def test_server_validates_workers(self, model):
        with pytest.raises(ValueError):
            InferenceServer({"water": model}, workers=0, autostart=False)
        with pytest.raises(ValueError):
            InferenceServer({"water": model}, workers="three", autostart=False)


class TestWorkerPool:
    """The multi-worker serving pool (one worker per model by default)."""

    def test_per_model_workers_concurrent_two_model_bitwise(
        self, model, model_b, base
    ):
        """Genuinely concurrent 2-model load on a per-model pool: every
        served result is bitwise identical to a direct evaluation, every
        batch of a model ran on that model's own worker, and per-model
        dispatch order is FIFO regardless of worker interleaving."""
        server = InferenceServer(
            {"a": model, "b": model_b}, max_batch=4, max_wait_us=2000
        )
        assert sorted(server.worker_ids()) == ["a", "b"]
        served: dict[tuple, list] = {}

        def run_client(name, mdl, tid):
            client = server.client(name)
            frames = perturbed(base, 4, seed0=1000 * tid)
            served[(name, tid)] = [
                (mdl, f, client.evaluate(f, timeout=WAIT)) for f in frames
            ]

        threads = [
            threading.Thread(target=run_client, args=(name, mdl, tid))
            for tid, (name, mdl) in enumerate(
                [("a", model), ("a", model), ("b", model_b), ("b", model_b)]
            )
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(WAIT)
        assert not any(t.is_alive() for t in threads)
        server.stop()
        for results in served.values():
            for mdl, frame, result in results:
                assert_bitwise(result, direct(mdl, frame))
        log = server.stats.batch_log
        # each model's batches executed by its own worker, FIFO per model
        assert log and all(rec.worker == rec.model for rec in log)
        for name in ("a", "b"):
            seqs = [s for rec in log if rec.model == name for s in rec.seqs]
            assert len(seqs) == 8
            assert seqs == sorted(seqs)
        snap = server.stats.snapshot()
        assert snap["requests_completed"] == 16
        assert snap["frames_per_worker"] == {"a": 8, "b": 8}

    def test_per_model_prequeued_coalescing_is_deterministic(
        self, model, model_b, base
    ):
        """Pre-queued interleaved 2-model traffic: each worker coalesces
        its own model's FIFO runs into exactly ceil(8/4) = 2 batches —
        batch contents are deterministic even though the two workers run
        concurrently (only the global log interleaving is free)."""
        frames = perturbed(base, 16)
        server = InferenceServer(
            {"a": model, "b": model_b}, max_batch=4, autostart=False
        )
        futures = [
            server.submit("a" if k % 2 == 0 else "b", f)
            for k, f in enumerate(frames)
        ]
        server.start()
        for f in futures:
            f.result(WAIT)
        server.stop()
        log = server.stats.batch_log
        assert [rec.seqs for rec in log if rec.model == "a"] == [
            (0, 2, 4, 6), (8, 10, 12, 14)
        ]
        assert [rec.seqs for rec in log if rec.model == "b"] == [
            (1, 3, 5, 7), (9, 11, 13, 15)
        ]
        assert all(rec.worker == rec.model for rec in log)
        assert server.stats.snapshot()["batches_per_worker"] == {
            "a": 2, "b": 2
        }

    def test_shared_pool_workers_hold_private_engines(
        self, model, model_b, base
    ):
        """workers=N shared pool: any worker may serve any model, but no
        engine object is ever owned by two workers (scratch pools and plan
        arenas are single-threaded state)."""
        server = InferenceServer(
            {"a": model, "b": model_b}, max_batch=2, max_wait_us=1000,
            workers=2,
        )
        assert server.worker_ids() == ["pool-0", "pool-1"]
        served = []

        def run_client(name, mdl, tid):
            client = server.client(name)
            for f in perturbed(base, 3, seed0=500 * tid):
                served.append((mdl, f, client.evaluate(f, timeout=WAIT)))

        threads = [
            threading.Thread(target=run_client, args=(name, mdl, tid))
            for tid, (name, mdl) in enumerate(
                [("a", model), ("b", model_b), ("a", model)]
            )
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(WAIT)
        server.stop()
        for mdl, frame, result in served:
            assert_bitwise(result, direct(mdl, frame))
        engine_owners: dict[int, str] = {}
        for w in server._workers:
            for engine in w.engines.values():
                assert id(engine) not in engine_owners, (
                    f"engine shared by {engine_owners[id(engine)]} and {w.wid}"
                )
                engine_owners[id(engine)] = w.wid
        assert server.stats.snapshot()["requests_completed"] == 9

    def test_per_worker_engines_stop_allocating_steady_state(
        self, model, model_b, base
    ):
        """Zero steady-state arena allocations per worker engine: a second
        identical round of 2-model traffic grows only ``runs``."""
        server = InferenceServer(
            {"a": model, "b": model_b}, max_batch=4, max_wait_us=0.0
        )
        frames = perturbed(base, 8)

        def round_trip():
            with server.paused():
                futs = [
                    server.submit("a" if k % 2 == 0 else "b", f)
                    for k, f in enumerate(frames)
                ]
            for f in futs:
                f.result(WAIT)

        round_trip()  # warm: builds each worker engine's batch-4 arena
        es1 = server.executor_stats()
        round_trip()  # steady state: identical shapes, zero new allocs
        es2 = server.executor_stats()
        server.stop()
        for name in ("a", "b"):
            assert es2[name]["topo_sorts"] == 1
            assert es2[name]["arena_allocs"] == es1[name]["arena_allocs"]
            assert es2[name]["arena_builds"] == es1[name]["arena_builds"]
            assert es2[name]["runs"] == es1[name]["runs"] + 1
        snap = server.stats.snapshot()
        assert snap["frames_per_worker"] == {"a": 8, "b": 8}

    def test_register_on_running_per_model_pool_spawns_worker(
        self, model, model_b, base
    ):
        server = InferenceServer({"a": model}, max_batch=4)
        assert server.worker_ids() == ["a"]
        server.register("b", model_b)
        assert sorted(server.worker_ids()) == ["a", "b"]
        result = server.client("b").evaluate(base, timeout=WAIT)
        server.stop()
        assert_bitwise(result, direct(model_b, base))
        assert server.stats.batch_log[-1].worker == "b"

    def test_register_first_model_on_started_empty_server(self, model, base):
        """A per-model server started with zero models must still spawn a
        worker when its first model arrives (zero live workers does not
        mean "not started")."""
        server = InferenceServer()  # autostart=True, nothing registered yet
        assert server.worker_ids() == []
        server.register("water", model)
        assert server.worker_ids() == ["water"]
        result = server.client("water").evaluate(base, timeout=WAIT)
        server.stop()
        assert_bitwise(result, direct(model, base))

    def test_engine_concurrent_entry_raises(self, model, base):
        """The one-engine-one-thread invariant is guarded, not just
        documented: entering an engine that another thread is inside
        raises instead of corrupting scratch state."""
        from repro.dp.batch import BatchedEvaluator
        from repro.md.neighbor import neighbor_pairs as pairs

        engine = BatchedEvaluator(model)
        engine._active_thread = -1  # simulate another thread mid-evaluation
        with pytest.raises(RuntimeError, match="concurrently"):
            engine.evaluate_batch([base], [pairs(base, model.config.rcut)])
        engine._active_thread = None
        results = engine.evaluate_batch(
            [base], [pairs(base, model.config.rcut)]
        )
        assert_bitwise(results[0], direct(model, base))


class TestDeadlinesAndMetadata:
    """The serving-layer race & deadline fixes (PR 4 satellites)."""

    def test_metadata_attached_before_enqueue(self, model, base, monkeypatch):
        """``future.request`` must exist before the request becomes visible
        to any worker — a done-callback firing the instant the put returns
        already sees the metadata."""
        server = InferenceServer({"water": model}, autostart=False)
        attached_at_put = []
        orig_put = server.queue.put

        def spy_put(request, **kwargs):
            attached_at_put.append(
                getattr(request.future, "request", None) is request
            )
            return orig_put(request, **kwargs)

        monkeypatch.setattr(server.queue, "put", spy_put)
        fut = server.submit("water", base)
        assert attached_at_put == [True]
        assert fut.request.model == "water"
        server.stop(drain=False)

    def test_timeout_cancels_queued_request_counted_once(self, model, base):
        """A client that abandons its deadline cancels the queued request,
        which leaves the queue immediately — counted in requests_cancelled
        exactly once, never in requests_completed, and it burns no batch
        slot."""
        server = InferenceServer({"water": model}, max_batch=4, max_wait_us=0)
        server.pause()  # worker parked: the request will sit queued
        client = server.client("water")
        abandoned = perturbed(base, 1)[0]
        with pytest.raises(FutureTimeout):
            client.evaluate(abandoned, timeout=0.05)
        # the cancel freed the queue slot and counted, with no worker help
        snap = server.stats.snapshot()
        assert snap["requests_cancelled"] == 1
        assert len(server.queue) == 0
        live = client.submit(perturbed(base, 1, seed0=9)[0])
        server.resume()
        live.result(WAIT)
        server.stop()
        snap = server.stats.snapshot()
        assert snap["requests_cancelled"] == 1  # exactly once
        assert snap["requests_completed"] == 1
        assert snap["frames"] == 1  # the dropped request used no batch slot
        assert server.stats.pending() == 0
        # the executed batch contains only the live request's seq
        assert [rec.seqs for rec in server.stats.batch_log] == [(1,)]

    def test_timeout_cancel_then_no_drain_stop_counted_once(self, model, base):
        """The drain path must not double-count a request the client
        already cancelled."""
        server = InferenceServer({"water": model}, max_batch=4)
        server.pause()
        client = server.client("water")
        with pytest.raises(FutureTimeout):
            client.evaluate(base, timeout=0.05)
        server.stop(drain=False)
        snap = server.stats.snapshot()
        assert snap["requests_cancelled"] == 1
        assert snap["requests_completed"] == 0
        assert server.stats.pending() == 0

    def test_evaluate_many_cancels_pending_on_timeout(self, model, base):
        server = InferenceServer({"water": model}, max_batch=4)
        server.pause()
        client = server.client("water")
        frames = perturbed(base, 3, seed0=77)
        with pytest.raises(FutureTimeout):
            client.evaluate_many(frames, timeout=0.05)
        server.resume()  # workers drop the whole abandoned stack
        server.stop()
        snap = server.stats.snapshot()
        assert snap["requests_cancelled"] == 3
        assert snap["requests_completed"] == 0
        assert snap["frames"] == 0  # no batch ever executed
        assert server.stats.pending() == 0

    def test_evaluate_many_cancels_stack_on_midstream_backpressure(
        self, model, base
    ):
        """A mid-stack QueueFull abandons the whole stack: the frames that
        DID get queued are cancelled, freeing their queue slots, instead of
        holding the bounded queue full for results nobody will read."""
        server = InferenceServer({"water": model}, max_batch=4, max_queue=2)
        server.pause()
        client = server.client("water")
        frames = perturbed(base, 4, seed0=31)
        with pytest.raises(QueueFull):
            client.evaluate_many(frames, timeout=0.05)
        server.resume()  # workers drop the two queued, now-cancelled frames
        server.stop()
        snap = server.stats.snapshot()
        assert snap["requests_cancelled"] == 2
        assert snap["requests_completed"] == 0
        assert snap["requests_rejected"] == 1
        assert snap["frames"] == 0
        assert server.stats.pending() == 0

    def test_hung_clients_fail_the_join_deadline(self, model, base):
        """A stalled server must fail run_closed_loop_clients at its join
        deadline with per-client progress, not hang forever."""
        from repro.serving import run_closed_loop_clients

        server = InferenceServer({"water": model})
        server.pause()  # nothing will ever be served
        frame_sets = {
            0: perturbed(base, 2, seed0=1),
            1: perturbed(base, 2, seed0=5),
        }
        with pytest.raises(RuntimeError, match=r"0/2 frames done"):
            run_closed_loop_clients(
                server, "water", frame_sets, timeout=WAIT, join_timeout=0.3
            )
        # unwind: cancel pending so the daemonic client threads exit
        server.stop(drain=False)


class TestResultCache:
    """The frame-content result cache: hits are bitwise replays, invalidate
    forces recomputation, capacity evicts FIFO, and concurrent clients can
    never corrupt each other's results through the cache."""

    def test_hit_on_repeated_frame_is_bitwise(self, model, base):
        server = InferenceServer({"water": model}, cache_size=8)
        client = server.client("water")
        first = client.evaluate(base, timeout=WAIT)
        second = client.evaluate(base, timeout=WAIT)
        server.stop()
        assert_bitwise(first, direct(model, base))
        assert_bitwise(second, first)
        snap = server.stats.snapshot()
        assert snap["cache_hits"] == 1
        assert snap["cache_misses"] == 1
        # the hit completed without entering the queue: one batch total,
        # but conservation still holds
        assert snap["batches"] == 1
        assert snap["requests_completed"] == 2
        assert snap["requests_submitted"] == 2

    def test_miss_after_invalidate(self, model, base):
        server = InferenceServer({"water": model}, cache_size=8)
        client = server.client("water")
        warm = client.evaluate(base, timeout=WAIT)
        assert server.invalidate_cache("water") == 1
        cold = client.evaluate(base, timeout=WAIT)  # recomputed, not replayed
        server.stop()
        assert_bitwise(cold, warm)
        snap = server.stats.snapshot()
        assert snap["cache_hits"] == 0
        assert snap["cache_misses"] == 2
        assert snap["batches"] == 2
        # invalidation is not capacity pressure
        assert snap["cache_evictions"] == 0
        assert server.invalidate_cache() == 1  # the recomputed entry

    def test_eviction_at_capacity_is_fifo(self, model, base):
        server = InferenceServer({"water": model}, cache_size=2)
        client = server.client("water")
        frames = perturbed(base, 3, seed0=11)
        for f in frames:
            client.evaluate(f, timeout=WAIT)
        # cache holds frames[1], frames[2]; frames[0] was evicted FIFO
        assert len(server.cache) == 2
        assert server.stats.snapshot()["cache_evictions"] == 1
        client.evaluate(frames[1], timeout=WAIT)  # hit: still resident
        client.evaluate(frames[0], timeout=WAIT)  # miss: was evicted
        server.stop()
        snap = server.stats.snapshot()
        assert snap["cache_hits"] == 1
        assert snap["cache_misses"] == 4
        assert snap["cache_evictions"] == 2  # frames[0]'s re-insert evicted

    def test_disabled_cache_is_invisible(self, model, base):
        server = InferenceServer({"water": model})  # cache_size=0
        client = server.client("water")
        client.evaluate(base, timeout=WAIT)
        client.evaluate(base, timeout=WAIT)
        server.stop()
        snap = server.stats.snapshot()
        assert snap["cache_hits"] == 0
        assert snap["cache_misses"] == 0
        assert snap["batches"] == 2

    def test_concurrent_two_client_load_bitwise(self, model, base):
        """Two closed-loop clients hammer an overlapping frame set; every
        result is bitwise identical to a direct evaluation even though many
        are cache replays, and mutating a returned array cannot poison the
        cache for the other client."""
        frames = perturbed(base, 4, seed0=23)
        refs = [direct(model, f) for f in frames]
        server = InferenceServer(
            {"water": model}, max_batch=4, max_wait_us=2000, cache_size=16
        )
        done: dict[int, int] = {0: 0, 1: 0}
        errors: list[BaseException] = []

        def run(tid: int):
            client = server.client("water")
            try:
                for _ in range(3):  # 3 passes over the shared frames
                    for k, f in enumerate(frames):
                        r = client.evaluate(f, timeout=WAIT)
                        assert_bitwise(r, refs[k])
                        done[tid] += 1
                        # adversarial aliasing: scribble on the returned
                        # arrays; the cache must hand out private copies,
                        # so the other client's replays stay pristine
                        r.forces += 1e30
                        r.virial += 1e30
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(t,)) for t in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(WAIT)
        server.stop()
        assert not errors, errors
        assert done == {0: 12, 1: 12}
        snap = server.stats.snapshot()
        # 12 requests/client; at most 4 distinct frames ever need computing,
        # and each miss can be charged at most once per client (a frame is
        # only recomputed if both clients missed it before either insert)
        assert snap["cache_hits"] >= 24 - 2 * 4
        assert snap["cache_hits"] + snap["cache_misses"] == 24
        assert snap["requests_completed"] == 24


class TestPriorityStarvation:
    """Priority + EDF dispatch under sustained mixed-priority load.

    The hazard: with ``order_key() = (-priority, deadline, seq)``, a steady
    stream of priority-1 traffic could in principle starve the priority-0
    class forever.  The determinism device is the paused-preload round: each
    round stages its full mixed schedule before the workers run, so the
    dispatch order recorded in ``batch_log`` is an exact function of the
    order keys — no wall-clock races.  Across rounds the load is sustained
    (new high-priority work keeps arriving), yet every round's priority-0
    requests complete before the next round begins, and their displacement
    behind their FIFO position is bounded by the number of co-pending
    high-priority requests.  That bound *is* the no-starvation statement.
    """

    ROUNDS = 4
    N_LO = 4  # priority 0, no deadline (the background class)
    N_HI = 2  # priority 1, deadlines reversed vs submission order

    def test_sustained_mixed_load_edf_and_bounded_displacement(
        self, model, base
    ):
        server = InferenceServer({"water": model}, max_batch=2, max_wait_us=0)
        completed = 0
        for r in range(self.ROUNDS):
            frames = perturbed(base, self.N_LO + self.N_HI, seed0=3000 + 10 * r)
            log_before = len(server.stats.batch_log)
            with server.paused():
                pending = []  # (frame, future) in submission order
                for k in range(self.N_LO):
                    fut = server.submit("water", frames[k], priority=0)
                    pending.append((frames[k], fut))
                # Reversed deadlines within the high class: the *later*
                # submission carries the *earlier* deadline, so plain
                # priority-then-FIFO would dispatch them in the wrong
                # order — only EDF produces the expected log.
                fut_late = server.submit(
                    "water", frames[self.N_LO], priority=1, deadline=90.0
                )
                fut_soon = server.submit(
                    "water", frames[self.N_LO + 1], priority=1, deadline=60.0
                )
                pending.append((frames[self.N_LO], fut_late))
                pending.append((frames[self.N_LO + 1], fut_soon))
            # no starvation: the whole round drains, priority 0 included,
            # before the next round's high-priority wave arrives — and
            # every result is bitwise its own frame's evaluation
            for f, fut in pending:
                assert_bitwise(fut.result(WAIT), direct(model, f))
            completed += len(pending)

            seqs = [fut.request.seq for _, fut in pending]
            lo_seqs, hi_seqs = seqs[: self.N_LO], seqs[self.N_LO:]
            batches = server.stats.batch_log[log_before:]
            assert all(b.model == "water" for b in batches)
            dispatched = [s for b in batches for s in b.seqs]
            # EDF within the high class (soon before late despite later
            # submission), then the background class in FIFO seq order
            assert dispatched == [hi_seqs[1], hi_seqs[0]] + lo_seqs
            # batch composition: the high class fills the first batch
            # alone; priority 0 coalesces in submission order behind it
            assert [list(b.seqs) for b in batches] == [
                [hi_seqs[1], hi_seqs[0]],
                lo_seqs[:2],
                lo_seqs[2:],
            ]
            # bounded displacement: a priority-0 request is pushed back at
            # most N_HI slots from its FIFO position — never unboundedly
            for fifo_pos, s in enumerate(lo_seqs):
                assert dispatched.index(s) - fifo_pos <= self.N_HI

        server.stop()
        snap = server.stats.snapshot()
        assert snap["requests_completed"] == completed
        assert snap["requests_submitted"] == completed
        assert snap["requests_failed"] == snap["requests_cancelled"] == 0


class TestCacheUnderCrash:
    """ResultCache x WorkerCrashed: a crash poisons exactly the crashed
    model's cached entries.  Anything the dead engine produced may not be
    replayed (its mid-batch state is suspect), so those entries drop and
    recompute; every *other* model's entries keep serving hits — including
    during the window where the crashed worker is down."""

    def _wait_respawn(self, server, n=1):
        """The crash cleanup runs on the dying worker thread *after* it
        fails the futures; poll (bounded) until invalidation + respawn have
        been recorded before touching the cache again."""
        deadline = time.perf_counter() + WAIT
        while server.stats.snapshot()["worker_respawns"] < n:
            assert time.perf_counter() < deadline, "respawn never recorded"
            time.sleep(0.005)

    def test_crash_invalidates_only_the_crashed_models_entries(
        self, model, model_b, base
    ):
        plan = FaultPlan([CrashWorker(worker="a", at_batch=2)])
        server = InferenceServer(
            {"a": model, "b": model_b}, cache_size=8, faults=plan
        )
        fa, fb, fa2 = perturbed(base, 3, seed0=41)
        # prime both caches (two misses), then replay both (two hits)
        ra = server.submit("a", fa).result(WAIT)
        rb = server.submit("b", fb).result(WAIT)
        assert_bitwise(server.submit("a", fa).result(WAIT), ra)
        assert_bitwise(server.submit("b", fb).result(WAIT), rb)
        # a fresh frame for model a: misses the cache, reaches worker "a"
        # as its 2nd batch, and dies there
        with pytest.raises(WorkerCrashed):
            server.submit("a", fa2).result(WAIT)
        self._wait_respawn(server)
        snap = server.stats.snapshot()
        assert snap["worker_crashes"] == 1
        assert snap["worker_respawns"] == 1
        assert snap["cache_invalidations"] == 1  # a's entry, not b's
        assert plan.fired(CrashWorker) == 1
        # model a's entry is gone: the same frame recomputes (a miss) on
        # the respawned worker's fresh engine, bitwise equal to before
        assert_bitwise(server.submit("a", fa).result(WAIT), ra)
        # model b's entry survived the crash: still a replay, no new batch
        assert_bitwise(server.submit("b", fb).result(WAIT), rb)
        server.stop()
        snap = server.stats.snapshot()
        assert snap["cache_hits"] == 3  # a-replay, b-replay, b-after-crash
        assert snap["cache_misses"] == 4  # a, b, crashed fa2, a-recompute
        assert snap["requests_submitted"] == 7
        assert snap["requests_completed"] == 6
        assert snap["requests_failed"] == 1
        assert snap["requests_cancelled"] == 0

    def test_cache_hits_serve_while_another_worker_is_down(
        self, model, model_b, base
    ):
        """Replays never touch the queue, so model b's cached frame keeps
        serving even while model a's only worker slot is dead *for good*
        (``max_respawns=0`` — the crash-loop stop, not a transient gap)."""
        plan = FaultPlan([CrashWorker(worker="a", at_batch=1)])
        server = InferenceServer(
            {"a": model, "b": model_b},
            cache_size=8,
            faults=plan,
            max_respawns=0,
        )
        fa, fb = perturbed(base, 2, seed0=53)
        warm_b = server.submit("b", fb).result(WAIT)
        with pytest.raises(WorkerCrashed):
            server.submit("a", fa).result(WAIT)
        # a's slot is permanently down (and a had nothing cached, so the
        # crash dropped zero entries); b's replay path is queue-free and
        # keeps answering bitwise
        for _ in range(3):
            assert_bitwise(server.submit("b", fb).result(WAIT), warm_b)
        snap = server.stats.snapshot()
        assert snap["worker_crashes"] == 1
        assert snap["worker_respawns"] == 0
        assert snap["cache_invalidations"] == 0
        assert snap["cache_hits"] == 3
        server.stop(drain=False)

    def test_crash_with_cache_disabled_counts_no_invalidations(
        self, model, base
    ):
        plan = FaultPlan([CrashWorker(worker="water", at_batch=1)])
        server = InferenceServer({"water": model}, faults=plan)  # cache off
        with pytest.raises(WorkerCrashed):
            server.submit("water", base).result(WAIT)
        self._wait_respawn(server)
        # respawned slot serves normally; no cache, so nothing to drop
        served = server.submit("water", base).result(WAIT)
        server.stop()
        assert_bitwise(served, direct(model, base))
        snap = server.stats.snapshot()
        assert snap["cache_invalidations"] == 0
        assert snap["worker_crashes"] == 1
        assert snap["worker_respawns"] == 1
