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
6. **workers** — each model's batches run on that model's own worker
   over its own engine (never shared across threads), FIFO per model;
7. **deadlines** — a request abandoned at its client deadline is cancelled
   and counted exactly once, never completed; future metadata exists before
   any worker can resolve the future; hung client threads are joined
   against a deadline instead of forever;
8. **admission validation** — a frame that cannot be evaluated honestly
   (non-finite positions or box, unknown type ids) raises ``InvalidFrame``
   at ``submit``, counted rejected, and never shares a batch with anyone.

Determinism device: ``server.paused()`` parks the workers between batches,
so a submission schedule can be staged in full before coalescing begins —
N pre-queued same-model requests then execute in exactly
``ceil(N / max_batch)`` batches.
"""

import threading
from concurrent.futures import CancelledError
from concurrent.futures import TimeoutError as FutureTimeout

import numpy as np
import pytest

from repro.analysis.structures import water_box
from repro.dp.model import DeepPot, DPConfig
from repro.md.neighbor import neighbor_pairs
from repro.serving import (
    InferenceClient,
    InferenceRequest,
    InferenceServer,
    InvalidFrame,
    QueueFull,
    RequestQueue,
    ServerClosed,
    ServerStats,
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
        assert server.stats.batch_log == [
            ("water", (0, 1, 2, 3)),
            ("water", (4, 5, 6, 7)),
            ("water", (8, 9)),
        ]

    def test_interleaved_models_never_mix_and_keep_order(
        self, model, model_b, base
    ):
        """Batches gather same-model requests FIFO, skipping (not
        reordering) the other model's requests.  The two workers run
        concurrently, so only the per-model order of the log is pinned."""
        frames = perturbed(base, 8)
        server = InferenceServer(
            {"a": model, "b": model_b}, max_batch=4, autostart=False
        )
        futures = []
        for k, frame in enumerate(frames):
            futures.append(server.submit("a" if k % 2 == 0 else "b", frame))
        server.start()
        results = [f.result(WAIT) for f in futures]
        server.stop()
        log = server.stats.batch_log
        assert [rec for rec in log if rec.model == "a"] == [("a", (0, 2, 4, 6))]
        assert [rec for rec in log if rec.model == "b"] == [("b", (1, 3, 5, 7))]
        assert len(log) == 2
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
        helper, never as a silently empty result set (which would let a
        served-vs-direct check pass vacuously)."""
        from repro.serving import perturbed_frames, run_closed_loop_clients

        class BoomEngine:
            def evaluate_frames(self, frames):
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
            def evaluate_frames(self, frames):
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
            stats.record_batch("m", (k,), (0.0,))
        assert stats.batch_log == [("m", (3,)), ("m", (4,))]
        assert stats.batches == 5
        assert stats.frames == 5
        assert stats.frames_per_model == {"m": 5}

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
        batch = q.pop_batch("a", max_batch=2, max_wait=0.0)
        assert [r.seq for r in batch] == [0, 2]
        batch = q.pop_batch("b", max_batch=8, max_wait=0.0)
        assert [r.seq for r in batch] == [1, 4]  # b-requests kept their order
        batch = q.pop_batch("a", max_batch=8, max_wait=0.0)
        assert [r.seq for r in batch] == [3]

    def test_pop_batch_only_restricts_to_one_key(self):
        """A per-model consumer draws exclusively on its model, leaving
        other models' requests (even older ones) untouched."""
        q = RequestQueue(maxsize=0)
        for name in ["a", "a", "b", "a", "b"]:
            q.put(InferenceRequest(name, None, None, None))
        batch = q.pop_batch("b", max_batch=8, max_wait=0.0)
        assert [r.seq for r in batch] == [2, 4]
        assert q.pending_by_model() == {"a": 3}
        batch = q.pop_batch("a", max_batch=2, max_wait=0.0)
        assert [r.seq for r in batch] == [0, 1]

    def test_per_key_counts_and_single_key_derivation(self):
        """The queue maintains per-model pending counts under its lock (one
        deque per model, keyed by the request's model name alone) — the
        fill loop reads an O(1) ``len``, never rescans the queue."""
        q = RequestQueue(maxsize=0)
        for name in ["a", "b", "a", "b", "b", "c"]:
            q.put(InferenceRequest(name, None, None, None))
        assert q.pending_by_model() == {"a": 2, "b": 3, "c": 1}
        q.pop_batch("a", max_batch=8, max_wait=0.0)   # takes the a-run
        q.pop_batch("b", max_batch=1, max_wait=0.0)
        assert q.pending_by_model() == {"b": 2, "c": 1}
        assert len(q) == 3

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
        batch = q.pop_batch("m", max_batch=8, max_wait=0.0)
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
        batch = q.pop_batch("m", max_batch=8, max_wait=0.0)
        assert [r.seq for r in batch] == [1, 2]
        assert sum(drops) == 1  # the earlier cancel is never re-counted

    def test_closed_queue_refuses_puts_and_drains(self):
        q = RequestQueue(maxsize=4)
        q.put(InferenceRequest("m", None, None, None))
        q.close()
        with pytest.raises(ServerClosed):
            q.put(InferenceRequest("m", None, None, None))
        batch = q.pop_batch("m", max_batch=4, max_wait=1.0)
        assert len(batch) == 1  # close cuts the wait budget short
        assert q.pop_batch("m", 4, 0.0) is None
        assert q.pop_batch("never-seen", 4, 0.0) is None

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

    def test_scheduler_validates_policy(self, model):
        """The batching policy's range checks live in the server's
        constructor (and fire before any worker thread exists)."""
        with pytest.raises(ValueError, match="max_batch"):
            InferenceServer({"water": model}, max_batch=0)
        with pytest.raises(ValueError, match="max_wait_us"):
            InferenceServer({"water": model}, max_wait_us=-1.0)


class TestWorkerPool:
    """One worker per model."""

    def test_per_model_workers_concurrent_two_model_bitwise(
        self, model, model_b, base
    ):
        """Genuinely concurrent 2-model load: every served result is
        bitwise identical to a direct evaluation, and per-model dispatch
        order is FIFO regardless of worker interleaving."""
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
        for name in ("a", "b"):  # FIFO per model
            seqs = [s for rec in log if rec.model == name for s in rec.seqs]
            assert len(seqs) == 8
            assert seqs == sorted(seqs)
        snap = server.stats.snapshot()
        assert snap["requests_completed"] == 16
        assert snap["frames_per_model"] == {"a": 8, "b": 8}

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
        assert server.stats.snapshot()["batches"] == 4

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
        assert snap["frames_per_model"] == {"a": 8, "b": 8}

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
        assert server.stats.batch_log[-1].model == "b"

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


class TestAdmissionValidation:
    def test_nan_frame_is_refused_and_batch_mates_complete_bitwise(
        self, model, base
    ):
        """A NaN position used to evaluate to a *finite* energy and finite
        forces (the atom just falls out of every neighbour comparison) —
        silent wrong physics.  It is refused at admission, alone."""
        good = perturbed(base, 2, seed0=61)
        bad = base.copy()
        bad.positions[5, 1] = np.nan
        server = InferenceServer({"water": model}, max_batch=4)
        with server.paused():
            first = server.submit("water", good[0])
            with pytest.raises(InvalidFrame, match="non-finite positions"):
                server.submit("water", bad)
            second = server.submit("water", good[1])
        assert_bitwise(first.result(WAIT), direct(model, good[0]))
        assert_bitwise(second.result(WAIT), direct(model, good[1]))
        server.stop()
        snap = server.stats.snapshot()
        assert snap["requests_rejected"] == 1
        assert snap["requests_submitted"] == snap["requests_completed"] == 2
        assert snap["requests_failed"] == 0
        assert server.stats.batch_log == [("water", (0, 1))]

    def test_bad_box_and_unknown_type_ids_are_refused(self, model, base):
        server = InferenceServer({"water": model}, autostart=False)
        inf_pos = base.copy()
        inf_pos.positions[0, 0] = np.inf
        nan_box = base.copy()
        nan_box.box.lengths[2] = np.nan
        flat_box = base.copy()
        flat_box.box.lengths[0] = 0.0  # mutated after Box's own check
        alien = base.copy()
        alien.types[3] = model.config.n_types
        negative = base.copy()
        negative.types[3] = -1
        for frame in (inf_pos, nan_box, flat_box, alien, negative):
            with pytest.raises(InvalidFrame):
                server.submit("water", frame)
        assert isinstance(InvalidFrame("x"), ValueError)
        snap = server.stats.snapshot()
        assert snap["requests_rejected"] == 5
        assert snap["requests_submitted"] == 0
        assert len(server.queue) == 0
        server.stop(drain=False)
