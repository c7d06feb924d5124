"""Fault injection and the recovery machinery it exists to exercise.

Three layers:

1. **FaultPlan mechanics** — hook decisions are pure functions of the
   spec list and the plan's own monotonic counters: same plan, same
   schedule => same injections; one-shot faults never fire twice; the
   log records exactly what fired.
2. **worker supervision** (:mod:`repro.serving.worker`) — an injected
   worker crash fails the in-flight futures with ``WorkerCrashed``
   exactly once (conservation holds through the crash) and respawns a
   fresh worker, with a fresh engine, that serves subsequent requests
   bitwise correctly.
3. **client resilience** (:mod:`repro.serving.net`) — a severed
   connection is re-dialed with capped backoff and every unresolved
   request is resubmitted under its original id, so the trajectory of
   results is bitwise identical to an undisturbed run; tampered frames
   (delay / duplicate / corrupt) never corrupt results silently.

Everything asserts deterministically — counters, logs and bitwise
equality, never wall-clock thresholds.
"""

import threading
from concurrent.futures import Future

import numpy as np
import pytest

from repro.analysis.structures import water_box
from repro.dp.backend import ForceFrame, ServingForceBackend
from repro.dp.model import DeepPot, DPConfig
from repro.md.neighbor import neighbor_pairs
from repro.serving import (
    CrashWorker,
    DelayAdmission,
    FailEval,
    FaultPlan,
    InferenceServer,
    InjectedWorkerCrash,
    ServingDaemon,
    SeverConnection,
    SocketClient,
    TamperFrame,
    TransientEvalError,
    WorkerCrashed,
    perturbed_frames,
)
from repro.serving import protocol as proto
from repro.serving.faults import corrupt_frame

WAIT = 60.0


@pytest.fixture(scope="module")
def model():
    return DeepPot(DPConfig.tiny(sel=(8, 16), rcut=3.0))


@pytest.fixture(scope="module")
def base():
    return water_box((2, 2, 2), seed=0)


def direct(model, system):
    return model.evaluate(system, *neighbor_pairs(system, model.config.rcut))


def assert_bitwise(result, reference):
    assert result.energy == reference.energy
    assert np.array_equal(result.forces, reference.forces)
    assert np.array_equal(result.virial, reference.virial)


def conserved(stats):
    s = stats.snapshot()
    return s["requests_submitted"] == (
        s["requests_completed"]
        + s["requests_failed"]
        + s["requests_cancelled"]
    )


# ---------------------------------------------------------------------------
# 1. FaultPlan mechanics
# ---------------------------------------------------------------------------


class TestFaultPlanMechanics:
    def test_crash_fires_once_at_exact_batch(self):
        plan = FaultPlan([CrashWorker(worker="w0", at_batch=3)])
        plan.on_worker_batch("w0", "m")  # batch 1
        plan.on_worker_batch("w0", "m")  # batch 2
        with pytest.raises(InjectedWorkerCrash):
            plan.on_worker_batch("w0", "m")  # batch 3: fires
        # One-shot: the respawned worker keeps its id but never crashes
        # again, and other workers were never targets.
        for _ in range(5):
            plan.on_worker_batch("w0", "m")
        plan.on_worker_batch("w1", "m")
        assert plan.fired(CrashWorker) == 1
        assert plan.fired("CrashWorker") == 1  # string form, same count

    def test_transient_fires_times_consecutive_batches(self):
        plan = FaultPlan([FailEval(model="m", at_batch=2, times=2)])
        plan.on_worker_batch("w0", "m")  # model batch 1: clean
        for _ in range(2):  # model batches 2 and 3 fail
            with pytest.raises(TransientEvalError):
                plan.on_worker_batch("w0", "m")
        plan.on_worker_batch("w0", "m")  # batch 4: spent, clean again
        assert plan.fired(FailEval) == 2  # every injection is logged

    def test_sever_matches_hello_name_prefix(self):
        plan = FaultPlan([SeverConnection(client="md", after_frames=2)])
        # Daemon labels are "<hello-name>-<cid>"; "mdx-0" must NOT match.
        assert plan.on_conn_frame_in("mdx-0") is False
        assert plan.on_conn_frame_in("md-4") is False  # frame 1
        assert plan.on_conn_frame_in("md-4") is True   # frame 2: sever
        assert plan.on_conn_frame_in("md-4") is False  # one-shot
        assert plan.fired(SeverConnection) == 1

    def test_tamper_action_and_jitter_determinism(self):
        def run():
            plan = FaultPlan(
                [TamperFrame(client="c", at_frame=2, action="delay",
                             delay_s=0.5)],
                seed=11,
            )
            first = plan.on_conn_frame_out("c-0")
            second = plan.on_conn_frame_out("c-0")
            return first, second

        (a1, d1), (a2, d2) = run()
        assert (a1, d1) == (None, 0.0)
        assert a2 == "delay" and 0.25 <= d2 < 0.75  # [0.5, 1.5) * delay_s
        # Same seed, same schedule => bitwise-identical jitter.
        assert run() == ((a1, d1), (a2, d2))

    def test_unknown_tamper_action_rejected(self):
        with pytest.raises(ValueError, match="unknown tamper action"):
            FaultPlan([TamperFrame(client="c", at_frame=1, action="explode")])

    def test_admission_delay_targets_one_submission(self):
        class Req:
            model = "m"

        plan = FaultPlan([DelayAdmission(model="m", at_submit=2,
                                         delay_s=0.0)])
        plan.on_queue_put(Req())
        plan.on_queue_put(Req())
        plan.on_queue_put(Req())
        assert plan.fired(DelayAdmission) == 1
        assert "submit 2" in plan.log[0][1]

    def test_corrupt_frame_is_detectable_not_silent(self):
        frame = proto.encode_frame(
            proto.MsgType.RESULT, {"req": 1}, {"x": np.arange(3.0)}
        )
        bad = corrupt_frame(frame)
        assert bad[:4] == frame[:4]  # framing survives (length intact)
        assert bad[5:] == frame[5:]  # ONLY the version byte changes
        with pytest.raises(proto.ProtocolError):
            proto.decode_payload(bad[4:])


# ---------------------------------------------------------------------------
# 2. worker supervision
# ---------------------------------------------------------------------------


class TestWorkerSupervision:
    def test_crash_fails_inflight_conserves_and_respawns(self, model, base):
        """The tentpole invariant: a mid-batch worker death fails exactly
        the in-flight requests, conservation holds, and the respawned
        worker serves later frames bitwise correctly."""
        plan = FaultPlan([CrashWorker(worker="water", at_batch=1)])
        server = InferenceServer(
            {"water": model}, max_batch=4, max_wait_us=1000, faults=plan
        )
        frames = perturbed_frames(base, 6, seed0=50)
        with server.paused():
            doomed = [server.submit("water", f, block=False)
                      for f in frames[:3]]
        for f in doomed:
            with pytest.raises(WorkerCrashed):
                f.result(WAIT)
        # The respawned worker (same id, fresh engine) serves new work.
        survivors = [server.submit("water", f, block=False)
                     for f in frames[3:]]
        for f, frame in zip(survivors, frames[3:]):
            assert_bitwise(f.result(WAIT), direct(model, frame))
        server.stop()
        s = server.stats.snapshot()
        assert s["worker_crashes"] == 1
        assert s["worker_respawns"] == 1
        assert s["requests_failed"] == 3
        assert s["requests_completed"] == 3
        assert conserved(server.stats)
        assert plan.fired(CrashWorker) == 1

    def test_crashed_batch_counted_exactly_once(self, model, base):
        """The crash path must not double-count: the dead batch reaches
        ``record_worker_crash``, never ``record_batch``."""
        plan = FaultPlan([CrashWorker(worker="water", at_batch=1)])
        server = InferenceServer(
            {"water": model}, max_batch=8, max_wait_us=1000, faults=plan
        )
        with server.paused():
            futures = [server.submit("water", f, block=False)
                       for f in perturbed_frames(base, 4, seed0=60)]
        for f in futures:
            with pytest.raises(WorkerCrashed):
                f.result(WAIT)
        server.stop()
        s = server.stats.snapshot()
        assert s["requests_failed"] == 4
        assert s["batches"] == 0  # the crashed batch never executed
        assert s["frames"] == 0
        assert conserved(server.stats)

    def test_transient_error_is_retryable_through_backend(self, model, base):
        """A ``FailEval`` batch fails through the normal poisoned-batch
        path (worker survives, no respawn) and a retrying
        ``ServingForceBackend`` absorbs it bitwise."""
        plan = FaultPlan([FailEval(model="water", at_batch=1)])
        server = InferenceServer(
            {"water": model}, max_batch=4, max_wait_us=1000, faults=plan
        )
        frames = perturbed_frames(base, 3, seed0=70)
        backend = ServingForceBackend(server.client("water"), timeout=WAIT,
                                      retries=2)
        results = backend.evaluate(
            [ForceFrame(f, *neighbor_pairs(f, model.config.rcut))
             for f in frames]
        )
        server.stop()
        for r, f in zip(results, frames):
            assert_bitwise(r, direct(model, f))
        assert backend.retried_frames >= 1
        s = server.stats.snapshot()
        assert s["worker_crashes"] == 0  # transient != crash
        assert s["worker_respawns"] == 0
        assert conserved(server.stats)

    def test_backend_retry_budget_exhausts(self, model, base):
        """Enough consecutive transient failures exhaust the budget and the
        error propagates — retries are bounded, never a spin."""
        plan = FaultPlan([FailEval(model="water", at_batch=1, times=5)])
        server = InferenceServer(
            {"water": model}, max_batch=4, max_wait_us=1000, faults=plan
        )
        backend = ServingForceBackend(server.client("water"), timeout=WAIT,
                                      retries=2)
        frame = perturbed_frames(base, 1, seed0=80)[0]
        with pytest.raises(TransientEvalError):
            backend.evaluate(
                [ForceFrame(frame, *neighbor_pairs(frame, model.config.rcut))]
            )
        server.stop()
        assert backend.retried_frames == 2
        assert conserved(server.stats)

    def test_respawn_budget_stops_crash_loops(self, model, base):
        """``max_respawns`` bounds supervision: a worker that keeps dying is
        not respawned forever."""
        plan = FaultPlan([
            CrashWorker(worker="water", at_batch=1),
            CrashWorker(worker="water", at_batch=2),
        ])
        server = InferenceServer(
            {"water": model}, max_batch=4, max_wait_us=1000, faults=plan,
            max_respawns=1,
        )
        frames = perturbed_frames(base, 2, seed0=90)
        with pytest.raises(WorkerCrashed):
            server.submit("water", frames[0], block=False).result(WAIT)
        with pytest.raises(WorkerCrashed):
            server.submit("water", frames[1], block=False).result(WAIT)
        server.stop()
        s = server.stats.snapshot()
        assert s["worker_crashes"] == 2
        assert s["worker_respawns"] == 1  # budget spent, no third spawn
        assert conserved(server.stats)


# ---------------------------------------------------------------------------
# 3. client resilience over the wire
# ---------------------------------------------------------------------------


class TestClientResilience:
    def _serve(self, model, plan=None, **kw):
        server = InferenceServer(
            {"water": model}, max_batch=4, max_wait_us=1000, faults=plan, **kw
        )
        daemon = ServingDaemon(server, faults=plan).start()
        return server, daemon

    def test_sever_reconnect_resubmit_bitwise(self, model, base):
        """A connection severed mid-conversation is re-dialed and every
        unresolved request resent under its original id — results arrive
        bitwise identical to an undisturbed run."""
        plan = FaultPlan([SeverConnection(client="res", after_frames=2)])
        server, daemon = self._serve(model, plan)
        frames = perturbed_frames(base, 6, seed0=400)
        try:
            with SocketClient(daemon.address, "water", client="res",
                              retries=3) as client:
                results = [
                    client.submit(
                        f, *neighbor_pairs(f, model.config.rcut),
                        timeout=WAIT,
                    ).result(WAIT)
                    for f in frames
                ]
                assert client.reconnects >= 1
        finally:
            daemon.stop(drain=True)
        for r, f in zip(results, frames):
            assert_bitwise(r, direct(model, f))
        assert plan.fired(SeverConnection) == 1
        assert conserved(server.stats)

    def test_no_retries_means_sever_is_fatal(self, model, base):
        """resilience off (the default): the severed connection fails the
        pending future instead of silently reconnecting."""
        plan = FaultPlan([SeverConnection(client="frail", after_frames=2)])
        server, daemon = self._serve(model, plan)
        frames = perturbed_frames(base, 3, seed0=410)
        try:
            with SocketClient(daemon.address, "water",
                              client="frail") as client:
                fut = client.submit(
                    frames[0], *neighbor_pairs(frames[0], model.config.rcut),
                    timeout=WAIT,
                )
                assert_bitwise(fut.result(WAIT), direct(model, frames[0]))
                with pytest.raises((ConnectionError, OSError)):
                    # frame 2 in (this SUBMIT) trips the sever; the reader
                    # dies and fails the pending future with the raw error.
                    client.submit(
                        frames[1],
                        *neighbor_pairs(frames[1], model.config.rcut),
                        timeout=WAIT,
                    ).result(WAIT)
                assert client.reconnects == 0
        finally:
            daemon.stop(drain=True)

    def test_duplicate_result_frame_is_idempotent(self, model, base):
        """An injected duplicate RESULT finds no pending future the second
        time and is dropped — receivers are idempotent by construction."""
        plan = FaultPlan(
            [TamperFrame(client="dup", at_frame=2, action="duplicate")]
        )
        server, daemon = self._serve(model, plan)
        frames = perturbed_frames(base, 4, seed0=420)
        try:
            with SocketClient(daemon.address, "water",
                              client="dup") as client:
                for f in frames:
                    fut = client.submit(
                        f, *neighbor_pairs(f, model.config.rcut), timeout=WAIT
                    )
                    assert_bitwise(fut.result(WAIT), direct(model, f))
        finally:
            daemon.stop(drain=True)
        assert plan.fired(TamperFrame) == 1
        assert conserved(server.stats)

    def test_corrupt_frame_recovers_bitwise_not_silently(self, model, base):
        """A corrupted RESULT is *detected* (version-byte flip =>
        ProtocolError), the resilient client reconnects and the replayed
        request returns the bitwise-correct answer — corruption can cost a
        round trip but never numbers."""
        plan = FaultPlan(
            [TamperFrame(client="cor", at_frame=2, action="corrupt")]
        )
        server, daemon = self._serve(model, plan)
        frames = perturbed_frames(base, 4, seed0=430)
        try:
            with SocketClient(daemon.address, "water", client="cor",
                              retries=3) as client:
                for f in frames:
                    fut = client.submit(
                        f, *neighbor_pairs(f, model.config.rcut), timeout=WAIT
                    )
                    assert_bitwise(fut.result(WAIT), direct(model, f))
                assert client.reconnects >= 1
                assert client.resubmits >= 1
        finally:
            daemon.stop(drain=True)
        assert plan.fired(TamperFrame) == 1

    def test_delay_tamper_only_slows_never_reorders_resolution(
        self, model, base
    ):
        """A delayed frame still resolves its own future correctly (delay
        jitter comes from the plan's seeded generator)."""
        plan = FaultPlan(
            [TamperFrame(client="slow", at_frame=2, action="delay",
                         delay_s=0.01)]
        )
        server, daemon = self._serve(model, plan)
        frames = perturbed_frames(base, 3, seed0=440)
        try:
            with SocketClient(daemon.address, "water",
                              client="slow") as client:
                for f in frames:
                    fut = client.submit(
                        f, *neighbor_pairs(f, model.config.rcut), timeout=WAIT
                    )
                    assert_bitwise(fut.result(WAIT), direct(model, f))
        finally:
            daemon.stop(drain=True)
        assert plan.fired(TamperFrame) == 1

    def test_worker_crash_error_crosses_the_wire_typed(self, model, base):
        """A server-side ``WorkerCrashed`` surfaces client-side as the same
        exception type (ERR_CRASH on the wire) — remote callers can build
        the same retry policy as in-process ones."""
        plan = FaultPlan([CrashWorker(worker="water", at_batch=1)])
        server, daemon = self._serve(model, plan)
        frames = perturbed_frames(base, 2, seed0=450)
        try:
            with SocketClient(daemon.address, "water",
                              client="wc") as client:
                with pytest.raises(WorkerCrashed):
                    client.submit(
                        frames[0],
                        *neighbor_pairs(frames[0], model.config.rcut),
                        timeout=WAIT,
                    ).result(WAIT)
                # The respawned worker serves the next frame over the SAME
                # connection — the wire session survives a worker death.
                fut = client.submit(
                    frames[1], *neighbor_pairs(frames[1], model.config.rcut),
                    timeout=WAIT,
                )
                assert_bitwise(fut.result(WAIT), direct(model, frames[1]))
        finally:
            daemon.stop(drain=True)
        assert server.stats.snapshot()["worker_respawns"] == 1
        assert conserved(server.stats)

    def test_remote_backend_retries_through_crash(self, model, base):
        """The chaos-smoke core as a unit test: SocketClient reconnects on
        severs, ServingForceBackend resubmits on crashes — every frame of
        an 8-frame evaluation lands bitwise under a 3-fault plan."""
        plan = FaultPlan([
            CrashWorker(worker="water", at_batch=1),
            SeverConnection(client="chaos", after_frames=3),
            TamperFrame(client="chaos", at_frame=5, action="duplicate"),
        ])
        server, daemon = self._serve(model, plan)
        frames = perturbed_frames(base, 8, seed0=460)
        try:
            with SocketClient(daemon.address, "water", client="chaos",
                              retries=4) as client:
                backend = ServingForceBackend(client, timeout=WAIT, retries=4)
                results = backend.evaluate(
                    [ForceFrame(f, *neighbor_pairs(f, model.config.rcut))
                     for f in frames]
                )
        finally:
            daemon.stop(drain=True)
        for r, f in zip(results, frames):
            assert_bitwise(r, direct(model, f))
        s = server.stats.snapshot()
        assert s["worker_crashes"] == 1 and s["worker_respawns"] == 1
        assert conserved(server.stats)
        assert {type(f).__name__ for f, _ in plan.log} == {
            "CrashWorker", "SeverConnection", "TamperFrame"
        }

    def test_heartbeat_keeps_idle_client_alive(self, model, base):
        """The daemon's idle sweeper reaps a silent connection but spares
        one that heartbeats; the swept client's next submit fails, the
        heartbeating client still round-trips bitwise."""
        server = InferenceServer({"water": model}, max_batch=4,
                                 max_wait_us=1000)
        daemon = ServingDaemon(server, idle_timeout=0.3).start()
        frame = perturbed_frames(base, 1, seed0=470)[0]
        try:
            quiet = SocketClient(daemon.address, "water", client="quiet")
            with SocketClient(daemon.address, "water", client="beat",
                              heartbeat=0.05) as beat:
                # Wait until the sweeper has provably fired (bounded poll on
                # a deterministic counter, not a blind sleep).
                deadline = threading.Event()
                for _ in range(200):
                    if daemon.idle_swept >= 1:
                        break
                    deadline.wait(0.05)
                assert daemon.idle_swept >= 1
                fut = beat.submit(
                    frame, *neighbor_pairs(frame, model.config.rcut),
                    timeout=WAIT,
                )
                assert_bitwise(fut.result(WAIT), direct(model, frame))
            quiet.close()
        finally:
            daemon.stop(drain=True)
