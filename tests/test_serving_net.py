"""Out-of-process serving: the wire protocol, the daemon, and the backend.

Four layers, tested bottom-up:

1. **framing** (:mod:`repro.serving.protocol`) — pure encode/decode round
   trips, bitwise array transport (0-d energies included), malformed-frame
   and version-mismatch refusal;
2. **daemon + client** (:mod:`repro.serving.net`) — a real TCP round trip
   is bitwise identical to in-process serving; errors (backpressure,
   quotas, unknown model, invalid frame) surface as the same exception
   types; STATS round-trips; disconnecting a client cancels its queued
   work;
3. **ServingForceBackend** (:mod:`repro.dp.backend`) — a ``Simulation``
   and an ``EnsembleSimulation`` driven over the socket produce
   trajectories bitwise identical to in-process runs;
4. **drain** — stopping the daemon under traffic completes queued
   requests, flushes every connection, and conserves requests
   (submitted == completed + failed + cancelled).

Everything asserts deterministically — counters and bitwise equality,
never wall-clock thresholds (the repo's bench-timing policy).
"""

import json
import socket as socketmod
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.structures import water_box
from repro.dp.backend import BackendPotential, ForceFrame, ServingForceBackend
from repro.dp.model import DeepPot, DPConfig
from repro.dp.pair import DeepPotPair
from repro.md.checkpoint import TaggedArrayError, pack_arrays, unpack_tagged
from repro.md.neighbor import fitted_neighbor_list, neighbor_pairs
from repro.md.simulation import Simulation
from repro.serving import (
    InferenceServer,
    InvalidFrame,
    ProtocolError,
    QueueFull,
    QuotaExceeded,
    ServerClosed,
    ServingDaemon,
    SocketClient,
    perturbed_frames,
    run_closed_loop_clients,
    served_matches_direct,
)
from repro.serving import protocol as proto

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


# ---------------------------------------------------------------------------
# 1. framing
# ---------------------------------------------------------------------------


def container(header, blob=b""):
    """``u32 header_len | JSON header | blob`` with ANY JSON value as the
    header — what ``pack_tagged`` writes, minus its good manners."""
    head = json.dumps(header).encode("utf-8")
    return struct.pack("!I", len(head)) + head + blob


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# Values that once escaped as bare TypeError / ValueError.
HOSTILE = st.sampled_from([
    5, "xx", "nope", "|O", "|V0", "2f8", "T", "U", "<f80", [1.0], [True],
    [-1, -1], [2**62, 4], [0, 2**62], ["x", "<f8"], None,
])


@st.composite
def fuzzed_containers(draw):
    """Arbitrary bytes, or a valid container with one header field replaced
    or one byte flipped."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=96))
    arrays = {
        "positions": np.arange(12.0).reshape(4, 3),
        "types": np.array([0, 1, 1, 0]),
        "energy": np.float64(-1.5),
    }
    specs, blob = pack_arrays(arrays)
    header = {"req": 7, "model": "water", "arrays": specs}
    value = draw(HOSTILE | JSON_VALUES)
    where = draw(st.sampled_from(
        ["header", "arrays", "spec", "name", "dtype", "shape", "flip", "none"]
    ))
    if where == "header":
        header = value
    elif where == "arrays":
        header["arrays"] = value
    elif where == "spec":
        specs[draw(st.integers(0, 2))] = value
    elif where in ("name", "dtype", "shape"):
        field = ("name", "dtype", "shape").index(where)
        specs[draw(st.integers(0, 2))][field] = value
    data = bytearray(container(header, blob))
    if where == "flip":
        data[draw(st.integers(0, len(data) - 1))] ^= 1 << draw(st.integers(0, 7))
    return bytes(data)


class TestProtocol:
    def test_arrays_round_trip_bitwise(self):
        arrays = {
            "f64": np.linspace(-1, 1, 12).reshape(4, 3),
            "i64": np.arange(7, dtype=np.int64),
            "scalar": np.float64(-17.25),
            "f32": np.float32([1.5, -2.25]),
            "empty": np.empty((0, 3)),
        }
        specs, blob = proto.pack_arrays(arrays)
        out = proto.unpack_arrays(specs, blob)
        assert set(out) == set(arrays)
        for name, arr in arrays.items():
            got = out[name]
            assert got.dtype == np.asarray(arr).dtype
            assert got.shape == np.asarray(arr).shape
            assert np.array_equal(got, np.asarray(arr))
        assert out["scalar"].shape == ()  # 0-d survives (no 1-d promotion)
        assert out["f64"].flags.writeable

    def test_noncontiguous_input_round_trips(self):
        arr = np.arange(24, dtype=np.float64).reshape(4, 6)[:, ::2]
        assert not arr.flags["C_CONTIGUOUS"]
        specs, blob = proto.pack_arrays({"x": arr})
        assert np.array_equal(proto.unpack_arrays(specs, blob)["x"], arr)

    def test_frame_round_trip(self):
        header = {"req": 7, "model": "water", "nloc": None, "pbc": True}
        arrays = {"positions": np.random.default_rng(0).normal(size=(5, 3))}
        frame = proto.encode_frame(proto.MsgType.SUBMIT, header, arrays)
        mtype, got_header, got_arrays = proto.decode_payload(frame[4:])
        assert mtype == proto.MsgType.SUBMIT
        assert got_header == header  # "arrays" spec key is stripped
        assert np.array_equal(got_arrays["positions"], arrays["positions"])

    def test_submit_frame_golden_bytes(self):
        """The frame body is the tagged-array container checkpoints share
        (:func:`repro.md.checkpoint.pack_tagged`); folding the two codecs
        into one moved no byte, so ``PROTOCOL_VERSION`` did not move."""
        header = {"req": 7, "model": "water", "block": True,
                  "admit_timeout": None, "nloc": None, "pbc": True}
        arrays = {
            "positions": np.arange(6, dtype=np.float64).reshape(2, 3),
            "types": np.array([1, 0], dtype=np.int64),
            "box": np.array([9.0, 9.5, 10.0]),
            "masses": np.array([15.999, 1.008]),
        }
        head = (
            b'{"req":7,"model":"water","block":true,"admit_timeout":null,'
            b'"nloc":null,"pbc":true,"arrays":[["positions","<f8",[2,3]],'
            b'["types","<i8",[2]],["box","<f8",[3]],["masses","<f8",[2]]]}'
        )
        blob = bytes.fromhex(
            "0000000000000000" "000000000000f03f" "0000000000000040"
            "0000000000000840" "0000000000001040" "0000000000001440"
            "0100000000000000" "0000000000000000"
            "0000000000002240" "0000000000002340" "0000000000002440"
            "736891ed7cff2f40" "54e3a59bc420f03f"
        )
        assert len(head) == 0xB2
        # u32 payload length | version 3 | type SUBMIT | u32 header length
        assert proto.encode_frame(proto.MsgType.SUBMIT, header, arrays) == (
            bytes.fromhex("00000120" "03" "03" "000000b2") + head + blob
        )

    def test_version_mismatch_refused(self):
        frame = proto.encode_frame(proto.MsgType.HELLO, {})
        payload = bytearray(frame[4:])
        payload[0] = proto.PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError, match="version"):
            proto.decode_payload(bytes(payload))

    def test_v2_hello_refused(self):
        """The wire changed (no ordering fields, no cache messages), so the
        version byte moved: a v2 peer is refused, not half-understood."""
        assert proto.PROTOCOL_VERSION == 3
        payload = bytearray(proto.encode_frame(proto.MsgType.HELLO, {})[4:])
        payload[0] = 2
        with pytest.raises(ProtocolError, match="version 2 != 3"):
            proto.decode_payload(bytes(payload))

    def test_malformed_frames_refused(self):
        with pytest.raises(ProtocolError, match="truncated"):
            proto.decode_payload(b"\x01")
        frame = proto.encode_frame(proto.MsgType.HELLO, {})
        payload = bytearray(frame[4:])
        payload[1] = 200  # unknown message type
        with pytest.raises(ProtocolError, match="message type"):
            proto.decode_payload(bytes(payload))
        # array spec overrunning the blob
        specs = [["x", "<f8", [100]]]
        with pytest.raises(ProtocolError, match="overruns"):
            proto.unpack_arrays(specs, b"\x00" * 8)
        # trailing garbage after the last array
        with pytest.raises(ProtocolError, match="trailing"):
            proto.unpack_arrays([["x", "<f8", [1]]], b"\x00" * 16)

    @settings(max_examples=300, deadline=None)
    @given(data=fuzzed_containers())
    def test_decoders_yield_arrays_or_a_typed_error(self, data):
        """One fuzz target for both decoders: whatever the bytes, a valid
        ``(header, arrays)`` no larger than the payload, or the decoder's
        own error type — nothing else ever crosses the wire boundary."""
        payload = bytes((proto.PROTOCOL_VERSION, proto.MsgType.SUBMIT)) + data
        decoded = []
        try:
            decoded.append(unpack_tagged(data))
        except TaggedArrayError:
            pass
        try:
            decoded.append(proto.decode_payload(payload)[1:])
        except ProtocolError:
            pass
        for header, arrays in decoded:
            assert isinstance(header, dict) and "arrays" not in header
            assert all(
                isinstance(a, np.ndarray) and not a.dtype.hasobject
                for a in arrays.values()
            )
            assert sum(a.nbytes for a in arrays.values()) <= len(data)
        assert len(decoded) in (0, 2)  # the two decoders agree

    def test_oversized_frame_refused_before_allocation(self):
        huge = proto._LEN.pack(proto.MAX_FRAME_BYTES + 1)

        class FakeSock:
            def __init__(self, data):
                self.data = data

            def recv(self, n):
                out, self.data = self.data[:n], self.data[n:]
                return out

        with pytest.raises(ProtocolError, match="MAX_FRAME_BYTES"):
            proto.read_frame(FakeSock(huge))

    def test_system_and_result_round_trip(self, model, base):
        system = proto.build_system(
            proto.unpack_arrays(*proto.pack_arrays(proto.system_arrays(base)))
        )
        assert np.array_equal(system.positions, base.positions)
        assert np.array_equal(system.types, base.types)
        assert np.array_equal(system.box.lengths, base.box.lengths)
        ref = direct(model, base)
        result = proto.build_result(
            proto.unpack_arrays(*proto.pack_arrays(proto.result_arrays(ref)))
        )
        assert_bitwise(result, ref)  # energy through a 0-d f64, never JSON


# ---------------------------------------------------------------------------
# 2. daemon + client
# ---------------------------------------------------------------------------


def make_daemon(model, **server_kw):
    server_kw.setdefault("max_batch", 4)
    server = InferenceServer({"water": model}, **server_kw)
    return ServingDaemon(server).start()


class TestDaemonRoundTrip:
    def test_served_over_socket_bitwise(self, model, base):
        with make_daemon(model) as daemon:
            with SocketClient(daemon.address, "water") as client:
                for frame in perturbed_frames(base, 4, seed0=10):
                    result = client.evaluate(frame, timeout=WAIT)
                    assert served_matches_direct(model, frame, result)

    def test_pipelined_futures_over_socket(self, model, base):
        frames = perturbed_frames(base, 8, seed0=20)
        with make_daemon(model) as daemon:
            with SocketClient(daemon.address, "water") as client:
                results = client.evaluate_many(frames, timeout=WAIT)
        for frame, result in zip(frames, results):
            assert_bitwise(result, direct(model, frame))

    def test_closed_loop_clients_coalesce_across_connections(self, model, base):
        """The generalized load generator drives SocketClients unchanged;
        traffic from separate TCP connections lands in shared batches."""
        frame_sets = {
            tid: perturbed_frames(base, 3, seed0=100 * (tid + 1))
            for tid in range(3)
        }
        with make_daemon(model, max_wait_us=20000) as daemon:
            served = run_closed_loop_clients(
                None, None, frame_sets, timeout=WAIT,
                client_factory=lambda tid: SocketClient(
                    daemon.address, "water", client=f"t{tid}"
                ),
            )
            snap = daemon.server.stats.snapshot()
        assert sum(len(v) for v in served.values()) == 9
        assert snap["requests_completed"] == 9
        for results in served.values():
            for frame, result in results:
                assert_bitwise(result, direct(model, frame))

    def test_welcome_reports_models_and_limits(self, model):
        with make_daemon(model, max_queue=17, max_per_client=5) as daemon:
            with SocketClient(daemon.address) as client:  # sole model: bound
                assert client.model == "water"
                assert client.cutoff == model.config.rcut
                assert client.models["water"]["n_types"] == model.config.n_types
                assert client.limits["max_queue"] == 17
                assert client.limits["max_per_client"] == 5

    def test_unknown_model_rejected_at_bind(self, model):
        with make_daemon(model) as daemon:
            with pytest.raises(KeyError, match="copper"):
                SocketClient(daemon.address, "copper")

    def test_version_mismatch_closes_connection(self, model):
        with make_daemon(model) as daemon:
            with socketmod.create_connection(daemon.address) as raw:
                frame = proto.encode_frame(proto.MsgType.HELLO, {})
                bad = bytearray(frame)
                bad[4] = proto.PROTOCOL_VERSION + 1
                raw.sendall(bytes(bad))
                # daemon refuses the handshake and closes: EOF
                assert raw.recv(1) == b""

    def test_malformed_header_answered_with_protocol_error(self, model, base):
        """A well-framed SUBMIT whose header names no decodable arrays gets
        the ERR_PROTOCOL ERROR frame (not a dead reader thread and a bare
        close), and the daemon keeps serving everyone else."""
        body = bytes((proto.PROTOCOL_VERSION, proto.MsgType.SUBMIT)) + container(
            {"req": 7, "model": "water", "arrays": [["positions", "|O", [1]]]},
            b"\x00" * 8,
        )
        with make_daemon(model) as daemon:
            with socketmod.create_connection(daemon.address, timeout=WAIT) as raw:
                proto.write_frame(raw, proto.MsgType.HELLO, {"client": "fuzz"})
                assert proto.read_frame(raw)[0] == proto.MsgType.WELCOME
                raw.sendall(proto._LEN.pack(len(body)) + body)
                mtype, header, _ = proto.read_frame(raw)
                assert mtype == proto.MsgType.ERROR
                assert header["kind"] == proto.ERR_PROTOCOL
                assert "bad array spec" in header["message"]
            with SocketClient(daemon.address, "water") as client:
                frame = perturbed_frames(base, 1, seed0=31)[0]
                result = client.evaluate(frame, timeout=WAIT)
                assert served_matches_direct(model, frame, result)

    def test_stats_round_trip(self, model, base):
        with make_daemon(model) as daemon:
            with SocketClient(daemon.address, "water") as client:
                frame = perturbed_frames(base, 1, seed0=30)[0]
                r1 = client.evaluate(frame, timeout=WAIT)
                r2 = client.evaluate(frame, timeout=WAIT)
                assert_bitwise(r2, r1)  # a repeat is re-evaluated, bitwise
                snap = client.stats()
                assert snap == daemon.server.stats.snapshot()
                assert snap["requests_completed"] == 2
                assert snap["batches"] == 2

    def test_invalid_frame_surfaces_remotely(self, model, base):
        """A NaN-position frame is refused with the in-process exception
        type; the good frames pipelined around it on the same connection
        complete bitwise, and the connection stays usable."""
        good = perturbed_frames(base, 2, seed0=35)
        bad = base.copy()
        bad.positions[5, 1] = np.nan
        pairs = neighbor_pairs(base, model.config.rcut)
        with make_daemon(model, max_batch=4) as daemon:
            with SocketClient(daemon.address, "water") as client:
                with daemon.server.paused():
                    first = client.submit(good[0])
                    refused = client.submit(bad, *pairs)
                    second = client.submit(good[1])
                    with pytest.raises(InvalidFrame, match="non-finite"):
                        refused.result(WAIT)
                assert_bitwise(first.result(WAIT), direct(model, good[0]))
                assert_bitwise(second.result(WAIT), direct(model, good[1]))
                snap = client.stats()
        assert snap["requests_rejected"] == 1
        assert snap["requests_submitted"] == snap["requests_completed"] == 2
        assert snap["requests_failed"] == 0

    def test_quota_exceeded_surfaces_remotely(self, model, base):
        """A connection over its per-client quota gets QuotaExceeded, while
        the same load through a second connection is admitted."""
        with make_daemon(
            model, max_per_client=2, autostart=False, max_queue=16
        ) as daemon:
            frames = perturbed_frames(base, 3, seed0=40)
            with SocketClient(daemon.address, "water") as greedy:
                futures = [
                    greedy.submit(f, block=False) for f in frames[:2]
                ]
                with pytest.raises(QuotaExceeded):
                    greedy.submit(frames[2], block=False).result(WAIT)
                with SocketClient(daemon.address, "water") as other:
                    fut = other.submit(frames[2], block=False)
                    daemon.server.start()
                    assert fut.result(WAIT) is not None
                    for f in futures:
                        f.result(WAIT)
            snap = daemon.server.stats.snapshot()
            assert snap["quota_rejections"] == 1

    def test_backpressure_surfaces_remotely(self, model, base):
        with make_daemon(model, autostart=False, max_queue=2) as daemon:
            frames = perturbed_frames(base, 3, seed0=50)
            with SocketClient(daemon.address, "water") as client:
                futures = [
                    client.submit(f, block=False) for f in frames[:2]
                ]
                with pytest.raises(QueueFull):
                    client.submit(frames[2], block=False).result(WAIT)
                daemon.server.start()
                for f in futures:
                    f.result(WAIT)

    def test_disconnect_cancels_queued_requests(self, model, base):
        """Dropping a connection mid-queue cancels its pending work: the
        slots free up and the cancellations are counted (conservation)."""
        with make_daemon(model, autostart=False, max_queue=8) as daemon:
            frames = perturbed_frames(base, 3, seed0=60)
            client = SocketClient(daemon.address, "water")
            for f in frames:
                client.submit(f, block=False)
            client.close()  # connection gone before any worker starts
            # the conn reader notices the close and cancels this conn's
            # pending work; the queue discards cancelled requests eagerly
            pause = threading.Event()
            for _ in range(200):
                if len(daemon.server.queue) == 0:
                    break
                pause.wait(0.05)
            assert len(daemon.server.queue) == 0
            daemon.stop(drain=True)
        snap = daemon.server.stats.snapshot()
        assert snap["requests_submitted"] == 3
        assert snap["requests_cancelled"] == 3
        assert snap["requests_completed"] == 0
        assert snap["batches"] == 0

    def test_submit_after_close_raises(self, model, base):
        with make_daemon(model) as daemon:
            client = SocketClient(daemon.address, "water")
            client.close()
            with pytest.raises(ServerClosed):
                client.submit(base)


# ---------------------------------------------------------------------------
# 3. ServingForceBackend: MD drivers over the socket
# ---------------------------------------------------------------------------


class TestServingForceBackend:
    def test_simulation_over_socket_bitwise(self, model, base):
        """The acceptance contract: a Simulation whose forces come through
        a SocketClient reproduces the in-process trajectory bitwise."""
        steps = 5
        ref_sys = base.copy()
        Simulation(
            ref_sys, DeepPotPair(model), dt=0.0005,
            neighbor=fitted_neighbor_list(ref_sys, model.config.rcut),
        ).run(steps)

        with make_daemon(model) as daemon:
            with SocketClient(daemon.address, "water") as client:
                sys_b = base.copy()
                backend = ServingForceBackend(client, timeout=WAIT)
                Simulation(
                    sys_b,
                    BackendPotential(backend, cutoff=client.cutoff),
                    dt=0.0005,
                    neighbor=fitted_neighbor_list(sys_b, client.cutoff),
                ).run(steps)
        assert np.array_equal(ref_sys.positions, sys_b.positions)
        assert np.array_equal(ref_sys.velocities, sys_b.velocities)
        assert backend.evaluations > 0

    def test_ensemble_over_injected_backend_bitwise(self, model, base):
        """EnsembleSimulation accepts an injected force backend; replicas
        stepped through the daemon match independent in-process replicas."""
        from repro.md.ensemble import EnsembleSimulation

        steps, R = 3, 2
        ref = [base.copy() for _ in range(R)]
        EnsembleSimulation(ref, model, dt=0.0005).run(steps)

        with make_daemon(model) as daemon:
            with SocketClient(daemon.address, "water") as client:
                reps = [base.copy() for _ in range(R)]
                ens = EnsembleSimulation(
                    reps,
                    force_backend=ServingForceBackend(client, timeout=WAIT),
                    cutoff=client.cutoff,
                    dt=0.0005,
                )
                ens.run(steps)
        for a, b in zip(ref, reps):
            assert np.array_equal(a.positions, b.positions)
            assert np.array_equal(a.velocities, b.velocities)

    def test_in_process_client_same_seam(self, model, base):
        """The same ServingForceBackend drives an in-process
        InferenceClient — the drivers cannot tell the transports apart."""
        frames = [
            ForceFrame(s, *neighbor_pairs(s, model.config.rcut))
            for s in perturbed_frames(base, 3, seed0=70)
        ]
        server = InferenceServer({"water": model}, max_batch=4)
        try:
            backend = ServingForceBackend(server.client("water"), timeout=WAIT)
            results = backend.evaluate(frames)
        finally:
            server.stop()
        for frame, result in zip(frames, results):
            assert_bitwise(result, direct(model, frame.system))
        assert backend.evaluations == 1  # one gather round


# ---------------------------------------------------------------------------
# 4. drain
# ---------------------------------------------------------------------------


def wait_admitted(daemon, n):
    """submit() returns once the frame is on the wire; wait for the daemon
    reader to actually admit all ``n`` before pulling the plug (a stop that
    beats admission refuses them instead — that path is
    test_submit_during_drain_refused_with_server_closed's)."""
    pause = threading.Event()
    for _ in range(200):
        if len(daemon.server.queue) == n:
            break
        pause.wait(0.05)
    assert len(daemon.server.queue) == n


class TestDrain:
    def test_drain_completes_queued_work_and_conserves(self, model, base):
        """Daemon stop under pre-loaded traffic: every queued request
        completes, flushes to its connection, and the ledger balances."""
        with make_daemon(model, autostart=False, max_queue=32) as daemon:
            frames = perturbed_frames(base, 6, seed0=80)
            client = SocketClient(daemon.address, "water")
            futures = [client.submit(f, block=False) for f in frames]
            wait_admitted(daemon, 6)
            daemon.server.start()
            daemon.stop(drain=True)  # drains workers, flushes outboxes
            results = [f.result(WAIT) for f in futures]
            for frame, result in zip(frames, results):
                assert_bitwise(result, direct(model, frame))
            client.close()
        snap = daemon.server.stats.snapshot()
        assert snap["requests_submitted"] == 6
        assert snap["requests_completed"] == 6
        assert snap["requests_submitted"] == (
            snap["requests_completed"]
            + snap["requests_failed"]
            + snap["requests_cancelled"]
        )

    def test_submit_during_drain_refused_with_server_closed(self, model, base):
        with make_daemon(model) as daemon:
            client = SocketClient(daemon.address, "water")
            daemon.stop(drain=True)
            # the daemon flushed a GOODBYE; once the client's reader has
            # processed it, submissions fail fast with ServerClosed
            client._reader.join(WAIT)
            with pytest.raises(ServerClosed):
                client.submit(base)
            client.close()

    def test_no_drain_cancels_pending(self, model, base):
        with make_daemon(model, autostart=False, max_queue=32) as daemon:
            frames = perturbed_frames(base, 4, seed0=90)
            client = SocketClient(daemon.address, "water")
            futures = [client.submit(f, block=False) for f in frames]
            wait_admitted(daemon, 4)
            daemon.stop(drain=False)
            for f in futures:
                with pytest.raises(Exception):
                    f.result(WAIT)  # CancelledError (or ServerClosed)
            client.close()
        snap = daemon.server.stats.snapshot()
        assert snap["requests_cancelled"] == 4
        assert snap["requests_submitted"] == (
            snap["requests_completed"]
            + snap["requests_failed"]
            + snap["requests_cancelled"]
        )
