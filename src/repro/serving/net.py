"""Out-of-process serving: the socket front-end over the inference server.

This is the ROADMAP's "one coalescing seam from socket to simulation": a
:class:`ServingDaemon` exposes an in-process
:class:`~repro.serving.worker.InferenceServer` over a local TCP socket
speaking the :mod:`repro.serving.protocol` frame protocol, and a
:class:`SocketClient` mirrors :class:`~repro.serving.client.
InferenceClient` over that wire.  External OS processes, interactive
clients and long-running MD drivers (through :class:`~repro.dp.backend.
ServingForceBackend`) all land in the SAME request queue, so their frames
coalesce into one set of served batches.

Daemon lifecycle::

    accept ──> per-connection reader ──> RequestQueue ──> model workers
                     │  (decode SUBMIT,                     │
                     │   server.submit)                     │ evaluate_batch
                     │                                      v
    client <── per-connection writer <── future done-callbacks
               (encode RESULT/ERROR)

One acceptor thread; per connection, one reader thread (decodes frames,
submits into the queue — the same admission path in-process clients use,
including quotas and frame validation) and one writer thread (drains an
outbox fed by future done-callbacks, so array encoding never runs on a
worker thread).  Graceful drain: :meth:`ServingDaemon.stop` refuses new
connections and submissions, lets queued requests complete, flushes every
outbox, then closes — conservation (submitted == completed + failed +
cancelled) holds across the wire, which ``repro serve`` asserts on
SIGTERM.

Numerical contract: arrays cross the wire as raw dtype/shape-tagged bytes
(:mod:`repro.serving.protocol`), so a served result is **bitwise
identical** to a direct in-process evaluation of the same frame — the
socket adds no representational noise, and a trajectory driven through a
``SocketClient`` equals the in-process trajectory exactly
(``tests/test_serving_net.py``).
"""

from __future__ import annotations

import queue as _queuemod
import socket
import threading
import time
from concurrent.futures import CancelledError, Future
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from repro.dp.backend import InvalidFrame
from repro.serving import protocol as proto
from repro.serving.client import FrameClient
from repro.serving.protocol import MsgType, ProtocolError
from repro.serving.queue import (
    QueueFull,
    QuotaExceeded,
    ServerClosed,
    TransientEvalError,
    WorkerCrashed,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.md.system import System
    from repro.serving.faults import FaultPlan
    from repro.serving.worker import InferenceServer


#: outbox sentinel: flush what is queued, send GOODBYE, close the socket
_FLUSH_AND_CLOSE = object()


class _Connection:
    """One client connection: reader + writer threads and their shared
    bookkeeping.

    The reader owns the receive side of the socket; the writer owns the
    send side (so RESULT frames from worker done-callbacks never interleave
    bytes with each other).  ``pending`` maps request ids to the server-side
    futures still in flight for this connection — dropped connections
    cancel them so abandoned requests free their queue slots exactly like
    abandoned in-process deadlines.
    """

    def __init__(self, daemon: "ServingDaemon", sock: socket.socket, cid: int):
        self.daemon = daemon
        self.sock = sock
        self.cid = cid
        self.client_id = f"conn-{cid}"
        self.outbox: _queuemod.Queue = _queuemod.Queue()
        self.pending: dict[int, Future] = {}
        self._lock = threading.Lock()
        self._send_failed = False
        # Refreshed by every inbound frame (PING heartbeats included); the
        # daemon's idle sweeper severs connections whose clock goes stale.
        self.last_active = time.monotonic()
        self.reader = threading.Thread(
            target=self._read_loop, name=f"repro-net-reader-{cid}", daemon=True
        )
        self.writer = threading.Thread(
            target=self._write_loop, name=f"repro-net-writer-{cid}", daemon=True
        )

    def start(self) -> None:
        self.writer.start()
        self.reader.start()

    # ----------------------------------------------------------------- reader

    def _read_loop(self) -> None:
        try:
            while True:
                try:
                    mtype, header, arrays = proto.read_frame(self.sock)
                except ProtocolError as exc:
                    self._post(MsgType.ERROR, {
                        "req": header.get("req", -1) if "header" in dir() else -1,
                        "kind": proto.ERR_PROTOCOL, "message": str(exc),
                    })
                    break
                self.last_active = time.monotonic()
                if self.daemon.faults is not None and (
                    self.daemon.faults.on_conn_frame_in(self.client_id)
                ):
                    # Injected sever: drop the socket abruptly, no GOODBYE —
                    # the client sees a reset, like a network partition.
                    try:
                        self.sock.shutdown(socket.SHUT_RDWR)
                    except OSError:
                        pass
                    break
                if mtype == MsgType.GOODBYE:
                    break
                self._handle(mtype, header, arrays)
        except (ConnectionError, OSError):
            pass  # peer vanished (or daemon closed the socket under us)
        finally:
            self._abandon_pending()
            self.outbox.put(_FLUSH_AND_CLOSE)
            self.daemon._forget(self)

    def _handle(self, mtype: MsgType, header: dict, arrays: dict) -> None:
        if mtype == MsgType.SUBMIT:
            self._handle_submit(header, arrays)
        elif mtype == MsgType.CANCEL:
            with self._lock:
                future = self.pending.get(int(header["req"]))
            if future is not None:
                future.cancel()  # done-callback reports back if it lands
        elif mtype == MsgType.PING:
            # The read itself already refreshed last_active; echo so the
            # client knows the connection is live end to end.
            self._post(MsgType.PONG, {"req": int(header.get("req", -1))})
        elif mtype == MsgType.STATS:
            self._post(MsgType.STATS_RESULT, {
                "req": int(header.get("req", -1)),
                "stats": self.daemon.server.stats.snapshot(),
            })
        else:
            self._post(MsgType.ERROR, {
                "req": int(header.get("req", -1)),
                "kind": proto.ERR_PROTOCOL,
                "message": f"unexpected message type {mtype.name}",
            })

    def _handle_submit(self, header: dict, arrays: dict) -> None:
        req_id = int(header["req"])
        if self.daemon.draining:
            self._post(MsgType.ERROR, {
                "req": req_id, "kind": proto.ERR_CLOSED,
                "message": "daemon is draining",
            })
            return
        try:
            system = proto.build_system(arrays)
            pair_i = arrays.get("pair_i")
            pair_j = arrays.get("pair_j")
            nloc = header.get("nloc")
            future = self.daemon.server.submit(
                header["model"],
                system,
                pair_i,
                pair_j,
                block=bool(header.get("block", True)),
                timeout=header.get("admit_timeout"),
                client_id=self.client_id,
                nloc=None if nloc is None else int(nloc),
                pbc=bool(header.get("pbc", True)),
            )
        except QuotaExceeded as exc:
            self._post(MsgType.ERROR, {
                "req": req_id, "kind": proto.ERR_QUOTA, "message": str(exc),
            })
            return
        except QueueFull as exc:
            self._post(MsgType.ERROR, {
                "req": req_id, "kind": proto.ERR_QUEUE_FULL,
                "message": str(exc),
            })
            return
        except ServerClosed as exc:
            self._post(MsgType.ERROR, {
                "req": req_id, "kind": proto.ERR_CLOSED, "message": str(exc),
            })
            return
        except KeyError as exc:
            self._post(MsgType.ERROR, {
                "req": req_id, "kind": proto.ERR_UNKNOWN_MODEL,
                "message": str(exc),
            })
            return
        except ValueError as exc:
            # InvalidFrame from admission, or arrays System/Box refuse to
            # build at all — either way this one request is refused.
            if not isinstance(exc, InvalidFrame):
                self.daemon.server.stats.record_reject()
            self._post(MsgType.ERROR, {
                "req": req_id, "kind": proto.ERR_INVALID, "message": str(exc),
            })
            return
        with self._lock:
            self.pending[req_id] = future
        # The callback only enqueues (req_id, future) — encoding happens on
        # the writer thread, never on the worker that resolved the future.
        future.add_done_callback(
            lambda fut, rid=req_id: self._on_done(rid, fut)
        )

    # ----------------------------------------------------------------- writer

    def _on_done(self, req_id: int, future: Future) -> None:
        with self._lock:
            self.pending.pop(req_id, None)
        self.outbox.put((req_id, future))

    def _post(self, mtype: MsgType, header: dict, arrays=None) -> None:
        self.outbox.put((mtype, header, arrays))

    def _write_loop(self) -> None:
        while True:
            item = self.outbox.get()
            if item is _FLUSH_AND_CLOSE:
                try:
                    self._send(MsgType.GOODBYE, {})
                    self.sock.shutdown(socket.SHUT_RDWR)
                except (ConnectionError, OSError):
                    pass  # peer already hung up
                self.sock.close()
                return
            try:
                if len(item) == 2:
                    self._send_future(*item)
                else:
                    self._send(*item)
            except (ConnectionError, OSError):
                # Peer is gone: keep draining the outbox (futures must not
                # pile up unread) but stop writing.
                self._send_failed = True

    def _send(self, mtype: MsgType, header: dict, arrays=None) -> None:
        if self._send_failed:
            return
        frame = proto.encode_frame(mtype, header, arrays)
        faults = self.daemon.faults
        if faults is not None:
            action, delay = faults.on_conn_frame_out(self.client_id)
            if action == "delay":
                time.sleep(delay)
            elif action == "duplicate":
                # Receivers are idempotent: a second RESULT for a resolved
                # request finds no pending future and is dropped.
                self.sock.sendall(frame)
            elif action == "corrupt":
                from repro.serving.faults import corrupt_frame

                frame = corrupt_frame(frame)
        self.sock.sendall(frame)

    def _send_future(self, req_id: int, future: Future) -> None:
        if future.cancelled():
            self._send(MsgType.ERROR, {
                "req": req_id, "kind": proto.ERR_CANCELLED,
                "message": "request cancelled",
            })
            return
        exc = future.exception()
        if exc is not None:
            if isinstance(exc, ServerClosed):
                kind = proto.ERR_CLOSED
            elif isinstance(exc, WorkerCrashed):
                kind = proto.ERR_CRASH
            elif isinstance(exc, TransientEvalError):
                kind = proto.ERR_TRANSIENT
            else:
                kind = proto.ERR_EVAL
            self._send(MsgType.ERROR, {
                "req": req_id, "kind": kind,
                "message": f"{type(exc).__name__}: {exc}",
            })
            return
        # seq is the queue's global admission stamp — clients use it to
        # line their requests up against the server's batch_log.
        self._send(
            MsgType.RESULT,
            {"req": req_id, "seq": int(future.request.seq)},
            proto.result_arrays(future.result()),
        )

    # ------------------------------------------------------------- lifecycle

    def _abandon_pending(self) -> None:
        """Cancel still-queued requests of a dropped connection — nobody
        will read their results, so they must free their queue slots (and
        be counted cancelled) exactly like abandoned deadlines."""
        with self._lock:
            futures = list(self.pending.values())
        for f in futures:
            f.cancel()

    def drained(self) -> bool:
        with self._lock:
            no_pending = not self.pending
        return no_pending and self.outbox.empty()


class ServingDaemon:
    """Serves an :class:`~repro.serving.worker.InferenceServer` over TCP.

    ``port=0`` binds an ephemeral port; read :attr:`address` after
    construction.  The daemon owns the listening socket and all connection
    threads, but NOT the server's lifecycle policy: :meth:`stop` drains and
    stops the wrapped server too (``drain=False`` cancels pending work).

    Use as a context manager, or ``start()``/``stop()`` explicitly::

        with ServingDaemon(server) as daemon:
            client = SocketClient(daemon.address, "water")
            result = client.evaluate(frame)
    """

    def __init__(
        self,
        server: "InferenceServer",
        host: str = "127.0.0.1",
        port: int = 0,
        faults: Optional["FaultPlan"] = None,
        idle_timeout: float = 0.0,
    ):
        self.server = server
        self.draining = False
        #: fault-injection hooks for this daemon's connections (``None``
        #: injects nothing); pass the same plan to the server for
        #: worker-side faults.
        self.faults = faults
        #: seconds of inbound silence after which a connection is severed
        #: (0 = never).  Clients with ``heartbeat`` enabled stay alive
        #: while idle; a client whose process died frees its quota slots
        #: once the sweeper reaps it.
        self.idle_timeout = float(idle_timeout)
        self.idle_swept = 0  # connections reaped by the idle sweeper
        self._closed = False
        self._conn_lock = threading.Lock()
        self._conns: list[_Connection] = []
        self._next_cid = 0
        self._stopped = threading.Event()
        self._sweep_stop = threading.Event()
        self._sweeper: Optional[threading.Thread] = None
        # The listening socket lives for the daemon's whole life; stop()
        # closes it (and __init__ failing after creation cleans it up).
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, port))
            sock.listen(64)
        except BaseException:
            sock.close()
            raise
        self._sock = sock
        self.address: tuple[str, int] = sock.getsockname()[:2]
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="repro-net-acceptor", daemon=True
        )
        self._started = False

    # ------------------------------------------------------------- lifecycle

    def start(self) -> "ServingDaemon":
        if self._closed:
            raise ServerClosed("daemon was stopped; build a new one")
        if not self._started:
            self._started = True
            self._acceptor.start()
            if self.idle_timeout > 0:
                self._sweeper = threading.Thread(
                    target=self._sweep_loop,
                    name="repro-net-sweeper",
                    daemon=True,
                )
                self._sweeper.start()
        return self

    def __enter__(self) -> "ServingDaemon":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop(drain=exc == (None, None, None))

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _addr = self._sock.accept()
            except OSError:
                return  # listener closed: daemon is stopping
            if self.draining:
                sock.close()
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._conn_lock:
                cid = self._next_cid
                self._next_cid += 1
                conn = _Connection(self, sock, cid)
                self._conns.append(conn)
            self._welcome(conn)
            conn.start()

    def _welcome(self, conn: _Connection) -> None:
        """HELLO/WELCOME handshake, on the acceptor thread (one frame each
        way, before the connection's own threads exist)."""
        try:
            mtype, header, _ = proto.read_frame(conn.sock)
            if mtype != MsgType.HELLO:
                raise ProtocolError(f"expected HELLO, got {mtype.name}")
            name = header.get("client")
            if name:
                conn.client_id = f"{name}-{conn.cid}"
            models = {
                n: {
                    "rcut": self.server.model(n).config.rcut,
                    "n_types": int(self.server.model(n).config.n_types),
                }
                for n in self.server.model_names()
            }
            proto.write_frame(conn.sock, MsgType.WELCOME, {
                "protocol": proto.PROTOCOL_VERSION,
                "models": models,
                "limits": {
                    "max_batch": self.server.max_batch,
                    "max_queue": self.server.queue.maxsize,
                    "max_per_client": self.server.queue.max_per_client,
                },
            })
        except (ConnectionError, OSError, ProtocolError):
            conn.sock.close()
            self._forget(conn)

    def _sweep_loop(self) -> None:
        """Reap connections with no inbound frame for ``idle_timeout``
        seconds: shut their sockets down, which makes their reader abandon
        pending work and clean up through the normal disconnect path.
        Bounded wait on the stop event — never a busy loop."""
        interval = max(self.idle_timeout / 4.0, 0.05)
        while not self._sweep_stop.wait(interval):
            cutoff = time.monotonic() - self.idle_timeout
            with self._conn_lock:
                idle = [c for c in self._conns if c.last_active < cutoff]
            for conn in idle:
                self.idle_swept += 1
                try:
                    conn.sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # already closing

    def _forget(self, conn: _Connection) -> None:
        with self._conn_lock:
            if conn in self._conns:
                self._conns.remove(conn)

    def connection_count(self) -> int:
        with self._conn_lock:
            return len(self._conns)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until :meth:`stop` completes (the ``repro serve`` main
        thread parks here while the signal handler triggers the stop)."""
        return self._stopped.wait(timeout)

    def stop(self, drain: bool = True, timeout: float = 60.0) -> None:
        """Graceful shutdown: refuse new work, finish queued work, flush.

        1. stop accepting connections and SUBMITs (``draining``);
        2. stop the wrapped server — ``drain=True`` completes every queued
           request first, ``drain=False`` cancels them (either way each
           connection's done-callbacks enqueue the outcome);
        3. flush every connection's outbox, send GOODBYE, close sockets.

        Conservation holds across the wire: after a drain-stop, submitted
        == completed + failed + cancelled in ``server.stats``.
        """
        if self._closed:
            return
        self._closed = True
        self.draining = True
        self._sweep_stop.set()
        if self._sweeper is not None:
            self._sweeper.join(timeout)
        # shutdown() (not just close()) is what actually wakes a thread
        # blocked in accept() on Linux; close() alone leaves it parked on
        # the old fd forever.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # never connected / already dead: accept() fails anyway
        self._sock.close()
        if self._started:
            self._acceptor.join(timeout)
        self.server.stop(drain=drain, timeout=timeout)
        # Workers are done: every submitted future is resolved and its
        # outcome sits in some outbox.  Flush and close.
        with self._conn_lock:
            conns = list(self._conns)
        for conn in conns:
            conn.outbox.put(_FLUSH_AND_CLOSE)
        deadline = time.perf_counter() + timeout
        for conn in conns:
            conn.writer.join(max(0.0, deadline - time.perf_counter()))
            conn.reader.join(max(0.0, deadline - time.perf_counter()))
        self._stopped.set()


# ---------------------------------------------------------------------------
# client side
# ---------------------------------------------------------------------------


def _parse_address(address) -> tuple[str, int]:
    if isinstance(address, str):
        host, _, port = address.rpartition(":")
        return (host or "127.0.0.1", int(port))
    host, port = address
    return (str(host), int(port))


class _ResendRecord:
    """Everything needed to resubmit one in-flight SUBMIT after a
    reconnect: the original header, the original arrays (re-encoded
    bitwise identical, so the replay evaluates to the same result), and
    the remaining retry budget."""

    __slots__ = ("header", "arrays", "retries_left")

    def __init__(self, header, arrays, retries_left):
        self.header = header
        self.arrays = arrays
        self.retries_left = retries_left


class SocketClient(FrameClient):
    """A remote :class:`~repro.serving.client.InferenceClient` speaking the
    wire protocol — same calling surface (``submit``/``cutoff``, and
    ``evaluate``/``evaluate_many`` from the shared
    :class:`~repro.serving.client.FrameClient`, whose abandoned requests
    also send CANCEL), plus a ``stats()`` round trip and ``close()``.

    One background reader thread resolves this client's futures as RESULT/
    ERROR frames arrive; submission is locked, so a client may be shared by
    several threads (each closed-loop load-generator thread typically holds
    its own connection instead — that is what exercises cross-client
    coalescing).

    ``model=None`` binds to the daemon's sole hosted model.  The server
    enforces per-client quotas against this connection's identity
    (``client`` name).

    Resilience knobs (all off/minimal by default — a plain client behaves
    exactly like PR 7's):

    * ``connect_retry`` — the *initial* connect retries connection
      refusals with capped exponential backoff + jitter for up to this
      many seconds (a daemon that printed its address may still be a few
      milliseconds from ``accept()`` — the CI smoke race).
    * ``retries`` — per-request resubmit budget.  ``> 0`` turns on
      reconnection: a dropped connection is re-dialed (capped exponential
      backoff + jitter, at most ``reconnect_attempts`` dials) and every
      unresolved SUBMIT still inside its budget is resent bitwise
      identical under the same request id.  Replays are safe: evaluation
      is deterministic, so a frame whose RESULT was lost is simply
      evaluated again to the same bits.
    * ``heartbeat`` — seconds between PING frames (0 = none), keeping an
      idle connection alive across the daemon's ``idle_timeout`` sweeps.
    """

    def __init__(
        self,
        address: Union[str, tuple],
        model: Optional[str] = None,
        client: Optional[str] = None,
        connect_timeout: float = 30.0,
        connect_retry: float = 5.0,
        retries: int = 0,
        reconnect_attempts: int = 5,
        backoff: float = 0.05,
        backoff_cap: float = 1.0,
        heartbeat: float = 0.0,
        jitter_seed: int = 0,
    ):
        self._address = _parse_address(address)
        self._client_name = client
        self._connect_timeout = float(connect_timeout)
        self.retries = int(retries)
        self._reconnect_attempts = max(1, int(reconnect_attempts))
        self._backoff = float(backoff)
        self._backoff_cap = float(backoff_cap)
        self._rng = np.random.default_rng(jitter_seed)
        self._req = 0
        self._lock = threading.Lock()
        self._pending: dict[int, Future] = {}
        self._inflight: dict[int, _ResendRecord] = {}
        self._closed = False
        self._closing = False
        self.reconnects = 0  # successful re-dials after a dropped connection
        self.resubmits = 0   # SUBMIT frames resent after reconnects
        sock, header = self._connect_with_backoff(float(connect_retry))
        self.sock = sock
        self.models: dict[str, dict] = header["models"]
        self.limits: dict = header.get("limits", {})
        if model is None:
            if len(self.models) != 1:
                raise ValueError(
                    f"daemon hosts {sorted(self.models)}; pick one explicitly"
                )
            model = next(iter(self.models))
        if model not in self.models:
            raise KeyError(
                f"model {model!r} not hosted (have {sorted(self.models)})"
            )
        self.model = model
        self._reader = threading.Thread(
            target=self._read_loop, name="repro-net-client-reader", daemon=True
        )
        self._reader.start()
        self._heartbeat = float(heartbeat)
        self._hb_stop = threading.Event()
        self._hb_thread: Optional[threading.Thread] = None
        if self._heartbeat > 0:
            self._hb_thread = threading.Thread(
                target=self._heartbeat_loop,
                name="repro-net-client-heartbeat",
                daemon=True,
            )
            self._hb_thread.start()

    # ----------------------------------------------------------- connection

    def _connect_once(self) -> tuple[socket.socket, dict]:
        """One connect + HELLO/WELCOME handshake attempt."""
        sock = socket.create_connection(
            self._address, timeout=self._connect_timeout
        )
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            proto.write_frame(
                sock, MsgType.HELLO, {"client": self._client_name}
            )
            mtype, header, _ = proto.read_frame(sock)
            if mtype != MsgType.WELCOME:
                raise ProtocolError(f"expected WELCOME, got {mtype.name}")
            if header.get("protocol") != proto.PROTOCOL_VERSION:
                raise ProtocolError(
                    f"server speaks protocol {header.get('protocol')}, "
                    f"client speaks {proto.PROTOCOL_VERSION}"
                )
        except BaseException:
            sock.close()
            raise
        sock.settimeout(None)  # reader thread blocks; deadlines live client-side
        return sock, header

    def _backoff_sleep(self, delay: float, cap: Optional[float] = None) -> float:
        """Sleep a jittered ``delay`` (seeded generator — deterministic per
        client) and return the doubled, capped next delay: the canonical
        capped-exponential-backoff step."""
        bound = self._backoff_cap if cap is None else cap
        time.sleep(max(0.0, min(delay * (0.5 + float(self._rng.random())), bound)))
        return min(delay * 2.0, self._backoff_cap)

    def _connect_with_backoff(self, retry_window: float):
        """Connect + handshake, retrying refused/reset dials with capped
        exponential backoff + jitter for up to ``retry_window`` seconds.
        Protocol errors (version mismatch, bad handshake) never retry —
        they are permanent, not racy."""
        deadline = time.perf_counter() + max(0.0, retry_window)
        delay = self._backoff
        while True:  # bounded: the deadline check below re-raises
            try:
                return self._connect_once()
            except (ConnectionError, OSError):
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    raise
                delay = self._backoff_sleep(delay, cap=remaining)

    # ------------------------------------------------------------- plumbing

    @property
    def cutoff(self) -> float:
        """The bound model's neighbor cutoff (from the WELCOME handshake —
        JSON floats round-trip ``repr``-exactly, so local pair lists match
        the server's own bitwise)."""
        return float(self.models[self.model]["rcut"])

    def _next_req(self) -> tuple[int, Future]:
        with self._lock:
            if self._closed:
                raise ServerClosed("socket client is closed")
            self._req += 1
            req_id = self._req
            future: Future = Future()
            future.req_id = req_id  # what a CANCEL for it must name
            self._pending[req_id] = future
        return req_id, future

    def _send(self, mtype: MsgType, header: dict, arrays=None) -> None:
        payload = proto.encode_frame(mtype, header, arrays)
        with self._lock:
            if self._closed:
                raise ServerClosed("socket client is closed")
            self.sock.sendall(payload)

    def _read_loop(self) -> None:
        while True:
            try:
                while True:
                    mtype, header, arrays = proto.read_frame(self.sock)
                    if mtype == MsgType.GOODBYE:
                        # Orderly server-side close (drain): terminal even
                        # with retries on — the server *chose* to close.
                        self._fail_pending(ServerClosed("server said goodbye"))
                        return
                    self._dispatch(mtype, header, arrays)
            except BaseException as exc:
                # Reader death: connection loss, protocol breakage, a bad
                # frame.  With resilience on, try to reconnect + resubmit;
                # otherwise (or once recovery gives up) fail the
                # outstanding futures — a silently dead reader would leave
                # every waiter hanging until its timeout.
                if not self._recover(exc):
                    self._fail_pending(exc)
                    return

    def _recover(self, exc: BaseException) -> bool:
        """Reconnect after a dropped connection and resubmit unresolved
        requests (runs on the reader thread).

        Each pending SUBMIT still inside its retry budget is resent with
        the SAME request id and bitwise-identical arrays; evaluation is
        deterministic, so a replayed frame whose RESULT was lost in flight
        resolves bitwise identically.  Requests out of budget or without a
        resend record (STATS round trips) fail with the original error.
        Returns False
        when resilience is off, the client is closing, or every re-dial
        failed.
        """
        if self.retries <= 0 or not isinstance(
            exc, (ConnectionError, OSError, ProtocolError)
        ):
            return False
        with self._lock:
            if self._closing or self._closed:
                return False
            dead = self.sock
        try:
            dead.close()
        except OSError:
            pass
        sock = header = None
        delay = self._backoff
        for attempt in range(self._reconnect_attempts):  # bounded re-dials
            with self._lock:
                if self._closing:
                    return False
            try:
                sock, header = self._connect_once()
                break
            except (ConnectionError, OSError):
                if attempt + 1 < self._reconnect_attempts:
                    delay = self._backoff_sleep(delay)
        if sock is None:
            return False
        doomed: list[Future] = []
        resend: list[tuple[int, _ResendRecord]] = []
        with self._lock:
            self.sock = sock
            self.models = header["models"]
            self.limits = header.get("limits", {})
            self.reconnects += 1
            for rid in list(self._pending):
                future = self._pending[rid]
                rec = self._inflight.get(rid)
                if future.cancelled():
                    self._pending.pop(rid)
                    self._inflight.pop(rid, None)
                elif rec is None or rec.retries_left <= 0:
                    doomed.append(self._pending.pop(rid))
                    self._inflight.pop(rid, None)
                else:
                    rec.retries_left -= 1
                    resend.append((rid, rec))
        for f in doomed:
            if not f.done():
                f.set_exception(
                    exc
                    if isinstance(exc, Exception)
                    else ConnectionError(str(exc))
                )
        for rid, rec in resend:
            try:
                self._send(MsgType.SUBMIT, rec.header, rec.arrays)
                self.resubmits += 1
            except (ServerClosed, ConnectionError, OSError):
                # The new socket died mid-resubmit: the next read fails and
                # recovery runs again — budgets were already decremented,
                # so this converges instead of looping forever.
                break
        return True

    def _heartbeat_loop(self) -> None:
        """PING the daemon every ``heartbeat`` seconds so its idle sweeper
        sees a live (if quiet) client.  Bounded wait on the stop event."""
        while not self._hb_stop.wait(self._heartbeat):
            try:
                self._send(MsgType.PING, {"req": -1})
            except (ServerClosed, ConnectionError, OSError):
                if self.retries <= 0:
                    return  # no recovery coming; stop pinging
                # mid-reconnect: skip this beat, keep the clock running

    def _dispatch(self, mtype: MsgType, header: dict, arrays: dict) -> None:
        req_id = int(header.get("req", -1))
        with self._lock:
            future = self._pending.pop(req_id, None)
            self._inflight.pop(req_id, None)
        if future is None:
            # Cancelled locally, a heartbeat PONG, or a duplicate frame for
            # an already-resolved request (resubmit race / injected
            # duplication) — all moot.
            return
        try:
            if mtype == MsgType.RESULT:
                # Mirror the in-process future metadata: which queue seq
                # answered this request.
                future.seq = int(header.get("seq", -1))
                future.set_result(proto.build_result(arrays))
            elif mtype == MsgType.STATS_RESULT:
                future.set_result(header)
            elif mtype == MsgType.ERROR:
                self._resolve_error(future, header)
        except BaseException as exc:
            # A frame that decodes but will not resolve (bad result arrays,
            # a future already failed) must still answer THIS waiter.
            if not future.done():
                future.set_exception(
                    exc if isinstance(exc, Exception) else RuntimeError(str(exc))
                )
            raise

    @staticmethod
    def _resolve_error(future: Future, header: dict) -> None:
        kind = header.get("kind")
        message = header.get("message", "")
        if kind == proto.ERR_CANCELLED:
            future.cancel()
            return
        exc: Exception
        if kind == proto.ERR_QUEUE_FULL:
            exc = QueueFull(message)
        elif kind == proto.ERR_QUOTA:
            exc = QuotaExceeded(message)
        elif kind == proto.ERR_CLOSED:
            exc = ServerClosed(message)
        elif kind == proto.ERR_UNKNOWN_MODEL:
            exc = KeyError(message)
        elif kind == proto.ERR_INVALID:
            exc = InvalidFrame(message)
        elif kind == proto.ERR_CRASH:
            exc = WorkerCrashed(message)
        elif kind == proto.ERR_TRANSIENT:
            exc = TransientEvalError(message)
        elif kind == proto.ERR_PROTOCOL:
            exc = ProtocolError(message)
        else:
            exc = RuntimeError(message)
        future.set_exception(exc)

    def _fail_pending(self, exc: BaseException) -> None:
        with self._lock:
            self._closed = True
            pending = list(self._pending.values())
            self._pending.clear()
            self._inflight.clear()
        for f in pending:
            if not f.cancelled():
                f.set_exception(
                    exc
                    if isinstance(exc, Exception)
                    else ConnectionError(str(exc))
                )

    # ------------------------------------------------------------ submission

    def submit(
        self,
        system: "System",
        pair_i: Optional[np.ndarray] = None,
        pair_j: Optional[np.ndarray] = None,
        block: bool = True,
        timeout: Optional[float] = None,
        nloc: Optional[int] = None,
        pbc: bool = True,
    ) -> Future:
        """Queue one frame on the remote daemon; returns a local future.

        Mirrors ``InferenceClient.submit``: the neighbor pair list is
        computed here (client process) when not supplied — admission
        backpressure (``block``/``timeout``) is enforced server-side and
        surfaces as :class:`~repro.serving.queue.QueueFull` on the future.
        """
        if pair_i is None or pair_j is None:
            from repro.md.neighbor import neighbor_pairs

            pair_i, pair_j = neighbor_pairs(system, self.cutoff)
        req_id, future = self._next_req()
        arrays = proto.system_arrays(system)
        arrays["pair_i"] = pair_i
        arrays["pair_j"] = pair_j
        header = {
            "req": req_id,
            "model": self.model,
            "block": block,
            "admit_timeout": timeout,
            "nloc": nloc,
            "pbc": pbc,
        }
        if self.retries > 0:
            with self._lock:
                self._inflight[req_id] = _ResendRecord(
                    header, arrays, self.retries
                )
        try:
            self._send(MsgType.SUBMIT, header, arrays)
        except (ConnectionError, OSError):
            if self.retries <= 0:
                raise
            # Connection mid-failure: the future stays pending; the
            # reader's recovery resubmits it from the inflight record.
        return future

    def _abandon(self, future: Future) -> None:
        """Cancel locally and, if that took, send CANCEL so the queued
        request frees its slot server-side instead of burning a batch slot
        on a result nobody reads."""
        if future.cancel():
            try:
                self._send(MsgType.CANCEL, {"req": future.req_id})
            except (ServerClosed, ConnectionError, OSError):
                pass  # connection already down; nothing left to free

    # ------------------------------------------------------------------ stats

    def stats(self, timeout: float = 30.0) -> dict:
        """A ``ServerStats.snapshot()`` of the remote daemon."""
        req_id, future = self._next_req()
        self._send(MsgType.STATS, {"req": req_id})
        return future.result(timeout)["stats"]

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Orderly close: GOODBYE, shut the socket, fail leftover futures.
        Sets ``_closing`` first so a concurrent recovery attempt stands
        down instead of re-dialing a connection the user is tearing down."""
        with self._lock:
            if self._closed:
                return
            self._closing = True
        self._hb_stop.set()
        try:
            self._send(MsgType.GOODBYE, {})
        except (ServerClosed, ConnectionError, OSError):
            pass
        self._fail_pending(ServerClosed("socket client closed"))
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        self._reader.join(5.0)
        if self._hb_thread is not None:
            self._hb_thread.join(5.0)

    def __enter__(self) -> "SocketClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
