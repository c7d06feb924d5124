"""Bounded, thread-safe FIFO request queue for the inference service.

The queue is the only structure clients and the workers share.  Clients
``put`` :class:`InferenceRequest` objects (backpressure: a full queue blocks
or raises :class:`QueueFull`); each model's worker removes coalescable runs
of its own requests with :meth:`RequestQueue.pop_batch`.

Sequence numbers are stamped *inside* ``put`` under the queue lock, so
submission order, queue order, and sequence order are one and the same —
that is the invariant the FIFO-fairness tests assert through
``ServerStats.batch_log``.

Internally the queue is **one lane per model** — a deque and a condition
variable (all conditions share the queue lock).  Every per-model count the
batching fill loop needs is an O(1) ``len`` of that model's deque, never an
O(queue) scan, and dispatch within a model is plain FIFO.  ``put`` notifies
only the admitted model's condition, so a worker parked on
``pop_batch(model, ...)`` never wakes for another model's traffic.

Requests whose futures are **cancelled while queued** (a client gave up on
its deadline — see ``InferenceClient.evaluate``) never burn a batch slot:
a done-callback registered at admission removes a cancelled request from
its deque immediately (freeing the bounded-queue slot for blocked
submitters even when no worker is consuming), and ``pop_batch`` discards
any that slip through the callback/extraction race.  Whichever side
removes the request reports it through the ``on_drop`` callback, which the
server wires to ``ServerStats.record_cancelled`` — every abandoned request
is counted exactly once.

**Per-client admission quotas** (the socket front-end's contract):
``max_per_client`` bounds how many requests one ``client_id`` may have
queued at once; excess submissions raise :class:`QuotaExceeded` immediately
(reject, never starve the other clients behind one runaway submitter).
Requests without a client id (in-process traffic) are exempt.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.md.system import System


class QueueFull(RuntimeError):
    """The bounded request queue refused a submission (backpressure)."""


class ServerClosed(RuntimeError):
    """The server is shut down and no longer accepts submissions."""


class QuotaExceeded(RuntimeError):
    """One client exceeded its per-client admission quota (rejected, so the
    bounded queue can never fill up with a single runaway client's
    requests while everyone else starves)."""


class WorkerCrashed(RuntimeError):
    """The worker thread executing this request's batch died mid-batch.

    The supervisor failed the in-flight futures (each counted exactly
    once) and respawned the worker with a fresh engine.  Resubmitting the
    same frame is always safe: evaluation is deterministic, so a replay is
    bitwise identical to what the crashed batch would have produced."""


class TransientEvalError(RuntimeError):
    """A transient, retryable evaluation failure — the frame itself is
    fine; resubmit it (``ServingForceBackend`` does so automatically when
    given a retry budget)."""


@dataclass
class InferenceRequest:
    """One client frame awaiting evaluation.

    ``seq`` is assigned by the queue at admission (-1 until then);
    ``future`` resolves to the frame's :class:`~repro.md.potential.
    PotentialResult`, bitwise identical to a direct ``DeepPot.evaluate``
    of the same frame regardless of which other requests it was batched
    with (see :mod:`repro.dp.batch`).

    ``client_id`` attributes the request to one submitter for quota
    accounting (``None`` = exempt).  ``nloc``/``pbc`` carry the domain-
    decomposition frame mode (all-local minimum-image frames by default),
    so the request duck-types :class:`repro.dp.backend.ForceFrame` and
    distributed sub-domain frames can be served through the same queue.
    """

    model: str
    system: System
    pair_i: np.ndarray
    pair_j: np.ndarray
    future: Future = field(default_factory=Future)
    seq: int = -1
    enqueued_at: float = 0.0
    client_id: Optional[str] = None
    nloc: Optional[int] = None
    pbc: bool = True


class RequestQueue:
    """Bounded FIFO of pending requests with batch-oriented removal.

    ``maxsize <= 0`` means unbounded.  The coalescing *policy* (batch
    bound, wait budget) is the consumer's: it passes both to
    :meth:`pop_batch`.  ``on_drop(n)`` is invoked (under the queue lock)
    whenever ``n`` already-cancelled requests are discarded.
    ``max_per_client`` (0 = unlimited) bounds any one ``client_id``'s
    simultaneously queued requests — the per-client admission quota.
    """

    def __init__(
        self,
        maxsize: int = 64,
        on_drop: Optional[Callable[[int], None]] = None,
        max_per_client: int = 0,
        faults=None,
    ):
        self.maxsize = int(maxsize)
        self.max_per_client = int(max_per_client)
        self._on_drop = on_drop
        #: optional :class:`~repro.serving.faults.FaultPlan` whose
        #: ``on_queue_put`` hook runs before each admission (outside the
        #: queue lock, so an injected delay never blocks consumers).
        self.faults = faults
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        #: model -> (pending requests in admission order, wakeup condition)
        self._lanes: dict[str, tuple[deque, threading.Condition]] = {}
        self._per_client: dict[str, int] = {}  # client_id -> queued requests
        self._size = 0
        self._closed = False
        self._seq = 0

    def __len__(self) -> int:
        with self._lock:
            return self._size

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def pending_by_model(self) -> dict:
        """Snapshot of per-model pending counts (the O(1) fill-loop counts)."""
        with self._lock:
            return {m: len(dq) for m, (dq, _) in self._lanes.items() if dq}

    # ------------------------------------------------------------- internals

    def _lane(self, model: str) -> tuple[deque, threading.Condition]:
        """The model's deque and wakeup condition (lazily created)."""
        lane = self._lanes.get(model)
        if lane is None:
            # Safe despite lazy creation: every caller already holds
            # self._lock (the condition wraps that same lock), so two threads
            # can never race the dict insert.
            cond = threading.Condition(self._lock)  # repro-lint: disable=L103
            lane = self._lanes[model] = (deque(), cond)
        return lane

    def _check_quota(self, request: InferenceRequest) -> None:
        if (
            self.max_per_client > 0
            and request.client_id is not None
            and self._per_client.get(request.client_id, 0)
            >= self.max_per_client
        ):
            raise QuotaExceeded(
                f"client {request.client_id!r} already has "
                f"{self.max_per_client} requests queued"
            )

    def _note_removed(self, request: InferenceRequest) -> None:
        cid = request.client_id
        if cid is None:
            return
        left = self._per_client.get(cid, 0) - 1
        if left > 0:
            self._per_client[cid] = left
        else:
            self._per_client.pop(cid, None)

    def _notify_all_conds(self) -> None:
        self._not_full.notify_all()
        for _, cond in self._lanes.values():
            cond.notify_all()

    # ------------------------------------------------------------- producer

    def put(
        self,
        request: InferenceRequest,
        block: bool = True,
        timeout: Optional[float] = None,
    ) -> InferenceRequest:
        """Admit a request, stamping its sequence number and enqueue time.

        A full queue raises :class:`QueueFull` immediately (``block=False``)
        or after ``timeout`` seconds; a closed queue raises
        :class:`ServerClosed`; a request from a client already holding
        ``max_per_client`` queue slots raises :class:`QuotaExceeded` without
        waiting (quota rejections are immediate even when ``block=True`` —
        backpressure waits are for *shared* capacity, not for one client's
        own backlog to clear).  Only the request's model is notified.
        """
        if self.faults is not None:
            self.faults.on_queue_put(request)
        with self._not_full:
            if self._closed:
                raise ServerClosed("request queue is closed")
            self._check_quota(request)
            if self.maxsize > 0 and self._size >= self.maxsize:
                if not block:
                    raise QueueFull(f"queue depth {self.maxsize} reached")
                deadline = (
                    None if timeout is None else time.perf_counter() + timeout
                )
                while self._size >= self.maxsize and not self._closed:
                    remaining = (
                        None
                        if deadline is None
                        else deadline - time.perf_counter()
                    )
                    if remaining is not None and remaining <= 0:
                        raise QueueFull(
                            f"queue depth {self.maxsize} held for {timeout} s"
                        )
                    self._not_full.wait(remaining)
                if self._closed:
                    raise ServerClosed("request queue closed while waiting")
                # The client's own backlog may have filled up while this
                # thread waited for shared capacity; the quota invariant
                # holds at admission, not merely at entry.
                self._check_quota(request)
            request.seq = self._seq
            self._seq += 1
            request.enqueued_at = time.perf_counter()
            dq, cond = self._lane(request.model)
            dq.append(request)
            if request.client_id is not None:
                self._per_client[request.client_id] = (
                    self._per_client.get(request.client_id, 0) + 1
                )
            self._size += 1
            cond.notify_all()
        # A cancelled-while-queued request frees its (bounded) slot
        # immediately — blocked submitters must not starve behind dead
        # requests nobody will read.  Registered OUTSIDE the critical
        # section: add_done_callback runs inline when the future is already
        # done, and the callback takes the (non-reentrant) queue lock.
        # Future.cancel() runs it on the cancelling thread, which never
        # holds the queue lock.
        request.future.add_done_callback(
            lambda fut, req=request: self._discard_cancelled(req)
        )
        return request

    def _discard_cancelled(self, request: InferenceRequest) -> None:
        """Remove a cancelled request from its deque, if still queued.

        Done-callback target: fires on completion too (cheap no-op) and on
        cancellation, where it races the consumer's extraction — the queue
        lock serializes them, and whichever side removes the request is the
        one that reports it to ``on_drop`` (exactly-once accounting).
        """
        if not request.future.cancelled():
            return  # normal completion: the request already left the queue
        with self._lock:
            try:
                self._lanes[request.model][0].remove(request)
            except ValueError:
                return  # already extracted (or drained) by the consumer
            self._note_removed(request)
            self._size -= 1
            self._not_full.notify_all()
            if self._on_drop is not None:
                self._on_drop(1)

    # ------------------------------------------------------------- consumer

    def pop_batch(
        self,
        model: str,
        max_batch: int,
        max_wait: float,
        gate: Optional[threading.Event] = None,
    ) -> Optional[list[InferenceRequest]]:
        """Remove ``model``'s next batch, in admission order.

        Blocks until at least one of ``model``'s requests is pending (and
        ``gate``, if given, is set — the server's pause switch), then gives
        later arrivals up to ``max_wait`` seconds to fill the batch to
        ``max_batch`` requests.  The consumer parks on the model's own
        condition, so it never wakes for other traffic, and other models'
        requests keep their queue positions.  Requests whose futures are
        already cancelled are discarded instead of returned (reported via
        ``on_drop``).  Returns ``None`` once the queue is closed and the
        model's deque is drained; a close cuts every wait short so shutdown
        never sleeps out a wait budget.
        """
        with self._lock:  # _lanes is only ever touched under the lock
            dq, cond = self._lane(model)
        with cond:
            while True:
                # -- wait for work (or closure) --------------------------
                while not dq or (gate is not None and not gate.is_set()):
                    if self._closed:
                        if not dq:
                            return None
                        break  # closed with leftovers: drain even if gated
                    cond.wait()

                # -- give the batch max_wait to fill ---------------------
                # A pause (gate cleared) cuts the fill window short, so
                # requests staged under pause() join the post-resume
                # coalescing instead of riding a batch already gathering.
                if max_wait > 0 and not self._closed:
                    deadline = time.perf_counter() + max_wait
                    while gate is None or gate.is_set():
                        if len(dq) >= max_batch or not dq or self._closed:
                            # full batch, every pending request cancelled
                            # (nothing left to fill), or closing
                            break
                        remaining = deadline - time.perf_counter()
                        if remaining <= 0:
                            break
                        cond.wait(remaining)

                # -- extract, preserving FIFO -----------------------------
                batch: list[InferenceRequest] = []
                dropped = 0
                while dq and len(batch) < max_batch:
                    r = dq.popleft()
                    if r.future.cancelled():
                        dropped += 1  # abandoned deadline: free the slot
                    else:
                        batch.append(r)
                    self._note_removed(r)
                self._size -= len(batch) + dropped
                if batch or dropped:
                    self._not_full.notify_all()
                if dropped and self._on_drop is not None:
                    self._on_drop(dropped)
                if batch:
                    return batch

    # ------------------------------------------------------------- shutdown

    def kick(self) -> None:
        """Wake every parked consumer (used by resume)."""
        with self._lock:
            self._notify_all_conds()

    def close(self) -> None:
        """Refuse further submissions; pending requests stay drainable."""
        with self._lock:
            self._closed = True
            self._notify_all_conds()

    def close_and_drain(self) -> list[InferenceRequest]:
        """Close and atomically remove every pending request (no-drain
        shutdown path; the caller cancels the returned requests' futures).
        Returned in global admission (seq) order."""
        with self._lock:
            self._closed = True
            pending = sorted(
                (r for dq, _ in self._lanes.values() for r in dq),
                key=lambda r: r.seq,
            )
            for dq, _ in self._lanes.values():
                dq.clear()
            self._per_client.clear()
            self._size = 0
            self._notify_all_conds()
            return pending
