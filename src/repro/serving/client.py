"""Client-side API: submit frames, get futures (or block for results).

A client is a thin, thread-safe handle binding an
:class:`~repro.serving.worker.InferenceServer` to one registered model.
Thread safety comes for free: submission only touches the locked request
queue, so any number of threads may share one client or hold their own.

Two calling styles::

    client = server.client("water")

    # sync — submit().result() in one call
    result = client.evaluate(system)

    # async-style — overlap local work with server-side batching
    futs = [client.submit(s) for s in frames]
    results = [f.result() for f in futs]

Pipelined submission is what feeds the micro-batcher: R outstanding futures
from one client (or one each from R clients) coalesce into a single batched
graph execution instead of R serial ones.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.md.potential import PotentialResult
    from repro.md.system import System
    from repro.serving.worker import InferenceServer


class FrameClient:
    """``evaluate`` / ``evaluate_many`` over ``submit`` — the deadline and
    abandonment discipline every client shares, written once.  A client
    supplies ``submit(system, pair_i, pair_j, timeout=...) -> Future`` and
    may extend :meth:`_abandon`."""

    def _abandon(self, future: Future) -> None:
        """Give up on a submitted request: a future cancelled while still
        queued is dropped at dispatch instead of filling a batch slot."""
        future.cancel()

    def evaluate(
        self,
        system: "System",
        pair_i: Optional[np.ndarray] = None,
        pair_j: Optional[np.ndarray] = None,
        timeout: Optional[float] = None,
    ) -> "PotentialResult":
        """Synchronous round trip under ONE deadline.

        ``timeout`` is a total budget: time spent waiting for admission to a
        full queue (a stalled server raises :class:`~repro.serving.queue.
        QueueFull` once it expires) is subtracted from the wait on the
        result, so the call returns or raises within ~``timeout`` seconds.

        A request abandoned at its deadline is **cancelled**, not leaked:
        if the result times out while the request is still queued, the
        future is cancelled so the worker drops it at dispatch (counted in
        ``ServerStats.requests_cancelled``, exactly once) instead of
        burning a batch slot on a result nobody will read.  A request
        already running when the deadline hits cannot be cancelled and
        completes normally; only this caller's wait is abandoned.
        """
        if timeout is None:
            return self.submit(system, pair_i, pair_j).result(None)
        deadline = time.perf_counter() + timeout
        future = self.submit(system, pair_i, pair_j, timeout=timeout)
        try:
            return future.result(max(0.0, deadline - time.perf_counter()))
        except FutureTimeout:
            self._abandon(future)
            raise

    def evaluate_many(
        self,
        systems: Sequence["System"],
        pair_lists: Optional[Sequence[tuple[np.ndarray, np.ndarray]]] = None,
        timeout: Optional[float] = None,
    ) -> list["PotentialResult"]:
        """Submit a frame stack, then gather — the pipelined pattern that
        lets the server coalesce the whole stack into few batches.

        ``timeout`` is one total budget for all submissions and all results
        (a shared deadline, like :meth:`evaluate`).  On any abandonment of
        the stack — a blown deadline, mid-stack backpressure
        (:class:`~repro.serving.queue.QueueFull`), or shutdown — every
        already-submitted, still-pending future is cancelled before the
        exception propagates, so abandoned frames free their queue slots
        instead of holding the queue full for results nobody will read.
        """
        deadline = (
            None if timeout is None else time.perf_counter() + timeout
        )

        def left() -> Optional[float]:
            if deadline is None:
                return None
            return max(0.0, deadline - time.perf_counter())

        if pair_lists is not None and len(pair_lists) != len(systems):
            raise ValueError(
                f"{len(systems)} systems but {len(pair_lists)} pair lists"
            )
        futures: list[Future] = []
        try:
            if pair_lists is None:
                for s in systems:
                    futures.append(self.submit(s, timeout=left()))
            else:
                for s, (pi, pj) in zip(systems, pair_lists):
                    futures.append(self.submit(s, pi, pj, timeout=left()))
            return [f.result(left()) for f in futures]
        except BaseException:
            for f in futures:
                self._abandon(f)
            raise


class InferenceClient(FrameClient):
    """Submits frames for one model hosted by an :class:`InferenceServer`.

    ``client_id`` (the quota accounting identity; ``None`` = exempt)
    stamps every submission from this client.
    """

    def __init__(
        self,
        server: "InferenceServer",
        model: str,
        client_id: Optional[str] = None,
    ):
        if model not in server.model_names():
            raise KeyError(
                f"model {model!r} not registered (have {server.model_names()})"
            )
        self.server = server
        self.model = model
        self.client_id = client_id

    @property
    def cutoff(self) -> float:
        """The model's neighbor cutoff (for building pair lists locally)."""
        return self.server.model(self.model).config.rcut

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
        """Queue one frame; the future resolves to its ``PotentialResult``.

        ``block``/``timeout`` control backpressure behaviour when the
        server's bounded queue is full (see ``InferenceServer.submit``);
        ``nloc``/``pbc`` carry the domain-decomposition frame mode.
        """
        return self.server.submit(
            self.model, system, pair_i, pair_j, block=block, timeout=timeout,
            client_id=self.client_id, nloc=nloc, pbc=pbc,
        )


def run_closed_loop_clients(
    server: Optional["InferenceServer"],
    model: Optional[str],
    frame_sets: dict[int, Sequence["System"]],
    timeout: float = 300.0,
    join_timeout: Optional[float] = None,
    client_factory: Optional[Callable[[int], object]] = None,
) -> dict[int, list]:
    """Drive a serving stack with one closed-loop client thread per frame
    set.

    Each client submits its frames synchronously — submit, wait, submit the
    next — so cross-client coalescing is the only batching available (the
    server's ``max_wait_us`` window at work).  Returns, per client id,
    the list of ``(frame, result)`` pairs.  A failure in any client thread
    (poisoned batch, backpressure timeout, shutdown) is re-raised here after
    all threads have joined — a broken serving stack can never masquerade as
    an empty-but-successful run.

    ``client_factory(tid)`` builds each thread's client — anything with an
    ``evaluate(frame, timeout=...)`` method (and optionally ``close()``,
    called when the thread finishes).  The default binds an in-process
    :class:`InferenceClient` to ``server``/``model``; socket runs pass
    ``client_factory=lambda tid: SocketClient(address, model)`` and may
    leave ``server=None`` — the in-process and out-of-process paths share
    this load generator and the bitwise helpers unchanged.

    The join itself is **bounded**: client threads (daemonic) are joined
    against a deadline — ``join_timeout`` seconds, defaulting to the
    worst-case per-client budget ``timeout * max(len(frames)) + 30`` — and
    a blown deadline raises with each hung client's progress instead of
    hanging the caller (and CI) forever on a stuck server.  Shared by the
    tests and ``examples/inference_service.py``.
    """
    import threading

    if client_factory is None:
        if server is None:
            raise ValueError("need a server (or a client_factory)")

        def client_factory(tid: int):
            return server.client(model)

    served: dict[int, list] = {tid: [] for tid in frame_sets}
    progress: dict[int, int] = {tid: 0 for tid in frame_sets}
    errors: dict[int, BaseException] = {}

    def run_client(tid: int) -> None:
        client = None
        try:
            client = client_factory(tid)
            for frame in frame_sets[tid]:
                served[tid].append(
                    (frame, client.evaluate(frame, timeout=timeout))
                )
                progress[tid] += 1
        except BaseException as exc:  # re-raised on the caller's thread
            errors[tid] = exc
        finally:
            close = getattr(client, "close", None)
            if close is not None:
                close()

    threads = {
        tid: threading.Thread(target=run_client, args=(tid,), daemon=True)
        for tid in frame_sets
    }
    for t in threads.values():
        t.start()
    if join_timeout is None:
        longest = max((len(v) for v in frame_sets.values()), default=0)
        join_timeout = timeout * longest + 30.0
    deadline = time.perf_counter() + join_timeout
    for t in threads.values():
        t.join(max(0.0, deadline - time.perf_counter()))
    hung = {
        tid: f"{progress[tid]}/{len(frame_sets[tid])} frames done"
        for tid, t in threads.items()
        if t.is_alive()
    }
    if hung:
        # Chain the first fast-failing client's exception (if any): it is
        # usually the root cause of the others hanging.
        cause = errors[min(errors)] if errors else None
        failed = (
            f"; clients {sorted(errors)} failed first" if errors else ""
        )
        raise RuntimeError(
            f"serving clients still running after the {join_timeout:.1f} s "
            f"join deadline: {hung}{failed}"
        ) from cause
    if errors:
        tid = min(errors)
        raise RuntimeError(f"serving client {tid} failed") from errors[tid]
    return served


def perturbed_frames(base: "System", n: int, seed0: int = 0, scale: float = 0.02):
    """``n`` decorrelated copies of ``base`` with jittered positions — the
    standard workload generator for serving demos and smoke checks."""
    import numpy as _np

    frames = []
    for k in range(n):
        frame = base.copy()
        rng = _np.random.default_rng(seed0 + k)
        frame.positions = frame.positions + rng.normal(
            scale=scale, size=frame.positions.shape
        )
        frames.append(frame)
    return frames


def served_matches_direct(model, frame, result) -> bool:
    """The serving contract, checkable per request: a served result must be
    bitwise identical to a direct ``DeepPot.evaluate`` of the same frame."""
    import numpy as _np

    from repro.md.neighbor import neighbor_pairs

    direct = model.evaluate(frame, *neighbor_pairs(frame, model.config.rcut))
    return (
        result.energy == direct.energy
        and _np.array_equal(result.forces, direct.forces)
        and _np.array_equal(result.virial, direct.virial)
    )
