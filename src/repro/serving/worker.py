"""The inference server: one worker thread per model driving batched
evaluations.

Architecture::

    clients                  queue                    workers
    ------- submit() --> [bounded FIFO, ---- pop_batch("a") --> worker "a"
    futures <----------   one deque per \\--- pop_batch("b") --> worker "b"
                          model, per-model            |  each: evaluate_batch
                          wakeups]                    |  on its OWN engine,
                          results scattered back <----+  scatter to futures

Many client threads submit frames; each model's worker coalesces that
model's requests into micro-batches and runs each batch through a
persistent :class:`~repro.dp.batch.BatchedEvaluator` — whose graph executes
as a compiled execution plan (:mod:`repro.tfmini.plan`), so the steady-state
serving loop performs no graph traversal and no per-op output allocation.

The batching policy is the pair every dynamic batching system exposes:
``max_batch`` bounds the coalesced frames per graph execution (the batched
engine's cost is ``fixed + n_frames * marginal``, and on this CPU backend
large stacks go memory-bound quickly — see ``benchmarks/test_batched_eval.
py`` — hence a bound rather than "everything pending"), and ``max_wait_us``
is the latency budget: once a request heads its model's queue, later
arrivals get at most this long to join its batch (zero = take only what is
already queued).  Batches never mix models: one batch is one
``evaluate_frames`` call on one model's engine.

Each worker is parked on its model's own queue condition, so it only ever
wakes for its own model's requests, and owns its model's engine
exclusively; two-model traffic overlaps plan execution inside numpy's
GIL-releasing BLAS/ufunc kernels instead of serializing behind one loop.
Per-model dispatch *and* completion order are FIFO (one worker per model).

**One-engine-one-thread invariant**: an engine's scratch pool and its
plan's buffer arenas are mutable run state, so an engine is only ever
*executed* by the single worker that owns it — never shared across threads
(``BatchedEvaluator`` guards against concurrent entry; see
:mod:`repro.dp.batch`).  Client threads touch only the locked queue, and
``executor_stats()`` reads are thread-safe counter snapshots.

Numerical contract: every request's result is **bitwise identical** to a
direct ``DeepPot.evaluate`` of the same frame, no matter which other
requests it shared a batch with or how the workers interleaved (the
engine's per-frame independence guarantee; asserted under genuinely
concurrent two-model load in ``tests/test_serving.py``).  A frame that
could not be evaluated honestly — non-finite positions or box, type ids the
model does not know — is refused at admission with :class:`~repro.dp.
backend.InvalidFrame` (the validator the local force seam applies, see
:mod:`repro.dp.backend`) and never reaches a batch.

Avoid calling ``model.evaluate`` on a model from another thread *while* the
server is processing requests for it: the model's default R=1 engine and
the server's engines hold separate scratch, but the profiling counters of a
shared session are not synchronized.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.dp.backend import InvalidFrame, frame_problem
from repro.dp.batch import BatchedEvaluator
from repro.serving.metrics import ServerStats
from repro.serving.queue import (
    InferenceRequest,
    QueueFull,
    QuotaExceeded,
    RequestQueue,
    ServerClosed,
    WorkerCrashed,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import Future

    from repro.dp.model import DeepPot
    from repro.md.system import System
    from repro.serving.faults import FaultPlan


class _Worker:
    """One model's worker: the thread that executes ``model``'s engine.

    ``inflight`` is the batch currently being evaluated (set before the
    engine runs, cleared after the futures resolve) — the supervisor reads
    it when the thread dies mid-batch, so crash-stranded requests can be
    failed exactly once.  ``respawns`` counts how many predecessors this
    worker slot has burned (the crash-loop bound).
    """

    __slots__ = ("model", "thread", "inflight", "respawns")

    def __init__(self, model: str, respawns: int = 0):
        self.model = model
        self.thread: Optional[threading.Thread] = None
        self.inflight: Optional[list[InferenceRequest]] = None
        self.respawns = respawns


class InferenceServer:
    """Multi-client, multi-model DP inference with dynamic micro-batching.

    Parameters
    ----------
    models:
        Optional mapping ``{name: DeepPot}`` to register at construction.
    max_batch, max_wait_us:
        Coalescing policy: at most ``max_batch`` frames per batch, and at
        most ``max_wait_us`` microseconds for later arrivals to join the
        request at the head of its model's queue (see the module docstring).
    max_queue:
        Bounded queue depth — the backpressure limit (``<= 0``: unbounded).
    autostart:
        Start the workers immediately.  Benchmarks pass ``False`` (or
        use :meth:`paused`) to pre-load the queue and get a deterministic
        batch count: N pre-queued requests execute in exactly
        ``ceil(N / max_batch)`` batches per model.
    max_per_client:
        Per-client admission quota: at most this many queued requests per
        ``client_id`` (0 = unlimited; submissions without a client id are
        exempt).  Excess submissions raise :class:`~repro.serving.queue.
        QuotaExceeded` instead of starving other clients.
    faults:
        Optional :class:`~repro.serving.faults.FaultPlan` — deterministic
        fault injection for the worker loop (crashes, transient failures)
        and the admission path.  ``None`` (the default) injects nothing.
    max_respawns:
        Crash-loop bound: how many times one worker slot may be respawned
        after its thread dies mid-batch.  Past the bound the slot stays
        down (its model's requests wait until shutdown cancels them) —
        a deterministically poisoned model must not burn CPU forever.
    """

    def __init__(
        self,
        models: Optional[dict[str, "DeepPot"]] = None,
        *,
        max_batch: int = 8,
        max_wait_us: float = 1000.0,
        max_queue: int = 64,
        autostart: bool = True,
        max_per_client: int = 0,
        faults: Optional["FaultPlan"] = None,
        max_respawns: int = 8,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_us < 0:
            raise ValueError(f"max_wait_us must be >= 0, got {max_wait_us}")
        self.max_batch = int(max_batch)
        self.max_wait_us = float(max_wait_us)
        self._engine_cls = BatchedEvaluator
        self._models: dict[str, "DeepPot"] = {}
        self._engines: dict[str, object] = {}
        self.faults = faults
        self.max_respawns = int(max_respawns)
        self.stats = ServerStats()
        self.queue = RequestQueue(
            maxsize=max_queue,
            on_drop=self.stats.record_cancelled,
            max_per_client=max_per_client,
            faults=faults,
        )
        self._gate = threading.Event()  # set = workers may take batches
        self._pool_lock = threading.Lock()  # guards _workers mutation
        self._workers: list[_Worker] = []
        self._started = False  # start() called (even with zero models yet)
        if models:
            for name, model in models.items():
                self.register(name, model)
        if autostart:
            self.start()

    # ------------------------------------------------------------- registry

    def register(self, name: str, model: "DeepPot") -> "InferenceServer":
        """Host ``model`` under ``name`` with its own persistent evaluator.

        The evaluator's compiled execution plan is built here (one graph
        topo-sort, at registration) so the first served request only pays
        the per-batch-shape arena warm-up, never graph compilation.  On a
        started server, registration also spawns the new model's worker.
        """
        if name in self._models:
            raise ValueError(f"model {name!r} already registered")
        self._models[name] = model
        engine = self._engine_cls(model)
        engine.plan  # compile now, off the serving hot path
        self._engines[name] = engine
        # A started server grows a worker per registration — even when
        # this is the FIRST model (zero workers alive, so `running` alone
        # cannot stand in for "started").
        if self._started and not self.queue.closed:
            self._spawn_worker(name)
        return self

    def model_names(self) -> list[str]:
        return sorted(self._models)

    def executor_stats(self) -> dict[str, dict]:
        """Per-model compiled-plan counters (deterministic, lock-free
        snapshots — safe to call from a monitoring thread mid-traffic).

        For each model's engine:
        ``topo_sorts`` (1 per engine lifetime), ``runs``, ``arena_builds``
        (one per distinct batch shape seen), ``arena_allocs``, the colored
        arena footprint (``arena_nbytes``) next to the FIFO baseline it
        replaced (``arena_nbytes_fifo``) — a steady workload stops growing
        everything except ``runs``.
        """
        out: dict[str, dict] = {}
        for name, engine in list(self._engines.items()):
            plan = engine.plan
            out[name] = {
                "topo_sorts": plan.stats.topo_sorts,
                "runs": plan.stats.runs,
                "arena_builds": plan.stats.arena_builds,
                "arena_allocs": plan.alloc_count(),
                "arena_nbytes": plan.arena_nbytes(),
                "arena_nbytes_fifo": plan.fifo_arena_nbytes(),
            }
        return out

    def model(self, name: str) -> "DeepPot":
        return self._models[name]

    @classmethod
    def from_zoo(
        cls, names: Sequence[str] = ("water",), cache_dir: Optional[str] = None,
        **kwargs,
    ) -> "InferenceServer":
        """A server hosting pre-trained zoo models.

        Names are ``water`` / ``copper``, optionally suffixed with the
        network precision: ``water-double`` (default) or ``water-single``
        (the fp32-network mixed-precision engine; ``-mixed`` is accepted as
        an alias).  Models are trained on first use and cached by the zoo.
        """
        from repro import zoo

        builders = {"water": zoo.get_water_model, "copper": zoo.get_copper_model}
        # Resolve (and validate) every model BEFORE constructing the server:
        # with autostart a bad name would otherwise leak parked worker
        # threads attached to a server nobody holds a reference to.
        models: dict[str, "DeepPot"] = {}
        for name in names:
            base, _, prec = name.partition("-")
            if base not in builders:
                raise KeyError(
                    f"unknown zoo model {name!r} (expected water/copper"
                    f"[-double|-single])"
                )
            prec = {"": "double", "double": "double",
                    "single": "mixed", "mixed": "mixed"}.get(prec)
            if prec is None:
                raise KeyError(f"unknown precision suffix in {name!r}")
            models[name] = builders[base](precision=prec, cache_dir=cache_dir)
        return cls(models, **kwargs)

    # ------------------------------------------------------------ submission

    def submit(
        self,
        model: str,
        system: "System",
        pair_i: Optional[np.ndarray] = None,
        pair_j: Optional[np.ndarray] = None,
        block: bool = True,
        timeout: Optional[float] = None,
        client_id: Optional[str] = None,
        nloc: Optional[int] = None,
        pbc: bool = True,
    ) -> "Future":
        """Queue one frame for evaluation; returns its future.

        The neighbor pair list is computed here (caller's thread) when not
        supplied, keeping the worker threads free for graph execution.
        ``client_id`` attributes the request to one submitter for quota
        accounting; ``nloc``/``pbc`` carry the domain-decomposition frame
        mode (see :class:`~repro.dp.backend.ForceFrame`).

        Raises :class:`KeyError` for an unregistered model,
        :class:`~repro.dp.backend.InvalidFrame` for a frame that cannot
        be evaluated honestly (counted in ``requests_rejected``; it never
        shares a batch with anyone), :class:`QueueFull` under backpressure,
        :class:`~repro.serving.queue.QuotaExceeded` over quota,
        :class:`ServerClosed` after shutdown.
        """
        if model not in self._models:
            raise KeyError(
                f"model {model!r} not registered (have {self.model_names()})"
            )
        problem = frame_problem(system, self._models[model].config.n_types)
        if problem is not None:
            self.stats.record_reject()
            raise InvalidFrame(f"frame refused for model {model!r}: {problem}")
        if pair_i is None or pair_j is None:
            from repro.md.neighbor import neighbor_pairs

            pair_i, pair_j = neighbor_pairs(
                system, self._models[model].config.rcut
            )
        request = InferenceRequest(
            model=model,
            system=system,
            pair_i=pair_i,
            pair_j=pair_j,
            client_id=client_id,
            nloc=nloc,
            pbc=pbc,
        )
        # Serving metadata for callers/tests — attached BEFORE the request
        # becomes visible to any worker: a worker may resolve the future
        # (and fire done-callbacks that read ``future.request``) the instant
        # the put returns.
        request.future.request = request
        # Count the submission BEFORE the request becomes visible to the
        # workers, so requests_completed can never transiently exceed
        # requests_submitted; a refused put takes the count back.
        self.stats.record_submit()
        try:
            self.queue.put(request, block=block, timeout=timeout)
        except QuotaExceeded:
            self.stats.undo_submit()
            self.stats.record_quota_reject()
            raise
        except QueueFull:
            self.stats.undo_submit()
            self.stats.record_reject()
            raise
        except ServerClosed:
            self.stats.undo_submit()
            raise
        return request.future

    def client(self, model: Optional[str] = None):
        """An :class:`~repro.serving.client.InferenceClient` bound to
        ``model`` (defaults to the sole registered model)."""
        from repro.serving.client import InferenceClient

        if model is None:
            if len(self._models) != 1:
                raise ValueError(
                    f"server hosts {self.model_names()}; pick one explicitly"
                )
            model = next(iter(self._models))
        return InferenceClient(self, model)

    # ------------------------------------------------------------- lifecycle

    @property
    def running(self) -> bool:
        return any(
            w.thread is not None and w.thread.is_alive()
            for w in list(self._workers)
        )

    def worker_ids(self) -> list[str]:
        """The models that have a worker (a worker's id is its model)."""
        return [w.model for w in list(self._workers)]

    def _spawn_worker(self, model: str, respawns: int = 0) -> _Worker:
        worker = _Worker(model, respawns)
        worker.thread = threading.Thread(
            target=self._supervised_loop,
            args=(worker,),
            name=f"repro-serving-{model}",
            daemon=True,
        )
        with self._pool_lock:
            # Append + start are atomic w.r.t. stop()'s snapshot: a worker
            # visible in the pool always has a started (joinable) thread.
            self._workers.append(worker)
            worker.thread.start()
        return worker

    def start(self) -> "InferenceServer":
        if self.running:
            return self
        if self.queue.closed:
            raise ServerClosed("server was stopped; build a new one")
        self._gate.set()
        self._started = True
        for name in self._models:
            self._spawn_worker(name)
        return self

    def pause(self) -> None:
        """Stop taking new batches (in-flight batches finish first)."""
        self._gate.clear()

    def resume(self) -> None:
        self._gate.set()
        self.queue.kick()

    @contextmanager
    def paused(self):
        """``with server.paused(): submit(...)`` — requests accumulate in
        the queue, then coalesce maximally on resume.  Batch counts are
        fully deterministic when the server is idle at pause time (the
        benchmark pattern); under live traffic a batch a worker is
        already gathering still executes."""
        self.pause()
        try:
            yield self
        finally:
            self.resume()

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Shut down the workers.

        ``drain=True`` completes every queued request first; ``drain=False``
        cancels pending futures (waiters get ``CancelledError``).  In-flight
        batches always complete — results are never discarded mid-execution.
        Draining needs live workers: on a server that was never started,
        pending requests are cancelled either way.
        """
        if drain and self._workers:
            self.queue.close()
        else:
            pending = self.queue.close_and_drain()
            dropped = sum(1 for r in pending if r.future.cancel())
            self.stats.record_cancelled(dropped)
        if not self._workers:
            return
        self._gate.set()  # a paused pool must still wind down
        self.queue.kick()
        deadline = (
            None if timeout is None else time.perf_counter() + timeout
        )
        # Snapshot under the pool lock: a worker crashing during the drain
        # removes itself from the pool (no respawn once the queue is
        # closed), so the live list may shrink under us; joining an
        # already-removed worker is fine, and the lock guarantees every
        # snapshotted thread has been started.
        with self._pool_lock:
            workers = list(self._workers)
        for w in workers:
            w.thread.join(
                None
                if deadline is None
                else max(0.0, deadline - time.perf_counter())
            )
        stuck = [w.model for w in workers if w.thread.is_alive()]
        if stuck:  # pragma: no cover - join timeout
            raise RuntimeError(f"serving workers did not stop in time: {stuck}")

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop(drain=exc == (None, None, None))

    # ------------------------------------------------------------ worker loop

    def _supervised_loop(self, worker: _Worker) -> None:
        """The worker thread's real target: ``_serve_loop`` under
        supervision.  An unhandled exception anywhere in the loop (an
        engine bug outside the per-batch guard, a queue defect, an
        injected :class:`~repro.serving.faults.InjectedWorkerCrash`) lands
        in :meth:`_on_worker_crash`, which fails the in-flight futures and
        respawns the slot — instead of stranding the batch's futures
        forever and silently leaving the model without a worker."""
        try:
            self._serve_loop(worker)
        except BaseException as exc:
            self._on_worker_crash(worker, exc)

    def _serve_loop(self, worker: _Worker) -> None:
        while True:
            batch = self.queue.pop_batch(
                worker.model, self.max_batch, self.max_wait_us * 1e-6,
                gate=self._gate,
            )
            if batch is None:
                return
            self._run_batch(batch, worker)

    def _on_worker_crash(self, worker: _Worker, exc: BaseException) -> None:
        """Contain one worker thread's death (runs on the dying thread).

        1. fail the crashed batch's unresolved futures with
           :class:`WorkerCrashed` — each counted failed exactly once (the
           crashed batch never reached ``record_batch``), so conservation
           holds through the crash;
        2. respawn the slot with a **fresh engine** — the crashed one's
           scratch pool and plan arenas died mid-run — unless the server is
           stopping or the slot hit :attr:`max_respawns`.
        """
        live = worker.inflight or []
        worker.inflight = None
        crash = WorkerCrashed(
            f"worker {worker.model!r} died mid-batch: "
            f"{type(exc).__name__}: {exc}"
        )
        failed = 0
        for r in live:
            if not r.future.done():
                r.future.set_exception(crash)
                failed += 1
        self.stats.record_worker_crash(failed)
        with self._pool_lock:
            if worker in self._workers:
                self._workers.remove(worker)
        if self.queue.closed or not self._started:
            return  # shutting down: stop() drains/cancels the rest
        if worker.respawns >= self.max_respawns:
            return  # crash loop: leave the slot down
        engine = self._engine_cls(self._models[worker.model])
        engine.plan  # compile before publishing (executor_stats reads it)
        self._engines[worker.model] = engine
        self.stats.record_worker_respawn()
        self._spawn_worker(worker.model, respawns=worker.respawns + 1)

    def _run_batch(self, batch: list[InferenceRequest], worker: _Worker) -> None:
        dispatched_at = time.perf_counter()
        live = [r for r in batch if r.future.set_running_or_notify_cancel()]
        if len(live) < len(batch):
            # Cancelled between queue extraction and dispatch (the queue
            # already dropped — and counted — anything cancelled earlier).
            self.stats.record_cancelled(len(batch) - len(live))
        if not live:
            return
        name = worker.model
        # Read from the registry every batch: there is exactly one consumer
        # per model, so the entry is effectively owned by this worker
        # (tests may swap it to inject failures).
        engine = self._engines[name]
        seqs = tuple(r.seq for r in live)
        waits = tuple(dispatched_at - r.enqueued_at for r in live)
        # Published before evaluation so the supervisor can fail exactly
        # these futures if this thread dies mid-batch.
        worker.inflight = live
        try:
            if self.faults is not None:
                self.faults.on_worker_batch(name, name)  # worker id == model
            # Requests duck-type ForceFrame (nloc / pbc carry the domain-
            # decomposition mode), so the engine's one entry point takes
            # the batch as it is.
            results = engine.evaluate_frames(live)
        except BaseException as exc:
            from repro.serving.faults import InjectedWorkerCrash

            if isinstance(exc, InjectedWorkerCrash):
                # Simulated unhandled bug: escape the per-batch guard so
                # the thread dies with its futures unresolved — the
                # supervisor (not this handler) must contain it.
                raise
            # One poisoned frame fails its whole batch, never the server:
            # the exception lands in each affected future and the loop moves
            # on to the next batch.
            for r in live:
                r.future.set_exception(exc)
            self.stats.record_batch(name, seqs, waits, failed=True)
            worker.inflight = None
            return
        for r, result in zip(live, results):
            r.future.set_result(result)
        self.stats.record_batch(name, seqs, waits)
        worker.inflight = None
