"""Unified force backend — the one evaluation seam behind every MD driver.

The paper's scaling story (Sec 5.4, Fig 1a) is domain decomposition feeding
a batched evaluator: MD parallelism produces many sub-domain frames per
step, and the fixed per-evaluation cost (graph dispatch, staging, Python
bookkeeping) must be amortized across them.  Before this layer existed each
driver owned its own evaluate path — the serial :class:`~repro.md.
simulation.Simulation` through ``DeepPotPair``, the replica ensemble through
a private engine, and the distributed driver called ``DeepPot.evaluate``
once per rank per step, so the R x P frames that replica x rank parallelism
naturally produces never reached the batching machinery at all.

:class:`ForceBackend` is that shared layer.  Drivers describe work as
:class:`ForceFrame` s (a system snapshot + half pair list + ghost split) and
call :meth:`ForceBackend.evaluate`; the backend groups the frames into
shape buckets (:func:`repro.dp.batch.frame_bucket_key`), issues ONE batched
graph evaluation per bucket through a :class:`~repro.dp.batch.
BatchedEvaluator`, and returns per-frame results in order — each bitwise
identical to evaluating its frame alone (the retained per-rank oracle
path).  The bucket partition is cached between calls and recomputed only
when the frame population changes shape — drivers call
:meth:`invalidate_buckets` on reneighbor/migration, and a cheap per-call
validation (atom counts, ghost splits, box lengths) catches anything the
driver missed, so a stale partition can never produce wrong physics, only
a suboptimal grouping.

Swappable seam
--------------
The backend's contract is deliberately tiny — ``evaluate(frames) ->
[PotentialResult]`` plus ``invalidate_buckets()`` — so alternative
implementations can be dropped behind the same drivers.  In particular, an
:class:`~repro.serving.worker.InferenceServer`-backed implementation that
submits frames to a shared serving pool (so interactive clients and
long-running samplers coalesce into one set of batches) only has to speak
this protocol; the drivers do not change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.dp.batch import (
    BatchedEvaluator,
    frame_bucket_key,
    frame_light_key,
    plan_frame_buckets,
)
from repro.md.potential import Potential, PotentialResult


@dataclass
class ForceFrame:
    """One unit of force-evaluation work submitted to a :class:`ForceBackend`.

    ``system`` carries the atoms (locals first, then explicit ghosts when
    ``nloc`` < ``n_atoms``); ``pair_i``/``pair_j`` is the half neighbor-pair
    list; ``pbc`` selects minimum-image (True) or raw displacements (False —
    the domain-decomposition mode, whose periodic images are explicit
    ghosts).
    """

    system: object  # System (or duck-typed: positions/types/box/n_atoms)
    pair_i: np.ndarray
    pair_j: np.ndarray
    nloc: Optional[int] = None  # None => every atom is local
    pbc: bool = True

    def light_key(self) -> tuple:
        """Cheap per-step validation key: everything in the bucket key that
        can drift between rebuilds (counts and box), minus the type
        signature (types only change on migration, which drivers signal via
        :meth:`ForceBackend.invalidate_buckets`).  Shares its structure
        with :func:`repro.dp.batch.frame_bucket_key` by construction."""
        return frame_light_key(self.system, self.nloc, self.pbc)


class ForceBackend:
    """Shape-bucketed batched force evaluation behind all MD drivers.

    Parameters
    ----------
    model:
        A :class:`~repro.dp.model.DeepPot` (a ``DeepPotPair`` wrapper is
        unwrapped).
    engine:
        Optional :class:`~repro.dp.batch.BatchedEvaluator` to evaluate
        through; by default the backend builds a dedicated engine so its
        scratch/plan shapes are not thrashed by unrelated evaluations.
        The engine's one-engine-one-thread invariant applies to the
        backend as a whole.
    op_backend:
        Environment-operator backend ("optimized" | "baseline"), as in
        ``DeepPot.evaluate``.

    Deterministic counters: ``evaluations`` grows by exactly
    ``bucket_count`` per :meth:`evaluate` call (one graph run per bucket —
    the assert the distributed-ensemble tests pin; counted by the backend
    itself, so sharing an engine with other callers cannot inflate it),
    and ``rebuckets`` counts partition recomputations (one at first use,
    then one per reneighbor/migration, not one per step).
    """

    def __init__(
        self,
        model,
        engine: Optional[BatchedEvaluator] = None,
        use_plan: bool = True,
        op_backend: str = "optimized",
    ):
        model = getattr(model, "model", model)  # unwrap DeepPotPair
        self.model = model
        self.engine = (
            engine
            if engine is not None
            else BatchedEvaluator(model, use_plan=use_plan)
        )
        self.op_backend = op_backend
        self._buckets: Optional[list[list[int]]] = None
        self._light_keys: Optional[list[tuple]] = None
        self.rebuckets = 0
        self.evaluations = 0  # batched graph runs this backend issued

    # ------------------------------------------------------------- bucketing

    @property
    def bucket_count(self) -> int:
        """Buckets in the cached partition (0 before the first evaluate)."""
        return 0 if self._buckets is None else len(self._buckets)

    def invalidate_buckets(self) -> None:
        """Drop the cached partition; the next evaluate rebuckets.

        Drivers call this on reneighbor/migration — the only events that
        can change a frame's type signature without changing its counts.
        """
        self._buckets = None
        self._light_keys = None

    def _refresh_buckets(self, frames: Sequence[ForceFrame], light) -> None:
        self._buckets = plan_frame_buckets(
            [frame_bucket_key(f.system, f.nloc, f.pbc) for f in frames]
        )
        self._light_keys = light
        self.rebuckets += 1

    # ------------------------------------------------------------- evaluate

    def evaluate(self, frames: Sequence[ForceFrame]) -> list[PotentialResult]:
        """Evaluate all frames; one batched graph run per shape bucket.

        Results are returned in frame order and are bitwise identical to
        evaluating each frame alone.
        """
        frames = list(frames)
        light = [f.light_key() for f in frames]
        if self._buckets is None or light != self._light_keys:
            self._refresh_buckets(frames, light)
        results = self.engine.evaluate_frames(
            frames, buckets=self._buckets, backend=self.op_backend
        )
        self.evaluations += len(self._buckets)
        return results


class ServingForceBackend:
    """The :class:`ForceBackend` contract over an inference client — MD
    drivers evaluate through a *serving pool* instead of a private engine.

    ``client`` is anything with ``submit(system, pair_i, pair_j, deadline=,
    nloc=, pbc=) -> Future`` — an in-process :class:`~repro.serving.client.
    InferenceClient` or a remote :class:`~repro.serving.net.SocketClient`;
    the drivers cannot tell the difference (and a trajectory is bitwise
    identical either way — the serving stack's per-frame contract).

    Frames are submitted pipelined (all futures first, then gathered in
    order), so a driver's whole per-step frame stack lands in the server's
    queue at once and coalesces — with whatever *other* clients are
    submitting concurrently — into shared micro-batches.  That is the
    difference from a private :class:`ForceBackend`: batching happens
    globally, across every process attached to the daemon, not per driver.

    Deterministic counters mirror the local backend where they can:
    ``evaluations`` counts gather rounds (batch formation belongs to the
    server — read ``ServerStats`` for occupancy); ``invalidations`` counts
    :meth:`invalidate_buckets` calls (bucketing is server-side and per
    batch, so there is no client-side partition to drop).

    ``retries`` > 0 makes the backend resilient to *recoverable* server
    faults: a frame failing with :class:`~repro.serving.queue.
    WorkerCrashed` or :class:`~repro.serving.queue.TransientEvalError`
    (both mean "nothing was computed wrong — resubmitting is safe") is
    resubmitted up to ``retries`` times before the error propagates;
    ``retried_frames`` counts the resubmissions.  Resubmission is bitwise
    safe: evaluation is deterministic, so a replayed frame returns the
    identical result.
    """

    def __init__(self, client, timeout: Optional[float] = 300.0,
                 retries: int = 0):
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.client = client
        self.timeout = timeout
        self.retries = int(retries)
        self.evaluations = 0   # gather rounds (one per evaluate() call)
        self.invalidations = 0
        self.retried_frames = 0

    def evaluate(self, frames: Sequence[ForceFrame]) -> list[PotentialResult]:
        """Submit all frames to the serving pool, gather results in order."""
        if self.retries > 0:
            # Lazy import: repro.serving imports repro.dp, so the exception
            # types cannot be imported at module scope without a cycle.
            from repro.serving.queue import TransientEvalError, WorkerCrashed

            retryable: tuple = (TransientEvalError, WorkerCrashed)
        else:
            retryable = ()
        frames = list(frames)
        futures = [
            self.client.submit(
                f.system, f.pair_i, f.pair_j,
                timeout=self.timeout, nloc=f.nloc, pbc=f.pbc,
            )
            for f in frames
        ]
        results: list[PotentialResult] = []
        try:
            for k, frame in enumerate(frames):
                budget = self.retries
                while True:
                    try:
                        results.append(futures[k].result(self.timeout))
                        break
                    except retryable:
                        if budget <= 0:
                            raise
                        budget -= 1
                        self.retried_frames += 1
                        futures[k] = self.client.submit(
                            frame.system, frame.pair_i, frame.pair_j,
                            timeout=self.timeout, nloc=frame.nloc,
                            pbc=frame.pbc,
                        )
        except BaseException:
            for f in futures:
                f.cancel()  # abandoned frames free their queue slots
            raise
        self.evaluations += 1
        return results

    def invalidate_buckets(self) -> None:
        """Reneighbor/migration signal.  Server-side bucketing is per batch
        (nothing cached across calls), so this only counts the event."""
        self.invalidations += 1


class BackendPotential(Potential):
    """A :class:`~repro.md.potential.Potential` over any force backend —
    the adapter that lets the serial :class:`~repro.md.simulation.
    Simulation` driver run against a :class:`ServingForceBackend` (or any
    other ``evaluate(frames)`` implementation) unchanged::

        client = SocketClient(address, "water")
        sim = Simulation(system, BackendPotential(
            ServingForceBackend(client), cutoff=client.cutoff))

    ``cutoff`` must match the served model's ``rcut`` — the driver sizes
    neighbor lists from it (``SocketClient.cutoff`` reports the server's
    value from the WELCOME handshake).
    """

    def __init__(self, backend, cutoff: float):
        self.backend = backend
        self.cutoff = float(cutoff)

    def compute(self, system, pair_i, pair_j) -> PotentialResult:
        return self.backend.evaluate([ForceFrame(system, pair_i, pair_j)])[0]

    def compute_batch(self, systems, pair_lists) -> list[PotentialResult]:
        return self.backend.evaluate(
            [
                ForceFrame(s, pi, pj)
                for s, (pi, pj) in zip(systems, pair_lists)
            ]
        )
