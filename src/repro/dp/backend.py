"""The force seam — the one evaluation interface behind every MD driver.

The paper has exactly one interface between the MD code and the model:
LAMMPS hands ``pair_style deepmd`` the atoms and a neighbour list and gets
forces back (Sec 5.4, Fig 1a).  This module is that interface.  Drivers
describe work as :class:`ForceFrame` s (a system snapshot + half pair list
+ ghost split) and call ``evaluate(frames) -> [PotentialResult]`` — one
result per frame, in frame order.  That one method is the whole contract:
there is nothing to invalidate, configure or warm, so the serial
:class:`~repro.md.simulation.Simulation` (through ``DeepPotPair``), the
replica ensemble and the distributed drivers run unchanged over any of the
three implementations here:

* :class:`ForceBackend` — production.  Refuses frames that cannot be
  evaluated honestly (:class:`InvalidFrame`), then hands the rest to
  :meth:`BatchedEvaluator.evaluate_frames
  <repro.dp.batch.BatchedEvaluator.evaluate_frames>`: one batched graph run
  per shape bucket, each result bitwise identical to evaluating its frame
  alone.
* :class:`PerFrameBackend` — the seam's reference implementation: one
  ``DeepPot.evaluate`` per frame and nothing else.  It exists so tests and
  ``benchmarks/`` can inject the unbatched schedule through a driver's
  ``force_backend=`` argument and assert the production backend against
  it bitwise; no driver builds one by default.
* :class:`ServingForceBackend` — the same contract over an inference
  client, so MD drivers evaluate through a shared serving pool.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.dp.batch import BatchedEvaluator
from repro.md.potential import ForceFrame, Potential, PotentialResult


class InvalidFrame(ValueError):
    """The frame itself was refused before evaluation: non-finite positions,
    non-finite or non-positive box lengths, or type ids outside the model's
    ``[0, n_types)``.  Evaluating it would return finite-looking wrong
    physics (a NaN atom just falls out of every neighbour comparison), so
    it fails alone, before it can share a batch with anyone."""


def frame_problem(system, n_types: int) -> Optional[str]:
    """Why ``system`` cannot be evaluated honestly, or ``None`` if it can."""
    if not np.isfinite(system.positions).all():
        return "non-finite positions"
    lengths = system.box.lengths
    # Plain floats: the chained comparison is False for NaN too, and three
    # of them cost half of four numpy calls on a 3-vector.
    if not all(0.0 < length < math.inf for length in lengths.tolist()):
        return f"box lengths must be finite and positive, got {lengths}"
    types = system.types
    if types.size and (types.min() < 0 or types.max() >= n_types):
        return f"type ids outside [0, {n_types})"
    return None


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
        scratch/plan shapes are not thrashed by unrelated evaluations
        (pass ``BatchedEvaluator(model, use_plan=False)`` for the
        ``Session.run`` oracle).  The engine's one-engine-one-thread
        invariant applies to the backend as a whole.

    Deterministic counters: ``bucket_count`` is the number of shape buckets
    of the latest :meth:`evaluate` (0 before the first) and ``evaluations``
    grows by exactly that per call — one graph run per bucket, the assert
    the distributed-ensemble tests pin; it counts this backend's own calls,
    so sharing an engine with other callers cannot inflate it.
    """

    def __init__(self, model, engine: Optional[BatchedEvaluator] = None):
        model = getattr(model, "model", model)  # unwrap DeepPotPair
        self.model = model
        self.engine = engine if engine is not None else BatchedEvaluator(model)
        self.bucket_count = 0
        self.evaluations = 0  # batched graph runs this backend issued

    def evaluate(self, frames: Sequence[ForceFrame]) -> list[PotentialResult]:
        """Evaluate all frames; one batched graph run per shape bucket.

        Results are returned in frame order and are bitwise identical to
        evaluating each frame alone.  A frame that cannot be evaluated
        honestly raises :class:`InvalidFrame` naming its index before any
        frame of the call is staged.
        """
        frames = list(frames)
        n_types = self.model.config.n_types
        for k, frame in enumerate(frames):
            problem = frame_problem(frame.system, n_types)
            if problem is not None:
                raise InvalidFrame(f"frame {k} of {len(frames)}: {problem}")
        engine = self.engine
        before = engine.bucket_evaluations
        results = engine.evaluate_frames(frames)
        self.bucket_count = engine.bucket_evaluations - before
        self.evaluations += self.bucket_count
        return results


class PerFrameBackend:
    """The seam's reference implementation: one ``DeepPot.evaluate`` per
    frame, nothing batched, bucketed or validated.  Inject it through a
    driver's ``force_backend=`` to get the schedule the bucketed
    :class:`ForceBackend` is asserted against."""

    def __init__(self, model):
        self.model = model

    def evaluate(self, frames: Sequence[ForceFrame]) -> list[PotentialResult]:
        return [
            self.model.evaluate(
                f.system, f.pair_i, f.pair_j, nloc=f.nloc, pbc=f.pbc
            )
            for f in frames
        ]


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

    ``evaluations`` counts gather rounds (batch formation belongs to the
    server — read ``ServerStats`` for occupancy).

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
        self.force_backend = backend
        self.cutoff = float(cutoff)

    def compute(self, system, pair_i, pair_j) -> PotentialResult:
        return self.force_backend.evaluate(
            [ForceFrame(system, pair_i, pair_j)]
        )[0]
