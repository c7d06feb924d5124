"""Server-side counters for the micro-batching inference service.

Two classes of numbers live here, and the distinction matters for testing
(see the repo's bench-timing policy):

* **deterministic counters** — requests submitted/completed/failed/rejected/
  cancelled, batch count, frame count, per-batch compositions.  These are
  pure consequences of the request schedule and the coalescing policy, so
  tests and benchmarks assert on them unconditionally (no wall clock);
* **timing gauges** — queue-wait seconds.  Wall-clock measurements on a
  noisy host; they are report-only (printed by ``report()``, asserted never,
  or only under ``REPRO_BENCH_STRICT``).
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import NamedTuple


class BatchRecord(NamedTuple):
    """One executed batch: which model, which request seqs.

    Equality-compatible with plain ``(model, seqs)`` tuples, so tests can
    assert whole-log expectations literally.  The batch ran on the model's
    own worker — there is exactly one per model.
    """

    model: str
    seqs: tuple


class ServerStats:
    """Thread-safe counter block for one :class:`~repro.serving.worker.
    InferenceServer`.

    ``batch_log`` records, per executed batch, the model name and the
    submission sequence numbers it coalesced — the ground truth the
    FIFO-fairness and amortization tests (``tests/test_serving.py``,
    ``benchmarks/test_serving_throughput.py``) assert against.  Only the
    most recent ``batch_log_limit`` entries are kept (the scalar counters
    are complete for the server's whole lifetime), so a long-running server
    does not grow memory one entry per batch forever.
    """

    def __init__(self, batch_log_limit: int = 4096) -> None:
        if batch_log_limit < 1:
            raise ValueError(
                f"batch_log_limit must be >= 1, got {batch_log_limit}"
            )
        self._lock = threading.Lock()
        self.batch_log_limit = int(batch_log_limit)
        # deterministic counters
        self.requests_submitted = 0
        self.requests_completed = 0
        self.requests_failed = 0
        self.requests_rejected = 0   # refused at admission: full/quota/bad frame
        self.requests_cancelled = 0  # pending requests dropped at shutdown
        self.quota_rejections = 0    # per-client admission-quota refusals
        self.worker_crashes = 0      # worker threads that died mid-batch
        self.worker_respawns = 0     # workers respawned by the supervisor
        self.batches = 0
        self.frames = 0              # sum of batch sizes
        self.max_batch_frames = 0
        self.frames_per_model: Counter = Counter()
        self.batch_log: list[BatchRecord] = []
        # timing gauges (report-only)
        self.queue_wait_total = 0.0
        self.queue_wait_max = 0.0

    # ------------------------------------------------------------- recording

    def record_submit(self) -> None:
        """Count an admission attempt (undone if the queue refuses it)."""
        with self._lock:
            self.requests_submitted += 1

    def undo_submit(self) -> None:
        """Take back a :meth:`record_submit` whose put was refused."""
        with self._lock:
            self.requests_submitted -= 1

    def record_reject(self) -> None:
        with self._lock:
            self.requests_rejected += 1

    def record_cancelled(self, n: int) -> None:
        with self._lock:
            self.requests_cancelled += n

    def record_quota_reject(self) -> None:
        """A per-client quota refusal (also counted in rejected)."""
        with self._lock:
            self.quota_rejections += 1
            self.requests_rejected += 1

    def record_worker_crash(self, failed: int) -> None:
        """A worker thread died mid-batch: its ``failed`` in-flight
        requests fail with ``WorkerCrashed`` — counted here exactly once
        (the crashed batch never reached ``record_batch``), so conservation
        (submitted == completed + failed + cancelled) holds through the
        crash."""
        with self._lock:
            self.worker_crashes += 1
            self.requests_failed += failed

    def record_worker_respawn(self) -> None:
        with self._lock:
            self.worker_respawns += 1

    def record_batch(
        self,
        model: str,
        seqs: tuple[int, ...],
        waits: tuple[float, ...],
        failed: bool = False,
    ) -> None:
        with self._lock:
            n = len(seqs)
            self.batches += 1
            self.frames += n
            self.max_batch_frames = max(self.max_batch_frames, n)
            self.frames_per_model[model] += n
            self.batch_log.append(BatchRecord(model, seqs))
            if len(self.batch_log) > self.batch_log_limit:
                del self.batch_log[: -self.batch_log_limit]
            if failed:
                self.requests_failed += n
            else:
                self.requests_completed += n
            for w in waits:
                self.queue_wait_total += w
                self.queue_wait_max = max(self.queue_wait_max, w)

    # -------------------------------------------------------------- restore

    _RESTORABLE = (
        "requests_submitted", "requests_completed", "requests_failed",
        "requests_rejected", "requests_cancelled", "quota_rejections",
        "worker_crashes", "worker_respawns",
        "batches", "frames", "max_batch_frames",
    )

    def restore(self, snap: dict) -> None:
        """Seed counters from a prior :meth:`snapshot` (the ``repro serve
        --checkpoint-dir`` restart path): lifetime totals survive a daemon
        restart.  Conservation survives too — a cleanly drained snapshot
        restores submitted == completed + failed + cancelled, and new
        traffic moves both sides together.  The batch log restarts empty
        (it is a bounded debugging window, not a lifetime total)."""
        with self._lock:
            for name in self._RESTORABLE:
                setattr(self, name, int(snap.get(name, getattr(self, name))))
            self.frames_per_model = Counter(snap.get("frames_per_model", {}))
            self.queue_wait_total = float(snap.get("queue_wait_total", 0.0))
            self.queue_wait_max = float(snap.get("queue_wait_max", 0.0))

    # ------------------------------------------------------------- derived

    def occupancy(self) -> float:
        """Mean frames per executed batch (the amortization factor)."""
        with self._lock:
            return self.frames / self.batches if self.batches else 0.0

    def mean_queue_wait(self) -> float:
        """Mean seconds a request waited between submit and dispatch."""
        with self._lock:
            return self.queue_wait_total / self.frames if self.frames else 0.0

    def pending(self) -> int:
        """Requests accepted but not yet dispatched or cancelled."""
        with self._lock:
            return (
                self.requests_submitted
                - self.requests_completed
                - self.requests_failed
                - self.requests_cancelled
            )

    def snapshot(self) -> dict:
        """A consistent point-in-time copy of every counter."""
        with self._lock:
            return {
                "requests_submitted": self.requests_submitted,
                "requests_completed": self.requests_completed,
                "requests_failed": self.requests_failed,
                "requests_rejected": self.requests_rejected,
                "requests_cancelled": self.requests_cancelled,
                "quota_rejections": self.quota_rejections,
                "worker_crashes": self.worker_crashes,
                "worker_respawns": self.worker_respawns,
                "batches": self.batches,
                "frames": self.frames,
                "max_batch_frames": self.max_batch_frames,
                "frames_per_model": dict(self.frames_per_model),
                "occupancy": self.frames / self.batches if self.batches else 0.0,
                "queue_wait_total": self.queue_wait_total,
                "queue_wait_max": self.queue_wait_max,
            }

    def report(self) -> str:
        """Human-readable block for CLI output (``repro serve``)."""
        s = self.snapshot()
        lines = [
            f"requests: {s['requests_submitted']} submitted, "
            f"{s['requests_completed']} completed, "
            f"{s['requests_failed']} failed, "
            f"{s['requests_rejected']} rejected, "
            f"{s['requests_cancelled']} cancelled",
            f"batches:  {s['batches']} "
            f"({s['frames']} frames, mean occupancy {s['occupancy']:.2f}, "
            f"largest {s['max_batch_frames']})",
            f"queueing: mean wait {self.mean_queue_wait() * 1e3:.2f} ms, "
            f"max {s['queue_wait_max'] * 1e3:.2f} ms",
        ]
        if s["quota_rejections"]:
            lines.append(f"quotas:   {s['quota_rejections']} rejections")
        if s["worker_crashes"] or s["worker_respawns"]:
            lines.append(
                f"faults:   {s['worker_crashes']} worker crashes, "
                f"{s['worker_respawns']} respawns"
            )
        if s["frames_per_model"]:
            per = ", ".join(
                f"{m}: {n}" for m, n in sorted(s["frames_per_model"].items())
            )
            lines.append(f"models:   {per}")
        return "\n".join(lines)
