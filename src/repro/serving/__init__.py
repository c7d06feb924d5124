"""repro.serving — dynamic micro-batching inference service.

The ROADMAP's "heavy traffic" north star, built on the batched evaluation
engine (:mod:`repro.dp.batch`): many clients submit frames
(positions/types/box), each model's worker thread coalesces whatever is
pending for it — up to ``max_batch`` frames, waiting at most
``max_wait_us`` — into ONE batched graph execution (one worker per model,
so multi-model traffic overlaps inside numpy's GIL-releasing kernels), and
results scatter back to per-request futures in submission order.
Per-frame results are bitwise identical to direct ``DeepPot.evaluate``
calls regardless of batch composition or worker interleaving.

    queue.py      bounded FIFO request queue (backpressure, seq stamping,
                  one deque + one wakeup condition per model, per-client
                  quotas, the max_batch / max_wait_us fill loop)
    worker.py     InferenceServer: model registry, admission (frame
                  validation), one supervised worker per model
    client.py     InferenceClient: sync and future-based submission
    metrics.py    ServerStats: deterministic counters + timing gauges
    protocol.py   the length-prefixed binary wire format
    net.py        ServingDaemon (socket front-end) + SocketClient
    faults.py     deterministic fault injection (FaultPlan) for chaos tests

Quickstart::

    from repro.serving import InferenceServer

    server = InferenceServer({"water": m1, "copper": m2})  # 2 workers
    client = server.client("water")
    result = client.evaluate(system)          # sync
    futures = [client.submit(s) for s in frames]  # pipelined
    server.stop()

Out of process (``repro serve`` wraps the daemon as a CLI)::

    from repro.serving import ServingDaemon, SocketClient

    with ServingDaemon(server) as daemon:       # TCP on daemon.address
        with SocketClient(daemon.address) as c:
            result = c.evaluate(system)         # bitwise == in-process
"""

from repro.dp.backend import InvalidFrame  # re-exported: one class, two callers
from repro.serving.client import (
    InferenceClient,
    perturbed_frames,
    run_closed_loop_clients,
    served_matches_direct,
)
from repro.serving.faults import (
    CrashWorker,
    DelayAdmission,
    FailEval,
    FaultPlan,
    InjectedWorkerCrash,
    SeverConnection,
    TamperFrame,
)
from repro.serving.metrics import BatchRecord, ServerStats
from repro.serving.net import ServingDaemon, SocketClient
from repro.serving.protocol import PROTOCOL_VERSION, MsgType, ProtocolError
from repro.serving.queue import (
    InferenceRequest,
    QueueFull,
    QuotaExceeded,
    RequestQueue,
    ServerClosed,
    TransientEvalError,
    WorkerCrashed,
)
from repro.serving.worker import InferenceServer

__all__ = [
    "BatchRecord",
    "CrashWorker",
    "DelayAdmission",
    "FailEval",
    "FaultPlan",
    "InferenceClient",
    "InferenceRequest",
    "InferenceServer",
    "InjectedWorkerCrash",
    "InvalidFrame",
    "MsgType",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "QueueFull",
    "QuotaExceeded",
    "RequestQueue",
    "ServerClosed",
    "ServerStats",
    "ServingDaemon",
    "SeverConnection",
    "SocketClient",
    "TamperFrame",
    "TransientEvalError",
    "WorkerCrashed",
    "perturbed_frames",
    "run_closed_loop_clients",
    "served_matches_direct",
]
