"""The ``serve_socket`` workload's daemon process.

``python3 -m bench.daemon --trace 0|1`` serves the zoo water model with
every serving default, prints ``{"address": [host, port]}`` once it
listens, drains on SIGTERM and prints one JSON report as its last line.
Exit code 0 means the drain conserved requests
(submitted == completed + failed + cancelled).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

from bench.trace import Tracer, export
from bench.workloads import self_rss_mb

MAX_BATCH = 8  # the serving default; the warm-up visits every size up to it


def warm(server) -> None:
    """Every batch size 1..MAX_BATCH twice, from pre-queued submits, so no
    measured request pays a first-shape arena build."""
    from repro.analysis.structures import water_box
    from repro.serving import perturbed_frames

    frames = perturbed_frames(water_box((3, 3, 3), seed=0), MAX_BATCH, seed0=10**6)
    for _ in range(2):
        for size in range(1, MAX_BATCH + 1):
            with server.paused():
                futures = [server.submit("water", f) for f in frames[:size]]
            for future in futures:
                future.result(60.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.daemon")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from repro.serving import InferenceServer, ServingDaemon

    server = InferenceServer.from_zoo(["water"])
    warm(server)
    tracer = Tracer()
    if args.trace:
        tracer.install()
    try:
        daemon = ServingDaemon(server).start()
        print(json.dumps({"address": list(daemon.address)}), flush=True)

        def drain(_signum, _frame):
            daemon.stop(drain=True)

        signal.signal(signal.SIGTERM, drain)
        signal.signal(signal.SIGINT, drain)
        parent = os.getppid()
        while not daemon.wait(1.0):
            if os.getppid() != parent:  # orphaned: the load generator died
                daemon.stop(drain=False)
    finally:
        tracer.uninstall()
    stats = server.stats.snapshot()
    conserved = stats["requests_submitted"] == (
        stats["requests_completed"]
        + stats["requests_failed"]
        + stats["requests_cancelled"]
    )
    print(json.dumps({
        "conserved": conserved,
        "stats": stats,
        "rss_mb": self_rss_mb(),
        "executor": server.executor_stats().get("water", {}),
        "spans": export(tracer.spans),
    }))
    return 0 if conserved else 1


if __name__ == "__main__":
    sys.exit(main())
