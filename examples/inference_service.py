"""Multi-client DP inference through the micro-batching service.

Spins up an :class:`~repro.serving.InferenceServer` hosting the zoo water
model, then drives it with N closed-loop client threads — each submits a
frame, waits for the result, and submits the next, so no client ever has
more than one request in flight.  Coalescing across *clients* is therefore
the only batching available, and the server's ``max_wait_us`` window is
what makes it happen: requests that arrive within the window ride the same
batched graph execution.

Every served result is bitwise identical to a direct ``DeepPot.evaluate``
of the same frame — batching is invisible to clients except in throughput.

``--socket`` runs the same load **across two OS processes**: the parent
wraps the server in a :class:`~repro.serving.ServingDaemon` (TCP), forks a
child process of this very script (``--connect HOST:PORT``) whose clients
hammer the daemon over sockets while the parent's clients do the same, and
then reads the coalescing off ``ServerStats.batch_log`` — each executed
batch records the queue seqs it gathered, each ``RESULT`` frame carries its
request's seq back to whichever process submitted it, so batches mixing
parent seqs with child seqs are *visible, counted proof* that two
processes' traffic rode the same batched graph executions.

Run:  python examples/inference_service.py [--clients N] [--requests M]
      python examples/inference_service.py --socket [--clients N]
      python examples/inference_service.py --connect HOST:PORT   # any daemon
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import threading
import time

from repro.analysis.structures import water_box
from repro.serving import (
    InferenceServer,
    ServingDaemon,
    SocketClient,
    perturbed_frames,
    run_closed_loop_clients,
    served_matches_direct,
)

_CHILD_MARKER = "CHILD_SEQS "


def socket_closed_loop(address, label, clients, requests, base, timeout=300.0):
    """Closed-loop socket load: one thread per client, each over its own
    :class:`SocketClient`, collecting ``(seq, frame, result)`` per request
    (``future.seq`` is the daemon queue's admission stamp, echoed back in
    the RESULT frame)."""
    served = {tid: [] for tid in range(clients)}
    errors: list[tuple[int, BaseException]] = []

    def run(tid: int) -> None:
        client = SocketClient(address, "water", client=f"{label}-{tid}")
        try:
            frames = perturbed_frames(
                base, requests, seed0=100 * (tid + 1) + (0 if label == "parent" else 50_000)
            )
            for frame in frames:
                fut = client.submit(frame)
                result = fut.result(timeout)
                served[tid].append((fut.seq, frame, result))
        except BaseException as exc:
            errors.append((tid, exc))
        finally:
            client.close()

    threads = [
        threading.Thread(target=run, args=(tid,), daemon=True)
        for tid in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
    if errors:
        tid, exc = errors[0]
        raise RuntimeError(f"{label} client {tid} failed: {exc!r}") from exc
    return served


def child_main(args) -> None:
    """The forked half of ``--socket``: pure socket client, no model, no
    server — just closed-loop load against ``--connect`` plus one stdout
    line handing its seqs back to the parent.  The READY/GO handshake on
    stdio lines the two processes' loops up in time, so their traffic
    actually competes for the same ``max_wait_us`` windows."""
    base = water_box((3, 3, 3), seed=0)
    print("CHILD_READY", flush=True)
    sys.stdin.readline()  # parent says GO once it is ready to submit too
    served = socket_closed_loop(
        args.connect, "child", args.clients, args.requests, base
    )
    seqs = sorted(s for mine in served.values() for s, _, _ in mine)
    print(_CHILD_MARKER + json.dumps(seqs), flush=True)


def socket_main(args, model, base, server) -> None:
    with ServingDaemon(server) as daemon:
        host, port = daemon.address
        n_child = max(1, args.clients // 2)
        n_parent = max(1, args.clients - n_child)
        print(f"daemon up on {host}:{port}; forking a child process with "
              f"{n_child} socket clients ({n_parent} stay in the parent)")
        child = subprocess.Popen(
            [sys.executable, __file__,
             "--connect", f"{host}:{port}",
             "--clients", str(n_child),
             "--requests", str(args.requests)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        ready = child.stdout.readline().strip()
        if ready != "CHILD_READY":
            child.kill()
            raise RuntimeError(f"child failed to start (got {ready!r})")
        child.stdin.write("GO\n")
        child.stdin.flush()
        t0 = time.perf_counter()
        served = socket_closed_loop(
            (host, port), "parent", n_parent, args.requests, base
        )
        child_out, _ = child.communicate(timeout=600)
        wall = time.perf_counter() - t0
        if child.returncode != 0:
            raise RuntimeError(f"child exited {child.returncode}")
        # daemon.stop (on `with` exit below) drains before we read the log,
        # but all requests already completed — both closed loops finished.

    parent_seqs = {s for mine in served.values() for s, _, _ in mine}
    child_seqs = set(
        json.loads(child_out.rsplit(_CHILD_MARKER, 1)[1])
    )
    total = len(parent_seqs) + len(child_seqs)
    print(f"\n{total} requests from 2 OS processes in {wall:.2f} s "
          f"({total / wall:.1f} frames/s)")
    print(server.stats.report())

    # Coalescing across process boundaries, read off the batch log.
    log = server.stats.batch_log
    mixed = [
        rec for rec in log
        if any(s in parent_seqs for s in rec.seqs)
        and any(s in child_seqs for s in rec.seqs)
    ]
    print(f"\nbatch log: {len(log)} batches, {len(mixed)} of them mixing "
          f"requests from BOTH OS processes:")
    for rec in mixed[:8]:
        tags = ",".join(
            f"{s}:{'parent' if s in parent_seqs else 'child'}"
            for s in rec.seqs
        )
        print(f"  {rec.model}: [{tags}]")
    if len(mixed) > 8:
        print(f"  ... and {len(mixed) - 8} more")

    matches = sum(
        served_matches_direct(model, frame, result)
        for mine in served.values()
        for _, frame, result in mine[-1:]
    )
    print(f"\nbitwise vs direct evaluate: "
          f"{matches}/{len(served)} parent spot checks identical")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=6)
    parser.add_argument("--requests", type=int, default=10)
    parser.add_argument("--max-batch", type=int, default=8)
    parser.add_argument("--max-wait-us", type=float, default=1500.0)
    parser.add_argument("--socket", action="store_true",
                        help="serve over TCP and split the clients across "
                             "two OS processes")
    parser.add_argument("--connect", metavar="HOST:PORT",
                        help="be a socket client against a running daemon "
                             "(what the --socket child process runs)")
    args = parser.parse_args()

    if args.connect:
        child_main(args)
        return

    from repro.zoo import get_water_model

    model = get_water_model()
    base = water_box((3, 3, 3), seed=0)
    server = InferenceServer(
        {"water": model},
        max_batch=args.max_batch,
        max_wait_us=args.max_wait_us,
    )
    print(f"server up: model 'water' ({base.n_atoms}-atom frames), "
          f"max_batch={args.max_batch}, max_wait={args.max_wait_us:.0f} us")

    if args.socket:
        socket_main(args, model, base, server)
        return

    frame_sets = {
        tid: perturbed_frames(base, args.requests, seed0=100 * (tid + 1))
        for tid in range(args.clients)
    }

    t0 = time.perf_counter()
    served = run_closed_loop_clients(server, "water", frame_sets, timeout=300)
    wall = time.perf_counter() - t0
    server.stop()

    total = args.clients * args.requests
    print(f"\n{total} requests from {args.clients} clients in {wall:.2f} s "
          f"({total / wall:.1f} frames/s)")
    print(server.stats.report())

    # The serving guarantee, spot-checked on every client's last frame.
    matches = sum(
        served_matches_direct(model, *mine[-1]) for mine in served.values()
    )
    print(f"\nbitwise vs direct evaluate: "
          f"{matches}/{args.clients} spot checks identical")


if __name__ == "__main__":
    main()
