"""One pass of one workload, in a process of its own.

``python3 -m bench.child --workload W --seed N --seconds S --trace 0|1
--spawned EPOCH`` sets the workload up, measures one round, checks the
outputs and prints the pass as one JSON line.  ``--spawned`` is the
parent's clock reading just before it started this process, so ``setup_s``
includes the interpreter start and the imports.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from bench import spec
from bench.hostspeed import REFERENCE_SECONDS, ReferenceKernel
from bench.trace import (
    END, NAME, PARENT, START, VALUE, Tracer, inclusive_times, restore, self_times,
    window, write_chrome_trace,
)
from bench.workloads import WORKLOADS, InProcess, Round

# Span layer name -> per-layer metric holding its self time per operation.
SELF_MS = {
    "md.neighbor.build": "md.neighbor.build_ms",
    "md.neighbor.check": "md.neighbor.check_ms",
    "md.integrators": "md.integrators.ms",
    "md.thermo": "md.thermo.ms",
    "md.driver": "md.driver.self_ms",
    "dp.backend": "dp.backend.self_ms",
    "dp.batch": "dp.batch.self_ms",
    "dp.nlist_fmt": "dp.nlist_fmt.ms",
    "dp.env": "dp.env.ms",
    "dp.env.rows": "dp.env.rows_ms",
    "tfmini.plan": "tfmini.plan.run_ms",
    "dp.train": "dp.train.self_ms",
    "dp.train.feeds": "dp.train.feeds_ms",
    "dp.train.opt": "dp.train.opt_ms",
}
# Program counters that grow with every operation: reported as the round's
# increase.  Every other counter is reported as it stands after the round.
CUMULATIVE = {
    "md.neighbor.builds", "dp.batch.evals", "dp.batch.frames",
    "dp.batch.fmt_evictions", "_stacked", "_general", "_identity", "_gathers",
}
PROFILE_OPS = 10  # length of the kernel profile pass, capped at ~0.8 s


def _share(part: float, rest: float) -> float:
    return part / (part + rest) if part + rest else 0.0


def _time_layers(values: dict, spans: list, ops: int) -> None:
    seconds, _ = self_times(spans)
    for layer, metric in SELF_MS.items():
        values[metric] = seconds.get(layer, 0.0) / ops * 1e3
    layouts = [s[VALUE] for s in spans if s[NAME] == "dp.nlist_fmt" and s[VALUE]]
    if layouts:
        dropped, filled, slots = (sum(col) for col in zip(*layouts))
        values["dp.nlist_fmt.dropped"] = dropped
        values["dp.nlist_fmt.fill"] = filled / slots


def inprocess_layers(values, rnd: Round, spans, before: dict, after: dict) -> None:
    start, end, ops, busy = rnd.windows["round"]
    spans = window(spans, start, end)
    _time_layers(values, spans, ops)
    values["trace.accounted_share"] = sum(
        s[END] - s[START] for s in spans if s[PARENT] is None
    ) / busy
    delta = {
        key: after[key] - before[key] if key in CUMULATIVE else after[key]
        for key in after
    }
    values.update((k, v) for k, v in delta.items() if not k.startswith("_"))
    if "_stacked" in delta:
        values["dp.batch.stacked_share"] = _share(delta["_stacked"], delta["_general"])
        values["dp.batch.identity_share"] = _share(delta["_identity"], delta["_gathers"])


def kernel_profile(values, workload) -> None:
    """Fig 3's legend for this workload: a few more operations under
    ``Session(profile=True)``.  FLOPs and bytes are computed from shapes by
    the program's ``OpStats``, not read from hardware counters."""
    import repro.tfmini as tf

    ops = max(2, min(PROFILE_OPS, round(workload.ops_per_second * 0.8)))
    model = workload.model
    session, model.session = model.session, tf.Session(profile=True)
    try:
        workload.advance(ops, lambda *_: None)
        stats = model.session.stats
    finally:
        model.session = session
    shares = stats.category_percentages()
    for category, metric in (("GEMM", "gemm"), ("TANH", "tanh"), ("SLICE", "slice"),
                             ("CUSTOM", "custom"), ("Others", "other")):
        values[f"tfmini.ops.{metric}_share"] = shares.get(category, 0.0) / 100.0
    gflop = stats.total_flops() / ops / 1e9
    values["tfmini.ops.gflop_per_step"] = gflop
    values["tfmini.ops.mb_per_step"] = sum(stats.bytes.values()) / ops / 1e6
    if values["tfmini.plan.run_ms"]:
        values["tfmini.ops.gflops"] = gflop / (values["tfmini.plan.run_ms"] / 1e3)


def serving_layers(values, workload, rnd: Round, client_spans, daemon_spans) -> None:
    total = sum(n for _, _, n, _ in rnd.windows.values())
    in_round = window(daemon_spans, rnd.start, rnd.end)
    _time_layers(values, in_round, total)
    executor = workload.report.get("executor", {})
    for counter in ("arena_builds", "arena_allocs", "topo_sorts", "records_fused"):
        values[f"tfmini.plan.{counter}"] = executor.get(counter, 0)
    values["tfmini.plan.arena_mb"] = executor.get("arena_nbytes", 0) / 1e6

    for k, (phase, (t0, t1, n, busy)) in enumerate(rnd.windows.items()):
        here = window(client_spans, t0, t1)
        there = window(daemon_spans, t0, t1)
        mine, _ = self_times(here)
        theirs, counts = self_times(there)
        evaluating = inclusive_times(there).get("dp.batch", 0.0)
        stats = {
            key: workload.stats[k + 1][key] - workload.stats[k][key]
            for key in ("frames", "batches", "queue_wait_total",
                        "requests_rejected", "requests_failed", "worker_respawns")
        }
        requests = [s for s in there if s[NAME] == "serving.request"]
        if phase == "closed":
            wire = rnd.durations.mean() - np.mean([s[END] - s[START] for s in requests])
        else:
            # Per burst: the part of its wall time with nothing inside the
            # daemon (before the first admission, after the last result).
            wire = np.mean([
                (b1 - b0) - (max(s[END] for s in inside) - min(s[START] for s in inside))
                for b0, b1 in workload.burst_windows
                for inside in [window(requests, b0, b1)]
            ])
        both = lambda layer: (mine.get(layer, 0.0) + theirs.get(layer, 0.0)) / n * 1e3
        out = {
            "serving.client.submit_ms": mine.get("serving.client.submit", 0.0) / n * 1e3,
            "serving.protocol.encode_ms": both("serving.protocol.encode"),
            "serving.protocol.decode_ms": both("serving.protocol.decode"),
            "serving.protocol.bytes_per_req": sum(
                s[VALUE] for s in here if s[NAME].startswith("serving.protocol")
            ) / n,
            "serving.net.wire_ms": wire * 1e3,
            "serving.worker.admit_ms": theirs.get("serving.worker.admit", 0.0) / n * 1e3,
            "serving.queue.wait_ms": stats["queue_wait_total"] / stats["frames"] * 1e3,
            "serving.queue.rejected": stats["requests_rejected"],
            "serving.scheduler.batches": stats["batches"],
            "serving.scheduler.batch_frames": stats["frames"] / stats["batches"],
            "serving.worker.eval_ms": evaluating / counts["dp.batch"] * 1e3,
            "serving.worker.busy_share": evaluating / busy,
            "serving.worker.failed": stats["requests_failed"],
            "serving.worker.respawns": stats["worker_respawns"],
        }
        values.update((f"{name}.{phase}", v) for name, v in out.items())
    values["dp.batch.evals"] = sum(s[NAME] == "dp.batch" for s in in_round)
    values["dp.batch.frames"] = workload.stats[-1]["frames"] - workload.stats[0]["frames"]
    values["serving.closed.rps"] = rnd.derived["closed_rps"]
    values["serving.burst.fps"] = rnd.derived["burst_fps"]


def run_pass(name: str, seed: int, seconds: float, trace: bool, spawned: float) -> dict:
    workload = WORKLOADS[name]()
    workload.trace = trace
    tracer = Tracer() if trace else None
    kernel = ReferenceKernel()
    try:
        workload.setup(seed)
        setup_s = time.time() - spawned
        before = workload.counters()
        if tracer is not None:
            tracer.install()
        try:
            rnd = workload.measure(seconds, fixed=trace, tracer=tracer, kernel=kernel)
        finally:
            if tracer is not None:
                tracer.uninstall()
        after = workload.counters()
        rss_mb = workload.stop()

        # Times are reported at reference speed (see bench.hostspeed).
        speed = REFERENCE_SECONDS / rnd.kernel_seconds
        wall = {
            "tts_us_atom_step": rnd.seconds_per_op / workload.atoms * 1e6,
            "lat_ms_p50": float(np.median(rnd.durations)) * 1e3,
            "lat_ms_p95": float(np.percentile(rnd.durations, 95)) * 1e3,
        }
        result = {
            "workload": name, "seed": seed, "trace": int(trace),
            "samples": len(rnd.durations),
            "end_to_end": {
                **{metric: value * speed for metric, value in wall.items()},
                "peak_rss_mb": rss_mb,
                "setup_s": setup_s * speed,
            },
            "derived": {
                **rnd.derived, "host_speed": speed, "setup_wall_s": setup_s,
                **{f"{metric}_wall": value for metric, value in wall.items()},
            },
        }
        if tracer is not None:
            values = dict.fromkeys(spec.per_layer(), 0.0)
            processes = {f"bench.child {name}": tracer.spans}
            if isinstance(workload, InProcess):
                inprocess_layers(values, rnd, tracer.spans, before, after)
                kernel_profile(values, workload)
            else:
                daemon_spans = restore(workload.report["spans"])
                processes["bench.daemon"] = daemon_spans
                serving_layers(values, workload, rnd, tracer.spans, daemon_spans)
            result["per_layer"] = {k: float(v) for k, v in values.items()}
            spec.TRAJECTORY.mkdir(exist_ok=True)
            write_chrome_trace(spec.TRAJECTORY / f"trace_{name}.json", processes)
        checks = workload.checks(rnd)
    finally:
        workload.close()
    result["checks"] = {k: [bool(ok), detail] for k, (ok, detail) in checks.items()}
    result["attempted"] = rnd.attempted + len(checks)
    result["failed"] = rnd.failed + sum(not ok for ok, _ in checks.values())
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.child")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned", type=float, required=True)
    args = parser.parse_args(argv)
    result = run_pass(
        args.workload, args.seed, args.seconds, bool(args.trace), args.spawned
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
