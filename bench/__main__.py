"""``python3 -m bench`` — the repo's benchmark (run from the repo root).

    python3 -m bench                       every workload: 3 timed passes,
                                           1 traced pass, all metrics, checks,
                                           bench/trajectory/BENCH_<label>.json
    python3 -m bench --quick               1 short pass each (self-tests)
    python3 -m bench --compare A.json B.json
    python3 -m bench --workload W --seed N --seconds S --trace 0|1
                                           one workload; the last stdout line
                                           is the JSON result the driver reads
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from bench import compare, runner, spec
from bench.host import fingerprint

QUICK_SECONDS = 1.2  # one pass of about an eighth of the operations


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """The driver's entry: one workload, one result line."""
    if trace:
        traced = runner.run_pass(workload, seed, seconds, trace=True)
        attempted, failed = traced["attempted"], traced["failed"]
        checks = traced["checks"]
        units = spec.per_layer()
        metrics = {
            name: {"value": value, "unit": units[name]["unit"]}
            for name, value in traced["per_layer"].items()
        }
    else:
        block = runner.fold([
            runner.run_pass(workload, seed, seconds / runner.PASSES, trace=False)
            for _ in range(runner.PASSES)
        ])
        attempted, failed = block["attempted"], block["failed"]
        checks = block["checks"]
        metrics = {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in block["end_to_end"].items()
        }
    for name, (ok, detail) in checks.items():
        print(f"check {'ok  ' if ok else 'FAIL'} {workload} {name}: {detail}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload: interleaved timed passes, then the traced pass."""
    names = args.workloads.split(",") if args.workloads else spec.workload_names()
    unknown = set(names) - set(spec.workload_names())
    if unknown:
        sys.exit(f"bench: unknown workloads {sorted(unknown)}")
    run_seconds = spec.load()["run_seconds"]
    passes = 1 if args.quick else runner.PASSES
    pass_seconds = QUICK_SECONDS if args.quick else run_seconds / runner.PASSES
    traced_seconds = pass_seconds if args.quick else float(run_seconds)

    started = time.time()
    load_before = os.getloadavg()
    timed: dict[str, list[dict]] = {name: [] for name in names}
    # Passes go over the whole workload list, so drift on the scale of a
    # minute lands on every workload alike.
    for k in range(passes):
        for name in names:
            print(f"pass {k + 1}/{passes} {name}", flush=True)
            timed[name].append(runner.run_pass(name, args.seed, pass_seconds, False))
    results = {}
    for name in names:
        print(f"traced pass {name}", flush=True)
        traced = runner.run_pass(name, args.seed, traced_seconds, True)
        results[name] = runner.fold(timed[name], traced)

    document = {
        "schema": 1,
        "label": args.label,
        "host": fingerprint(),
        "seed": args.seed,
        "passes": passes,
        "quick": bool(args.quick),
        "run_seconds": run_seconds,
        "wall_s": time.time() - started,
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "workloads": results,
    }
    spec.TRAJECTORY.mkdir(exist_ok=True)
    out = spec.TRAJECTORY / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(document, indent=1) + "\n")
    compare.print_results(document)
    print(f"wrote {out.relative_to(spec.ROOT)} and one trace_<workload>.json "
          f"per workload in {document['wall_s']:.0f} s")
    bad = [
        f"{name}: {check}" for name, block in results.items()
        for check, (ok, _) in block["checks"].items() if not ok
    ]
    for line in bad:
        print(f"FAILED CHECK {line}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=spec.workload_names())
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--workloads", help="comma-separated subset (all-workload mode)")
    parser.add_argument("--label", default="local",
                        help="result file is bench/trajectory/BENCH_<label>.json")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare.main(*args.compare)
    runner.require_program()
    try:
        runner.build()
        if args.workload:
            seconds = args.seconds or float(spec.load()["run_seconds"])
            return run_workload(args.workload, args.seed, seconds, bool(args.trace))
        return run_all(args)
    except runner.PassFailed as exc:
        sys.exit(f"bench: {exc}")


if __name__ == "__main__":
    sys.exit(main())
