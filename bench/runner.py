"""Spawns the passes and folds them into metrics.

Every pass is a child process (``bench.child``) with one BLAS thread; an
end-to-end metric is the median over the timed passes, so set-up is sampled
once per pass and a host hiccup that hits one pass does not decide a metric.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

from bench import spec
from bench.host import THREAD_ENV

PASSES = 3
PASS_TIMEOUT = 170.0  # seconds; a hung child is killed, never waited out
BUILD_TIMEOUT = 850.0
# The files repro.zoo caches after training the two zoo models.  If zoo
# renames them this only costs a (cached, ~1 s) build call per run.
ZOO_FILES = ("water_tiny_double_900.npz", "copper_tiny_double_700.npz")


class PassFailed(RuntimeError):
    """A child exited without a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    paths = [str(spec.ROOT / "src"), str(spec.ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def require_program() -> None:
    """The benchmark measures ``src/repro``; without it there is nothing
    to run (exit 2, no result line)."""
    if not (spec.ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no program to measure: {spec.ROOT / 'src' / 'repro'} is missing")


def build() -> None:
    """Train and cache the zoo models when the checkout has none (~65 s on
    the reference host); this is the benchmark's build step, outside every
    timed region."""
    if all((spec.ROOT / ".model_zoo" / name).is_file() for name in ZOO_FILES):
        return
    print("bench: building the zoo models (first run in this checkout)", flush=True)
    subprocess.run(
        [sys.executable, "-c",
         "from repro import zoo; zoo.get_water_model(); zoo.get_copper_model()"],
        cwd=spec.ROOT, env=child_env(), check=True, timeout=BUILD_TIMEOUT,
        stdout=subprocess.DEVNULL,
    )


def run_pass(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One child process = one pass; returns what it printed."""
    command = [
        sys.executable, "-m", "bench.child", "--workload", workload,
        "--seed", str(seed), "--seconds", f"{seconds:.3f}",
        "--trace", str(int(trace)), "--spawned", repr(time.time()),
    ]
    try:
        proc = subprocess.run(
            command, cwd=spec.ROOT, env=child_env(), stdout=subprocess.PIPE,
            text=True, timeout=PASS_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{workload}: pass exceeded {PASS_TIMEOUT:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"{workload}: child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def fold(timed: list[dict], traced: dict | None = None) -> dict:
    """The passes of one workload -> its block of the result file.
    End-to-end metrics come from the timed passes only; checks and the
    failure count from every pass."""
    every = timed + ([traced] if traced else [])
    end_to_end = {}
    for name, meta in spec.end_to_end().items():
        values = [p["end_to_end"][name] for p in timed]
        end_to_end[name] = {
            "value": statistics.median(values), "unit": meta["unit"],
            "passes": values,
        }
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    block = {
        "end_to_end": end_to_end,
        "derived": {
            key: statistics.median(p["derived"][key] for p in timed)
            for key in timed[0]["derived"]
        },
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted,
        "samples_per_pass": [p["samples"] for p in timed],
        "checks": {
            name: [all(p["checks"][name][0] for p in every),
                   [p["checks"][name][1] for p in every]]
            for name in timed[0]["checks"]
        },
    }
    if traced:
        block["per_layer"] = traced["per_layer"]
        # Informational: what the wrappers cost the median operation.
        block["trace_overhead"] = (
            traced["end_to_end"]["lat_ms_p50"] / end_to_end["lat_ms_p50"]["value"] - 1.0
        )
    return block
