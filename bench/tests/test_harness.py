import json
import re
import subprocess
import sys
import time

import pytest

from bench import child, runner, spec, workloads
from bench.trace import Tracer

# Exact for a seed (traced rounds run a fixed number of operations).
EXACT = {
    "md_water192": ["md.neighbor.builds", "md.neighbor.pairs", "tfmini.plan.records",
                    "dp.batch.identity_share", "dp.nlist_fmt.dropped"],
    "serve_socket": ["serving.protocol.bytes_per_req.closed",
                     "serving.protocol.bytes_per_req.burst"],
}


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench", *args], cwd=spec.ROOT,
        capture_output=True, text=True, timeout=600,
    )


def driver_run(workload: str, seed: int, trace: int, seconds: float = 2.0) -> dict:
    proc = bench("--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def quick() -> dict:
    """One ``--quick`` run of the whole benchmark, shared by the tests."""
    started = time.time()
    proc = bench("--quick", "--label", "selftest")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    document = json.loads((spec.TRAJECTORY / "BENCH_selftest.json").read_text())
    document["elapsed"] = time.time() - started
    return document


def test_declared_names_are_well_formed():
    declared = spec.load()
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    names += spec.workload_names()
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert spec.end_to_end()["setup_s"]["unit"] == "s"
    assert set(spec.workload_names()) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_run_emits_exactly_the_declared_metrics(trace):
    result = driver_run("train_water", seed=3, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = spec.per_layer() if trace else spec.end_to_end()
    assert list(result["metrics"]) == list(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]["unit"]


def test_quick_run_covers_every_workload_and_metric(quick):
    # <= 60 s at reference speed (this host runs 1.5x slower for minutes
    # at a time; see bench/hostspeed.py)
    speeds = [b["derived"]["host_speed"] for b in quick["workloads"].values()]
    assert quick["elapsed"] * min(1.0, sorted(speeds)[len(speeds) // 2]) <= 60.0
    assert list(quick["workloads"]) == spec.workload_names()
    for name, block in quick["workloads"].items():
        assert block["failed"] == 0 and block["fail_share"] == 0.0, name
        assert all(ok for ok, _ in block["checks"].values()), name
        assert list(block["end_to_end"]) == list(spec.end_to_end())
        assert all(m["value"] > 0 for m in block["end_to_end"].values()), name
        assert list(block["per_layer"]) == list(spec.per_layer())
    for key in ("nproc", "cpu_model", "python", "numpy", "blas", "thread_env",
                "git_commit"):
        assert quick["host"][key]
    copper = quick["workloads"]["md_copper256"]["per_layer"]
    assert copper["dp.batch.identity_share"] == 1.0
    assert quick["workloads"]["md_water192"]["per_layer"]["dp.batch.identity_share"] == 0.0
    assert copper["trace.accounted_share"] >= 0.95


def test_self_times_of_a_step_sum_to_its_span(quick):
    events = json.loads(
        (spec.TRAJECTORY / "trace_md_copper256.json").read_text()
    )["traceEvents"]
    spans = {e["args"]["span"]: e for e in events if e["ph"] == "X"}
    children: dict[int, list[int]] = {}
    for index, event in spans.items():
        children.setdefault(event["args"]["parent"], []).append(index)

    def self_time(index: int) -> float:
        return spans[index]["dur"] - sum(spans[c]["dur"] for c in children.get(index, []))

    def subtree(index: int) -> list[int]:
        return [index] + [d for c in children.get(index, []) for d in subtree(c)]

    steps = [i for i in children[-1] if spans[i]["name"] == "md.driver"]
    assert len(steps) >= 10
    for step in steps:
        total = sum(self_time(i) for i in subtree(step))
        assert total == pytest.approx(spans[step]["dur"], rel=0.02)
        assert len(subtree(step)) >= 9  # the step's layers are all there


def exact_counts(workload: str, seed: int) -> list[float]:
    metrics = driver_run(workload, seed, trace=1)["metrics"]
    return [metrics[name]["value"] for name in EXACT[workload]]


@pytest.mark.parametrize("workload", sorted(EXACT))
def test_exact_counts_repeat_for_a_seed(workload):
    assert exact_counts(workload, seed=0) == exact_counts(workload, seed=0)


def test_exact_counts_move_with_the_seed():
    assert exact_counts("md_water192", seed=0) != exact_counts("md_water192", seed=1)


def test_wrappers_are_gone_after_a_traced_pass_and_after_a_failure(monkeypatch):
    assert Tracer.wrapped_targets() == []
    result = child.run_pass("train_water", 0, 0.3, True, time.time())
    assert result["per_layer"]["dp.train.self_ms"] > 0
    assert Tracer.wrapped_targets() == []

    def explode(self, seconds, fixed, tracer, kernel):
        assert len(Tracer.wrapped_targets()) > 20  # installed for the round
        raise RuntimeError("round failed")

    monkeypatch.setattr(workloads.TrainWater, "measure", explode)
    with pytest.raises(RuntimeError, match="round failed"):
        child.run_pass("train_water", 0, 0.3, True, time.time())
    assert Tracer.wrapped_targets() == []


@pytest.mark.parametrize("failing", ["checks", "measure", None])
def test_daemon_is_reaped_on_every_exit_path(monkeypatch, failing):
    for key, value in runner.child_env().items():
        monkeypatch.setenv(key, value)
    started = []
    setup = workloads.ServeSocket.setup

    def recording_setup(self, seed):
        try:
            setup(self, seed)
        finally:
            started.append(self.daemon)

    monkeypatch.setattr(workloads.ServeSocket, "setup", recording_setup)
    if failing:
        def explode(self, *args, **kwargs):
            raise RuntimeError(f"{failing} failed")

        monkeypatch.setattr(workloads.ServeSocket, failing, explode)
        with pytest.raises(RuntimeError, match="failed"):
            child.run_pass("serve_socket", 0, 1.0, False, time.time())
    else:
        result = child.run_pass("serve_socket", 0, 1.0, False, time.time())
        assert result["failed"] == 0
    (daemon,) = started
    assert daemon.poll() is not None  # exited and waited for
    if failing != "measure":  # drained on SIGTERM, not killed
        assert daemon.returncode == 0
