"""The names ``bench/`` binds to in ``src/`` still resolve.

The benchmark wraps public functions by ``(module, attribute path)`` and
reads counters off live objects; a rename in ``src/`` would otherwise only
show up minutes into a benchmark run.  Nothing here runs a workload.
"""

import importlib

import pytest

from bench import trace, workloads
from repro.dp.batch import BatchedEvaluator
from repro.dp.model import DeepPot, DPConfig
from repro.dp.train import Trainer
from repro.serving import InferenceServer


@pytest.fixture(scope="module")
def model():
    return DeepPot(DPConfig.tiny(sel=(8, 16), rcut=3.0))


@pytest.mark.parametrize(
    "module,path", sorted({(m, p) for m, p, _layer in trace.TARGETS})
)
def test_trace_target_resolves(module, path):
    """What ``Tracer.install`` needs: the attribute sits in the holder's own
    ``__dict__`` (an inherited method would resolve through ``getattr`` and
    still raise ``KeyError`` at install time) and is a plain function."""
    *holders, attr = path.split(".")
    holder = importlib.import_module(module)
    for name in holders:
        holder = getattr(holder, name)
    assert attr in vars(holder)
    target = vars(holder)[attr]
    assert callable(target)
    assert not isinstance(target, (staticmethod, classmethod))


def test_engine_and_plan_counters_resolve(model):
    counters = workloads.engine_counters(BatchedEvaluator(model))
    assert counters["tfmini.plan.records"] > 0
    assert counters["tfmini.plan.topo_sorts"] == 1
    assert counters["tfmini.plan.records_fused"] == 0
    assert isinstance(Trainer.plan, property)  # TrainWater.counters reads it


def test_executor_stats_keys_the_serving_workload_reads(model):
    server = InferenceServer({"water": model}, autostart=False)
    try:
        stats = server.executor_stats()["water"]
    finally:
        server.stop()
    assert {"topo_sorts", "arena_builds", "arena_allocs",
            "arena_nbytes"} <= set(stats)


# What bench/child.py::serving_layers and bench/daemon.py read off STATS.
SERVING_STATS_KEYS = {
    "requests_submitted", "requests_completed", "requests_failed",
    "requests_cancelled", "requests_rejected", "batches", "frames",
    "queue_wait_total", "worker_respawns",
}


def test_serving_surface_the_daemon_and_the_workload_drive():
    """Every serving call ``bench/daemon.py`` and ``workloads.ServeSocket``
    make, in their spelling: a rename or a lost default fails here by name
    instead of as a dead daemon minutes into a benchmark run."""
    from repro.analysis.structures import water_box
    from repro.md.neighbor import neighbor_pairs
    from repro.serving import (
        ServingDaemon,
        SocketClient,
        perturbed_frames,
        served_matches_direct,
    )

    server = InferenceServer.from_zoo(["water"])  # every serving default
    direct = server.model("water")
    frames = perturbed_frames(water_box((3, 3, 3), seed=0), 3, seed0=10**6)
    pairs = [neighbor_pairs(f, direct.config.rcut) for f in frames]
    with server.paused():  # daemon.warm: pre-queued, then coalesced
        futures = [server.submit("water", f) for f in frames[:2]]
    for future in futures:
        future.result(60.0)
    daemon = ServingDaemon(server).start()
    try:
        client = SocketClient(tuple(daemon.address), "water", client="bench-0")
        before = client.stats()
        one = client.submit(frames[0], *pairs[0]).result(60.0)
        many = client.evaluate_many(frames, pairs, timeout=60.0)
        many += client.evaluate_many(frames, pairs)  # the burst: no timeout
        after = client.stats()
        client.close()
    finally:
        daemon.stop(drain=True)
    assert daemon.wait(1.0)
    assert SERVING_STATS_KEYS <= set(before)
    assert SERVING_STATS_KEYS <= set(server.stats.snapshot())
    assert after["requests_completed"] - before["requests_completed"] == 7
    assert after["frames"] - before["frames"] == 7
    assert after["batches"] > before["batches"]
    assert "water" in server.executor_stats()
    assert served_matches_direct(direct, frames[0], one)
    assert all(
        served_matches_direct(direct, frame, result)
        for frame, result in zip(frames + frames, many)
    )
