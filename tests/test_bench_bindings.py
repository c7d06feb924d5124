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
    owner = importlib.import_module(module)
    for name in path.split("."):
        owner = getattr(owner, name)
    assert callable(owner)


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
