"""``BENCHMARK.json`` is the one declaration of workloads, metrics, units and
bounds; everything in ``bench`` reads names from it through this module."""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = Path(__file__).resolve().parent / "trajectory"


@lru_cache(maxsize=None)
def load() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def workload_names() -> list[str]:
    return [w["name"] for w in load()["workloads"]]


def end_to_end() -> dict[str, dict]:
    return {m["name"]: m for m in load()["end_to_end"]}


def per_layer() -> dict[str, dict]:
    return {m["name"]: m for m in load()["per_layer"]}
