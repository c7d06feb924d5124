"""Shared fixtures for the benchmark harness.

One benchmark module per paper table/figure (see README.md).  Absolute
numbers are laptop numbers; every module prints its measured values next to
the paper's so the *shape* comparison is explicit.  End-to-end performance
of the repo itself is ``python3 -m bench`` (see ``bench/README.md``).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.analysis.structures import fcc_lattice, water_box
from repro.dp.model import DeepPot, DPConfig
from repro.md.neighbor import neighbor_pairs


def bench_strict() -> bool:
    """Whether wall-clock threshold asserts are enforced.

    Deterministic *shape* asserts (byte counters, op counts, call counts)
    always run; asserts that compare measured wall-clock ratios are gated on
    this flag so noisy CI hosts can disable them with ``REPRO_BENCH_STRICT=0``.
    The default is strict: a clean local run must still demonstrate the
    paper's speedups.
    """
    return os.environ.get("REPRO_BENCH_STRICT", "1") != "0"


def bench_paired_trials(fn_a, fn_b, trials=5, warmup=1):
    """Per-trial wall-clock ratios t(fn_a)/t(fn_b), back-to-back per trial.

    The two sides run adjacently inside every trial, so host-load drift hits
    both equally — unlike comparing two separately-timed benchmarks, which
    flakes whenever the load changes between them.  Returns the raw ratio
    list (callers take median/min as fits their assert).
    """
    for _ in range(warmup):
        fn_a()
        fn_b()
    ratios = []
    for _ in range(trials):
        t0 = time.perf_counter()
        fn_a()
        t_a = time.perf_counter() - t0
        t0 = time.perf_counter()
        fn_b()
        t_b = time.perf_counter() - t0
        ratios.append(t_a / t_b)
    return ratios


def bench_paired_ratio(fn_a, fn_b, trials=5, warmup=1):
    """Median of :func:`bench_paired_trials` ratios."""
    return float(np.median(bench_paired_trials(fn_a, fn_b, trials, warmup)))


def bench_median(benchmark, fn, rounds=3, warmup_rounds=1):
    """Median-of-rounds runtime of ``fn`` via the pytest-benchmark fixture.

    Medians are robust to the single-round scheduler hiccups that made the
    old mean-based thresholds flake.  Falls back to a manual timing loop when
    the suite runs under ``--benchmark-disable`` (the CI smoke layer), where
    ``benchmark.stats`` is not populated.
    """
    benchmark.pedantic(fn, rounds=rounds, iterations=1, warmup_rounds=warmup_rounds)
    stats = getattr(benchmark, "stats", None)
    inner = getattr(stats, "stats", None) if stats is not None else None
    if inner is not None:
        return inner.median
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


@pytest.fixture(scope="session")
def water_192():
    """192-atom water cell — big enough for the paper's 6 Å water cutoff."""
    return water_box((4, 4, 4), seed=0)


@pytest.fixture(scope="session")
def water_81():
    return water_box((3, 3, 3), seed=0)


@pytest.fixture(scope="session")
def copper_256():
    return fcc_lattice((4, 4, 4))


@pytest.fixture(scope="session")
def paper_water_config():
    """The paper's water hyper-parameters (r_c=6 Å, sel=[46,92], 25/50/100,
    240^3) — used where fidelity to the paper's op shapes matters."""
    return DPConfig.paper_water()


@pytest.fixture(scope="session")
def zoo_water_model():
    from repro.zoo import get_water_model

    return get_water_model()


@pytest.fixture(scope="session")
def zoo_copper_model():
    from repro.zoo import get_copper_model

    return get_copper_model()


def pairs_for(system, cutoff):
    return neighbor_pairs(system, cutoff)


def print_header(title: str) -> None:
    print("\n" + "=" * 74)
    print(title)
    print("=" * 74)
