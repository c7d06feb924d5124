"""Fig 3 — percent stacked operator-time breakdown of the DP graph.

Paper (V100): GEMM dominates — 74% (Cu double), 72% (Cu mixed), 63% (water
double), 62% (water mixed); TANH, SLICE, CUSTOM and Others share the rest;
copper shows a *larger* GEMM share than water because the monoatomic system
needs no per-type sorting/slicing.

Here the instrumented tfmini executor measures wall time per operator
category for the same four configurations.
"""

import numpy as np
import pytest

from benchmarks.conftest import print_header
import repro.tfmini as tf
from repro.analysis.structures import fcc_lattice, water_box
from repro.dp.model import DeepPot, DPConfig
from repro.md.neighbor import neighbor_pairs
from repro.zoo import as_mixed_precision

BREAKDOWNS = {}
CATEGORIES = ("GEMM", "TANH", "SLICE", "CUSTOM", "Others")

PAPER_GEMM_SHARE = {
    ("copper", "double"): 74,
    ("copper", "mixed"): 72,
    ("water", "double"): 63,
    ("water", "mixed"): 62,
}


def _measure(model, system, n_evals=5):
    import gc

    pi, pj = neighbor_pairs(system, model.config.rcut)
    # Measurement hygiene: earlier planned evaluations leave the engine's
    # buffer arena resident (hundreds of MB at paper-sized sel), which
    # distorts the *allocating* serial path this breakdown profiles — the
    # SLICE/Others categories are allocation-bound and slow down several-
    # fold under that heap pressure.  Release the persistent buffers so the
    # profiled oracle runs in the same allocator state as a standalone
    # process.
    if model._batched is not None:
        model.batched.release_buffers()
    gc.collect()
    # Each evaluation is profiled on its own and the quietest one is kept:
    # this path allocates ~1 GB of op outputs per evaluation, and on a
    # virtualized host a burst of slow page faults can stretch one
    # evaluation from 0.5 s to 10 s, all of it booked to whichever
    # allocation-bound op it hit.
    best = None
    for _ in range(n_evals):
        # The serial path keeps energy reduction, ProdForce and ProdVirial
        # inside the profiled graph — the op set the paper's Fig 3 breaks down.  (The
        # batched engine computes those outside the graph, which would
        # silently shrink the CUSTOM share being measured here.)
        model.session = tf.Session(profile=True)
        model.evaluate_serial(system, pi, pj)
        stats = model.session.stats
        if best is None or stats.total_seconds() < best.total_seconds():
            best = stats
    pct = best.category_percentages()
    return {c: pct.get(c, 0.0) for c in CATEGORIES}


@pytest.fixture(scope="module")
def systems():
    return {
        "water": water_box((4, 4, 4), seed=0),
        "copper": fcc_lattice((4, 4, 4)),
    }


@pytest.mark.parametrize("system_name", ["water", "copper"])
@pytest.mark.parametrize("precision", ["double", "mixed"])
def test_breakdown(benchmark, systems, system_name, precision):
    # paper-sized nets; sel shrunk only as far as the small cells require
    if system_name == "water":
        cfg = DPConfig(
            type_names=("O", "H"), rcut=6.0, rcut_smth=0.5, sel=(46, 92),
            precision=precision,
        )
    else:
        cfg = DPConfig(
            type_names=("Cu",), rcut=7.0, rcut_smth=2.0, sel=(220,),
            precision=precision,
        )
    model = DeepPot(cfg)
    system = systems[system_name]

    pi, pj = neighbor_pairs(system, cfg.rcut)
    benchmark.pedantic(
        lambda: model.evaluate(system, pi, pj),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    BREAKDOWNS[(system_name, precision)] = _measure(model, system)


def test_zz_report(benchmark, systems):
    # register as a benchmark so --benchmark-only still runs the report
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert len(BREAKDOWNS) == 4
    print_header("Fig 3 — operator time breakdown (% of graph execution time)")
    print(f"{'config':<18}" + "".join(f"{c:>9}" for c in CATEGORIES)
          + f"{'paper GEMM':>12}")
    for (system_name, precision), pct in sorted(BREAKDOWNS.items()):
        row = f"{system_name + '-' + precision:<18}"
        row += "".join(f"{pct[c]:>8.1f}%" for c in CATEGORIES)
        row += f"{PAPER_GEMM_SHARE[(system_name, precision)]:>11}%"
        print(row)

    # Shape assertions: the network math (GEMM + TANH) dominates every
    # configuration, with GEMM always a leading category.  (On the paper's
    # V100 GEMM alone is 62-74%; NumPy's transcendental tanh is relatively
    # slower than its BLAS, which shifts some share from GEMM to TANH.)
    # The percentages are profiled wall-clock shares, so the thresholds honor
    # the REPRO_BENCH_STRICT=0 escape hatch like every timing comparison.
    from benchmarks.conftest import bench_strict

    if bench_strict():
        for key, pct in BREAKDOWNS.items():
            assert pct["GEMM"] + pct["TANH"] > 40.0, key
            top_two = sorted(pct.values(), reverse=True)[:2]
            assert pct["GEMM"] >= top_two[1] - 5.0, key
