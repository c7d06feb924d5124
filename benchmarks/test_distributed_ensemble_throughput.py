"""Distributed-ensemble force evaluation: bucketed batching vs per-frame.

The parallel layer's thesis (Sec 5.4 + the amortization lesson of the
follow-up DPMD papers): R replicas x P ranks produce R x P sub-domain
frames per step, and evaluating them as a handful of shape-bucketed batched
graph runs amortizes the fixed per-evaluation cost that a
one-evaluation-per-rank schedule pays R x P times.

Two kinds of assertions (the established bench policy):

* deterministic (always on): a step issues exactly ``bucket_count`` batched
  evaluations — strictly fewer than R x P; every evaluation goes through the
  locals-first ghost-stacked staging path; and the engine's scratch pool
  stops allocating after warm-up;
* wall-clock (paired interleaved trials, gated on REPRO_BENCH_STRICT):
  the fused ensemble step beats R independent simulations over the seam's
  reference backend (``PerFrameBackend``: one evaluation per rank frame).
  The workload is many small replicas — the regime where fixed cost
  dominates a frame (measured ~0.64 median ratio on the dev host).
"""

import numpy as np
import pytest

from benchmarks.conftest import bench_paired_trials, bench_strict, print_header
from repro.analysis.structures import water_box
from repro.dp import DeepPot, DPConfig
from repro.dp.backend import PerFrameBackend
from repro.md import boltzmann_velocities
from repro.parallel import DistributedEnsembleSimulation, DistributedSimulation

R = 8
GRID = (2, 1, 1)
P = int(np.prod(GRID))
KW = dict(grid=GRID, dt=0.0005, skin=1.0, rebuild_every=1000)


@pytest.fixture(scope="module")
def model():
    # rcut shrunk so the 24-atom cell satisfies minimum image — the
    # many-small-replicas sampling regime the batched engine targets.
    return DeepPot(DPConfig.tiny(sel=(8, 16), rcut=3.0))


@pytest.fixture(scope="module")
def base():
    return water_box((2, 2, 2), seed=0)


def make_ensemble(model, base):
    return DistributedEnsembleSimulation.from_system(
        base, model, n_replicas=R, temperature=300.0, seed=1, **KW
    )


def make_per_rank(model, base):
    solos = []
    for k in range(R):
        s = base.copy()
        boltzmann_velocities(s, 300.0, seed=1 + k)
        solos.append(
            DistributedSimulation(
                s, model, force_backend=PerFrameBackend(model), **KW
            )
        )
    return solos


def test_one_evaluation_per_bucket_per_step(model, base):
    """Deterministic: evaluations per step == bucket count << R x P."""
    ens = make_ensemble(model, base)
    backend = ens.force_backend
    before = backend.evaluations
    n_steps = 5
    ens.run(n_steps)
    per_step = (backend.evaluations - before) / n_steps
    assert per_step == backend.bucket_count
    assert backend.bucket_count < R * P
    assert backend.engine.general_batches == 0
    assert backend.engine.ghost_stacked_batches == backend.evaluations
    # A per-rank schedule would have issued R*P evaluations per step.
    print_header("Distributed ensemble: evaluations per step")
    print(
        f"R={R} replicas x P={P} ranks = {R*P} frames/step -> "
        f"{backend.bucket_count} bucketed evaluations/step "
        f"({R*P / backend.bucket_count:.0f}x fewer graph runs)"
    )


def test_scratch_stops_allocating_after_warmup(model, base):
    ens = make_ensemble(model, base)
    ens.run(2)  # warm every steady shape
    engine = ens.force_backend.engine
    count = engine.scratch.alloc_count
    ens.run(3)
    assert engine.scratch.alloc_count == count


def test_paired_timing_batched_vs_per_rank(model, base):
    """Wall-clock (REPRO_BENCH_STRICT-gated): the fused ensemble step beats
    R independent per-rank-path simulations, paired per trial."""
    ens = make_ensemble(model, base)
    solos = make_per_rank(model, base)

    def run_batched():
        ens.run(2)

    def run_per_rank():
        for s in solos:
            s.run(2)

    ratios = bench_paired_trials(run_batched, run_per_rank, trials=5, warmup=1)
    median = float(np.median(ratios))
    print_header("Distributed ensemble: fused vs per-rank wall-clock")
    print(
        f"t(batched)/t(per-rank) per paired trial: "
        f"{', '.join(f'{r:.3f}' for r in ratios)}  (median {median:.3f})"
    )
    if bench_strict():
        # Measured ~0.64 on the dev host; 0.90 leaves noise headroom while
        # still demonstrating the amortization win.
        assert median < 0.90, (
            f"bucketed ensemble evaluation should beat per-rank "
            f"(median ratio {median:.3f})"
        )
