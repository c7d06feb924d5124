"""Table 1 — time-to-solution survey: this work vs prior ab-initio-accuracy MD.

Two kinds of rows are reproduced:

* measured — our Python DP engine's actual TtS (s/step/atom) on laptop-scale
  water and copper cells, both for the engine (batched staging, compiled
  plan, optimized operators) and for the reference path with the baseline
  Environment operator (``evaluate_serial(backend="baseline")``: unbatched,
  uncompiled, unoptimized), mirroring the "Baseline DeePMD-kit" row;
* modeled — the Summit cost-model TtS for the paper's 403M-atom water and
  113M-atom copper headline rows.

The headline shape: DP beats every DFT row by >=5 orders of magnitude, and
the optimized path beats the baseline path by a large factor.
"""

import pytest

from benchmarks.conftest import print_header
from repro.dp.pair import DeepPotPair
from repro.md import Potential, Simulation, boltzmann_velocities
from repro.md.neighbor import fitted_neighbor_list
from repro.perfmodel import table1_rows
from repro.perfmodel.scaling import TABLE1_LITERATURE

RESULTS = {}
N_STEPS = 10


class BaselinePair(Potential):
    """The paper's "Baseline DeePMD-kit" column: a measurement, not an
    engine mode — the reference path with Table 3's unoptimized operator."""

    def __init__(self, model):
        self.model, self.cutoff = model, model.config.rcut

    def compute(self, system, pair_i, pair_j):
        return self.model.evaluate_serial(system, pair_i, pair_j, backend="baseline")


def _tts(model, system, pair_cls) -> float:
    sysw = system.copy()
    boltzmann_velocities(sysw, 330.0, seed=1)
    pair = pair_cls(model)
    sim = Simulation(
        sysw, pair, dt=0.0005, neighbor=fitted_neighbor_list(sysw, pair.cutoff)
    )
    sim.run(N_STEPS)
    return sim.time_to_solution()


def test_water_optimized(benchmark, zoo_water_model, water_81):
    benchmark.pedantic(
        lambda: RESULTS.__setitem__(
            "water_opt", _tts(zoo_water_model, water_81, DeepPotPair)
        ),
        rounds=1, iterations=1,
    )


def test_water_baseline_ops(benchmark, zoo_water_model, water_81):
    benchmark.pedantic(
        lambda: RESULTS.__setitem__(
            "water_base", _tts(zoo_water_model, water_81, BaselinePair)
        ),
        rounds=1, iterations=1,
    )


def test_copper_optimized(benchmark, zoo_copper_model, copper_256):
    benchmark.pedantic(
        lambda: RESULTS.__setitem__(
            "cu_opt", _tts(zoo_copper_model, copper_256, DeepPotPair)
        ),
        rounds=1, iterations=1,
    )


def test_zz_report(benchmark):
    # register as a benchmark so --benchmark-only still runs the report
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert {"water_opt", "water_base", "cu_opt"} <= RESULTS.keys()
    print_header("Table 1 — time-to-solution survey (s/step/atom)")
    print(f"{'work':<34} {'system':<6} {'TtS':>10}")
    for name, year, pot, system, n_atoms, where, tts in TABLE1_LITERATURE:
        print(f"{name:<34} {system:<6} {tts:>10.1e}")
    print(f"{'This repo, baseline path (Python)':<34} {'H2O':<6} "
          f"{RESULTS['water_base']:>10.1e}")
    print(f"{'This repo, engine (Python)':<34} {'H2O':<6} "
          f"{RESULTS['water_opt']:>10.1e}")
    print(f"{'This repo, engine (Python)':<34} {'Cu':<6} "
          f"{RESULTS['cu_opt']:>10.1e}")
    for r in table1_rows():
        print(f"{'This work, Summit model':<34} {r['system']:<6} "
              f"{r['tts_model']:>10.1e}  (paper: {r['tts_paper']:.1e})")

    # Shape assertions.
    assert RESULTS["water_opt"] < RESULTS["water_base"]
    # Our laptop Python TtS still beats every DFT row of Table 1.
    dft_best = 4.0e-3  # CONQUEST
    assert RESULTS["water_opt"] < dft_best
    # Summit-model headline rows match the paper.
    rows = {r["system"]: r for r in table1_rows()}
    assert rows["Cu"]["tts_model"] == pytest.approx(7.3e-10, rel=0.15)
    assert rows["H2O"]["tts_model"] == pytest.approx(2.7e-10, rel=0.15)
