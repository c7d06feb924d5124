"""Table 4 — water strong scaling on Summit (12,582,912 atoms, 480-27,360
GPUs): atoms/GPU, ghost sizes, MD loop time, efficiency, PFLOPS, %peak.

Summit itself is substituted by the calibrated analytic model (README.md);
ghost-region sizes come from exact sub-domain geometry and land within a few
percent of the paper's measured columns.  The benchmark times the sweep
generator and asserts every column's shape.
"""

import pytest

from benchmarks.conftest import print_header
from repro.perfmodel import table4_rows
from repro.perfmodel.scaling import TABLE4_PAPER


def test_table4(benchmark):
    rows = benchmark(table4_rows)

    print_header("Table 4 — water strong scaling, model | paper")
    print(f"{'#GPUs':>6} {'atoms/GPU':>10} {'ghosts':>15} {'loop/s':>15} "
          f"{'eff':>11} {'PFLOPS':>13} {'%peak':>13}")
    for r in rows:
        p = r["paper"]
        print(
            f"{r['gpus']:>6} {r['atoms_per_gpu']:>10.0f} "
            f"{r['ghosts_per_gpu']:>7.0f}|{p[1]:<7} "
            f"{r['md_loop_time']:>7.1f}|{p[2]:<7.2f} "
            f"{r['efficiency']:>5.2f}|{p[3]:<5.2f} "
            f"{r['pflops']:>6.2f}|{p[4]:<6.2f} "
            f"{r['percent_peak']:>6.1f}|{p[5]:<6.2f}"
        )

    for r in rows:
        p = r["paper"]
        assert r["ghosts_per_gpu"] == pytest.approx(p[1], rel=0.08)
        assert r["md_loop_time"] == pytest.approx(p[2], rel=0.20)
        assert r["efficiency"] == pytest.approx(p[3], abs=0.06)
        assert r["pflops"] == pytest.approx(p[4], rel=0.15)
        assert r["percent_peak"] == pytest.approx(p[5], rel=0.20)

    # The paper's qualitative claim: %peak collapses below ~1000 atoms/GPU.
    small = [r for r in rows if r["atoms_per_gpu"] < 1000]
    large = [r for r in rows if r["atoms_per_gpu"] > 10000]
    assert all(r["percent_peak"] < 22 for r in small)
    assert all(r["percent_peak"] > 35 for r in large)
