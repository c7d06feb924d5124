"""Sec 5.2.1 / 5.2.2 ablation — the neighbor-list layout and 64-bit codec.

Three contrasts the paper's algorithmic section motivates:

1. formatting: AoS records + Python tuple sort (baseline) vs vectorized
   scalar-key sort with the 64-bit codec (optimized);
2. the codec itself: uint64-key sort vs lexicographic multi-array record
   sort inside the vectorized formatter ("reduces the number of comparisons
   by half");
3. computational granularity: embedding-matrix computation with per-neighbor
   type branching vs the branch-free padded layout.
"""

import numpy as np
import pytest

from benchmarks.conftest import bench_median, bench_strict, pairs_for, print_header
from repro.dp.nlist_fmt import (
    PAD,
    format_neighbors,
    format_neighbors_baseline,
)
from repro.dp.ops_optimized import environment_op

TIMES = {}


@pytest.fixture(scope="module")
def inputs(water_192, paper_water_config):
    cfg = paper_water_config
    pi, pj = pairs_for(water_192, cfg.rcut)
    return water_192, cfg, pi, pj


# Medians of benchmark.stats, not single-round means: robust to timer noise.
_median = bench_median


class TestFormatting:
    def test_baseline_aos_sort(self, benchmark, inputs):
        sys, cfg, pi, pj = inputs
        TIMES["fmt_aos"] = _median(
            benchmark,
            lambda: format_neighbors_baseline(sys, pi, pj, cfg.rcut, cfg.sel),
            rounds=2,
        )

    def test_optimized_codec_sort(self, benchmark, inputs):
        sys, cfg, pi, pj = inputs
        TIMES["fmt_codec"] = _median(
            benchmark,
            lambda: format_neighbors(sys, pi, pj, cfg.rcut, cfg.sel,
                                     use_compression=True),
        )

    def test_optimized_record_sort(self, benchmark, inputs):
        sys, cfg, pi, pj = inputs
        TIMES["fmt_record"] = _median(
            benchmark,
            lambda: format_neighbors(sys, pi, pj, cfg.rcut, cfg.sel,
                                     use_compression=False),
        )


def test_production_path_matches_layout_model(inputs):
    """The formatter the engine actually runs (per-atom packed-key sort)
    builds the layout the two models above define: same neighbors in every
    type block, nothing dropped differently.  Slot order inside a block may
    differ from the exact-float sorts only where the codec's 1e-8 Å quantum
    ties two distances (the two O-H bonds of a molecule), so blocks are
    compared as sets and the production rows are checked to be sorted at
    that resolution."""
    sys, cfg, pi, pj = inputs
    prod = format_neighbors(sys, pi, pj, cfg.rcut, cfg.sel)
    models = [
        format_neighbors_baseline(sys, pi, pj, cfg.rcut, cfg.sel),
        format_neighbors(sys, pi, pj, cfg.rcut, cfg.sel, use_compression=False),
    ]
    _em, _ed, rij = environment_op(sys, prod, cfg.rcut_smth, cfg.rcut)
    # the formatter's own distance formula, so the quantum boundaries agree
    quantized = np.floor(np.sqrt(np.einsum("...i,...i->...", rij, rij)) * 1e8)
    quantized[prod.nlist == PAD] = np.finfo(float).max  # padding comes last
    for t, width in enumerate(prod.sel):
        block = slice(prod.sel_start[t], prod.sel_start[t] + width)
        assert np.all(np.diff(quantized[:, block], axis=1) >= 0)
        for model in models:
            np.testing.assert_array_equal(
                np.sort(prod.nlist[:, block], axis=1),
                np.sort(model.nlist[:, block], axis=1),
            )
    assert all(model.n_dropped == prod.n_dropped for model in models)


class TestGranularity:
    """Embedding input gather: branch-per-neighbor vs padded block."""

    @pytest.fixture(scope="class")
    def fmt_and_env(self, inputs):
        sys, cfg, pi, pj = inputs
        fmt = format_neighbors(sys, pi, pj, cfg.rcut, cfg.sel)
        em, _ed, _rij = environment_op(sys, fmt, cfg.rcut_smth, cfg.rcut)
        return fmt, em

    def test_branching_gather(self, benchmark, fmt_and_env):
        fmt, em = fmt_and_env
        slot_types = fmt.slot_types()

        def branchy():
            # per-slot branching on type — the pattern the layout removes
            out = [[] for _ in fmt.sel]
            nloc, nnei = fmt.nlist.shape
            for i in range(nloc):
                for jj in range(nnei):
                    if fmt.nlist[i, jj] == PAD:
                        continue
                    t = slot_types[jj]
                    out[t].append(em[i, jj, 0])
            return [np.asarray(o) for o in out]

        TIMES["gather_branch"] = _median(benchmark, branchy, rounds=2)

    def test_padded_block_gather(self, benchmark, fmt_and_env):
        fmt, em = fmt_and_env

        def blocked():
            # contiguous per-type blocks — no branching, one slice per type
            out = []
            for t, s in enumerate(fmt.sel):
                start = fmt.sel_start[t]
                out.append(em[:, start : start + s, 0].reshape(-1))
            return out

        TIMES["gather_block"] = _median(benchmark, blocked)


def test_zz_report(benchmark, inputs):
    # register as a benchmark so --benchmark-only still runs the report
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    required = {"fmt_aos", "fmt_codec", "fmt_record", "gather_branch",
                "gather_block"}
    assert required <= TIMES.keys()
    print_header("Sec 5.2 — neighbor layout & codec ablation")
    fmt_speedup = TIMES["fmt_aos"] / TIMES["fmt_codec"]
    codec_speedup = TIMES["fmt_record"] / TIMES["fmt_codec"]
    gather_speedup = TIMES["gather_branch"] / TIMES["gather_block"]
    print(f"AoS+tuple-sort formatter : {TIMES['fmt_aos']*1e3:8.2f} ms")
    print(f"vectorized, record sort  : {TIMES['fmt_record']*1e3:8.2f} ms")
    print(f"vectorized, 64-bit codec : {TIMES['fmt_codec']*1e3:8.2f} ms")
    print(f"  formatter speedup (codec vs AoS): {fmt_speedup:6.1f}x")
    print(f"  codec vs record sort:             {codec_speedup:6.2f}x "
          f"(paper: 'comparisons halved')")
    print(f"branching embedding gather: {TIMES['gather_branch']*1e3:8.2f} ms")
    print(f"padded block gather       : {TIMES['gather_block']*1e3:8.2f} ms")
    print(f"  granularity speedup: {gather_speedup:6.1f}x")

    # The formatter gain grows with system size (per-record Python overhead
    # vs one vectorized sort); at this 192-atom cell it is a modest win.
    # Wall-clock ratios are median-based and still host-dependent, so the
    # thresholds honor the REPRO_BENCH_STRICT=0 escape hatch for noisy CI.
    if bench_strict():
        assert fmt_speedup > 1.5
        assert codec_speedup > 0.9  # scalar keys at least match record sorting
        assert gather_speedup > 10  # branch removal is the big win
