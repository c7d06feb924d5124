"""Tests for the Summit performance model: FLOP counts validated against the
instrumented executor, ghost geometry validated against the real
decomposition, and scaling shapes validated against the paper's tables."""

import numpy as np
import pytest

from repro.analysis.structures import water_box
from repro.dp.model import DeepPot, DPConfig
from repro.md.neighbor import neighbor_pairs
from repro.parallel import DomainDecomposition, SimComm
from repro.perfmodel import (
    COPPER_SPEC,
    SUMMIT,
    WATER_SPEC,
    decompose_gpus,
    dp_flops_per_atom,
    ghost_count,
    step_time,
    strong_scaling,
    table1_rows,
    table4_rows,
    weak_scaling,
)
from repro.perfmodel.flops import gemm_fraction
from repro.perfmodel.scaling import (
    COPPER_STRONG_ATOMS,
    COPPER_WEAK_ATOMS_PER_NODE,
    FIG5_COPPER_NODES,
    FIG5_PAPER_COPPER_DOUBLE,
    FIG5_PAPER_WATER_DOUBLE,
    FIG5_WATER_NODES,
    FIG6_PAPER_COPPER_DOUBLE,
    FIG6_PAPER_WATER_DOUBLE,
    FIG6_WATER_NODES,
    WATER_STRONG_ATOMS,
    WATER_WEAK_ATOMS_PER_NODE,
)


class TestMachine:
    def test_node_peak_matches_paper(self):
        # Sec 6.2: 7*6 + 2*0.5 = 43 TFLOPS per node
        assert SUMMIT.node_peak_fp64() == pytest.approx(43e12, rel=1e-3)

    def test_full_machine_peak(self):
        # ~200 PFLOPS quoted for 4608 nodes
        assert SUMMIT.peak_fp64(4608) == pytest.approx(198e15, rel=0.02)

    def test_unknown_precision_raises(self):
        with pytest.raises(ValueError):
            SUMMIT.gpu_peak("half")


class TestFlops:
    def test_water_flops_match_paper_quote(self):
        """Sec 6.1: 124.83 PFLOPs for 500 steps (501 evals) of 12,582,912
        atoms -> 1.98e7 FLOPs/atom/step."""
        per_atom = dp_flops_per_atom(DPConfig.paper_water()).per_step()
        paper = 124.83e15 / 501 / 12_582_912
        assert per_atom == pytest.approx(paper, rel=0.15)

    def test_copper_flops_match_paper_quote(self):
        """Sec 6.1: 835.53 PFLOPs for 500 steps of 25,739,424 atoms."""
        per_atom = dp_flops_per_atom(DPConfig.paper_copper()).per_step()
        paper = 835.53e15 / 501 / 25_739_424
        assert per_atom == pytest.approx(paper, rel=0.25)

    def test_copper_to_water_ratio(self):
        """Sec 6.1: copper is ~3.5x water per atom (larger neighbor count)."""
        ratio = (
            dp_flops_per_atom(DPConfig.paper_copper()).per_step()
            / dp_flops_per_atom(DPConfig.paper_water()).per_step()
        )
        assert 2.5 < ratio < 4.0

    def test_analytic_count_matches_executor(self):
        """The forward FLOPs agree with the tfmini profiler's counted FLOPs."""
        import repro.tfmini as tf

        cfg = DPConfig.tiny()
        model = DeepPot(cfg)
        sys = water_box((3, 3, 3), seed=0)
        pi, pj = neighbor_pairs(sys, cfg.rcut)
        model.session = tf.Session(profile=True)
        model.evaluate(sys, pi, pj)
        counted = model.session.stats.total_flops()
        analytic = dp_flops_per_atom(cfg)
        # full graph = forward + backward-to-R~ + prod ops; compare against
        # forward*(1+backward) without the instruction-mix calibration
        expected = analytic.forward * (1 + 2.0) * sys.n_atoms
        assert counted == pytest.approx(expected, rel=0.45)

    def test_gemm_fraction_dominant_for_both_systems(self):
        """Fig 3: GEMM dominates the op mix (63% water / 74% copper by time;
        by FLOPs the share is higher still).  The measured time breakdown is
        produced by benchmarks/test_fig3_op_breakdown.py; here we check the
        analytic FLOP share is GEMM-dominated and sane."""
        fw = gemm_fraction(DPConfig.paper_water())
        fc = gemm_fraction(DPConfig.paper_copper())
        assert 0.6 < fw < 0.99
        assert 0.6 < fc < 0.99


class TestGhostGeometry:
    def test_decompose_gpus_factors(self):
        for n in (6, 480, 27360, 17):
            px, py, pz = decompose_gpus(n)
            assert px * py * pz == n

    def test_near_cubic(self):
        px, py, pz = decompose_gpus(512)
        assert sorted((px, py, pz)) == [8, 8, 8]

    def test_table4_ghost_counts_within_a_few_percent(self):
        from repro.perfmodel.scaling import TABLE4_PAPER

        for gpus, paper in TABLE4_PAPER.items():
            model = ghost_count(12_582_912, gpus, WATER_SPEC)
            assert model == pytest.approx(paper[1], rel=0.08), gpus

    def test_ghost_geometry_matches_real_decomposition(self):
        """Analytic shell volume vs actual ghost atoms from repro.parallel.

        The shell formula assumes the ghost shell does not wrap onto itself,
        so the box must be comfortably larger than domain + 2*cutoff."""
        sys = water_box((8, 8, 8), seed=0)  # 1536 atoms, 24.8 Å box
        comm = SimComm(8)
        decomp = DomainDecomposition((2, 2, 2), comm)
        decomp.assign_atoms(sys)
        gc = 3.0
        decomp.build_ghost_lists(sys.box, gc)
        real = decomp.ghost_counts().mean()

        spec_like = WATER_SPEC.__class__(
            name="test",
            flops_per_atom_step=1.0,
            number_density=sys.n_atoms / sys.box.volume,
            ghost_cutoff=gc,
            gemm_efficiency=0.4,
            timestep_fs=0.5,
        )
        analytic = ghost_count(sys.n_atoms, 8, spec_like)
        assert analytic == pytest.approx(real, rel=0.25)


class TestStepTime:
    def test_components_positive_and_sum(self):
        parts = step_time(12_582_912, 480, WATER_SPEC)
        comp_sum = (
            parts["t_compute"] + parts["t_fixed"] + parts["t_ghost"] + parts["t_comm"]
        )
        assert parts["t_step"] == pytest.approx(comp_sum)
        assert all(parts[k] > 0 for k in ("t_compute", "t_fixed", "t_ghost", "t_comm"))

    def test_compute_dominates_at_large_atoms_per_gpu(self):
        parts = step_time(12_582_912, 480, WATER_SPEC)
        assert parts["t_compute"] > 0.8 * parts["t_step"]

    def test_overhead_dominates_at_small_atoms_per_gpu(self):
        parts = step_time(12_582_912, 27360, WATER_SPEC)
        assert parts["t_compute"] < 0.5 * parts["t_step"]

    def test_mixed_precision_speedup_about_1_5x(self):
        d = step_time(25_739_424, 3420, COPPER_SPEC, "double")
        m = step_time(25_739_424, 3420, COPPER_SPEC, "mixed")
        assert 1.3 < d["t_step"] / m["t_step"] < 1.8


class TestScalingShapes:
    def test_table4_matches_paper_within_tolerance(self):
        for row in table4_rows():
            paper = row["paper"]
            assert row["md_loop_time"] == pytest.approx(paper[2], rel=0.20)
            assert row["efficiency"] == pytest.approx(paper[3], abs=0.06)
            assert row["pflops"] == pytest.approx(paper[4], rel=0.15)
            assert row["percent_peak"] == pytest.approx(paper[5], rel=0.20)

    def test_table4_efficiency_collapses_below_1000_atoms(self):
        rows = table4_rows()
        big = [r for r in rows if r["atoms_per_gpu"] > 10000]
        small = [r for r in rows if r["atoms_per_gpu"] < 1000]
        assert all(r["efficiency"] > 0.9 for r in big)
        assert all(r["efficiency"] < 0.6 for r in small)

    def test_fig5_water_strong_scaling(self):
        pts = strong_scaling(WATER_SPEC, WATER_STRONG_ATOMS, FIG5_WATER_NODES)
        for p in pts:
            ref_pflops, ref_ms = FIG5_PAPER_WATER_DOUBLE[p.n_nodes]
            assert p.pflops == pytest.approx(ref_pflops, rel=0.20), p.n_nodes
            assert p.t_step * 1e3 == pytest.approx(ref_ms, rel=0.25), p.n_nodes

    def test_fig5_copper_strong_scaling(self):
        pts = strong_scaling(COPPER_SPEC, COPPER_STRONG_ATOMS, FIG5_COPPER_NODES)
        for p in pts:
            ref_pflops, ref_ms = FIG5_PAPER_COPPER_DOUBLE[p.n_nodes]
            assert p.pflops == pytest.approx(ref_pflops, rel=0.20), p.n_nodes
        # copper keeps >70% efficiency at full machine (paper: 81.6%)
        assert pts[-1].efficiency > 0.70

    def test_fig6_weak_scaling_is_linear(self):
        for spec, per_node, refs in (
            (WATER_SPEC, WATER_WEAK_ATOMS_PER_NODE, FIG6_PAPER_WATER_DOUBLE),
            (COPPER_SPEC, COPPER_WEAK_ATOMS_PER_NODE, FIG6_PAPER_COPPER_DOUBLE),
        ):
            pts = weak_scaling(spec, per_node, FIG6_WATER_NODES)
            for p in pts:
                assert p.pflops == pytest.approx(refs[p.n_nodes], rel=0.12)
                assert p.efficiency > 0.97  # near-perfect weak scaling

    def test_mixed_beats_double_everywhere(self):
        d = weak_scaling(COPPER_SPEC, COPPER_WEAK_ATOMS_PER_NODE, FIG6_WATER_NODES)
        m = weak_scaling(
            COPPER_SPEC, COPPER_WEAK_ATOMS_PER_NODE, FIG6_WATER_NODES, "mixed"
        )
        for pd, pm in zip(d, m):
            assert 1.3 < pd.t_step / pm.t_step < 1.8

    def test_headline_time_to_solution(self):
        """The abstract's claims: 7.3e-10 s/step/atom for 113M Cu; ns/day."""
        rows = table1_rows()
        cu = next(r for r in rows if r["system"] == "Cu")
        assert cu["tts_model"] == pytest.approx(7.3e-10, rel=0.15)
        h2o = next(r for r in rows if r["system"] == "H2O")
        assert h2o["tts_model"] == pytest.approx(2.7e-10, rel=0.15)

    def test_nanosecond_per_day_claim(self):
        """113M-atom copper: 1 ns in <= ~1 day (paper: 23 h double)."""
        pts = strong_scaling(COPPER_SPEC, 113_246_208, [4560])
        hours_per_ns = pts[0].t_step * 1e6 / 3600  # 1e6 steps at 1 fs
        assert 15 < hours_per_ns < 30

    def test_thousandfold_improvement_over_prior_art(self):
        """The justification claim: >1000x vs state of the art (CONQUEST)."""
        rows = table1_rows()
        cu = next(r for r in rows if r["system"] == "Cu")
        conquest_tts = 4.0e-3
        assert conquest_tts / cu["tts_model"] > 1000


class TestLatencyAblation:
    def test_latency_reduction_lifts_strong_scaling(self):
        """Sec 8.2: 'reducing the latency of GPU and network ... required to
        achieve better strong scaling' — quantified by the cost model."""
        from repro.perfmodel.scaling import latency_sensitivity

        rows = latency_sensitivity()
        pflops = [r["pflops"] for r in rows]
        assert pflops == sorted(pflops)  # lower latency -> higher PFLOPS
        # a 10x latency cut more than doubles full-machine water PFLOPS
        assert pflops[-1] / pflops[0] > 1.8
