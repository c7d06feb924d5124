"""Tests for the DP model: environment matrix, custom ops, symmetries,
force/virial consistency, mixed precision, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.structures import water_box, fcc_lattice
from repro.dp.env_mat import env_rows, smooth_weight
from repro.dp.model import DeepPot, DPConfig
from repro.dp.nlist_fmt import format_neighbors
from repro.dp.ops_baseline import (
    environment_baseline,
    prod_force_baseline,
    prod_virial_baseline,
)
from repro.dp.ops_optimized import environment_op, prod_force_op, prod_virial_op
from repro.dp.pair import DeepPotPair
from repro.dp.serialize import load_model, model_bytes, model_from_bytes, save_model
from repro.md.neighbor import neighbor_pairs


@pytest.fixture(scope="module")
def tiny_model():
    return DeepPot(DPConfig.tiny())


@pytest.fixture(scope="module")
def small_water():
    return water_box((3, 3, 3), seed=0)


def pairs_for(sys, cfg):
    return neighbor_pairs(sys, cfg.rcut)


class TestSmoothing:
    def test_inverse_r_below_smth(self):
        s, ds = smooth_weight(np.array([1.0]), 2.0, 4.0)
        assert s[0] == pytest.approx(1.0)
        assert ds[0] == pytest.approx(-1.0)

    def test_zero_beyond_cutoff(self):
        s, ds = smooth_weight(np.array([4.5]), 2.0, 4.0)
        assert s[0] == 0.0 and ds[0] == 0.0

    def test_zero_distance_is_padded_slot(self):
        s, ds = smooth_weight(np.array([0.0]), 2.0, 4.0)
        assert s[0] == 0.0 and ds[0] == 0.0

    def test_continuity_at_cutoff(self):
        eps = 1e-7
        s, _ = smooth_weight(np.array([4.0 - eps]), 2.0, 4.0)
        assert abs(s[0]) < 1e-10

    @given(r=st.floats(0.3, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_property_derivative_matches_fd(self, r):
        if abs(r - 2.0) < 1e-4 or abs(r - 4.0) < 1e-4:
            return  # C^2 joins: FD noise at the seams
        h = 1e-7
        sp, _ = smooth_weight(np.array([r + h]), 2.0, 4.0)
        sm, _ = smooth_weight(np.array([r - h]), 2.0, 4.0)
        _, ds = smooth_weight(np.array([r]), 2.0, 4.0)
        assert ds[0] == pytest.approx((sp[0] - sm[0]) / (2 * h), rel=1e-4, abs=1e-6)

    @given(r=st.floats(0.1, 6.0))
    @settings(max_examples=40, deadline=None)
    def test_property_monotone_decreasing(self, r):
        s, _ = smooth_weight(np.array([r, r + 0.01]), 0.5, 4.0)
        assert s[0] >= s[1] - 1e-12


class TestEnvRows:
    def test_row_structure(self):
        d = np.array([[1.5, 0.0, 0.0]])
        rows, deriv, r = env_rows(d, 2.0, 4.0)
        assert r[0] == pytest.approx(1.5)
        s = 1.0 / 1.5
        np.testing.assert_allclose(rows[0], [s, s, 0.0, 0.0])

    def test_zero_displacement_row_is_zero(self):
        rows, deriv, _ = env_rows(np.zeros((1, 3)), 2.0, 4.0)
        assert np.all(rows == 0) and np.all(deriv == 0)

    @given(
        seed=st.integers(0, 10**6),
        scale=st.floats(0.5, 3.5),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_deriv_matches_fd(self, seed, scale):
        rng = np.random.default_rng(seed)
        d = rng.normal(size=3)
        d = d / np.linalg.norm(d) * scale
        rows, deriv, _ = env_rows(d[None], 2.0, 4.0)
        h = 1e-7
        for k in range(3):
            dp = d.copy()
            dp[k] += h
            dm = d.copy()
            dm[k] -= h
            rp, _, _ = env_rows(dp[None], 2.0, 4.0)
            rm, _, _ = env_rows(dm[None], 2.0, 4.0)
            num = (rp[0] - rm[0]) / (2 * h)
            np.testing.assert_allclose(deriv[0, :, k], num, rtol=1e-5, atol=1e-7)


class TestCustomOpsEquivalence:
    """Baseline (looped/AoS) and optimized (vectorized/SoA) ops must agree."""

    def _setup(self, sys, cfg):
        pi, pj = pairs_for(sys, cfg)
        fmt = format_neighbors(sys, pi, pj, cfg.rcut, cfg.sel)
        return fmt

    def test_environment_equivalence(self, small_water):
        cfg = DPConfig.tiny()
        fmt = self._setup(small_water, cfg)
        em_o, ed_o, rij_o = environment_op(small_water, fmt, cfg.rcut_smth, cfg.rcut)
        em_b, ed_b, rij_b = environment_baseline(
            small_water, fmt, cfg.rcut_smth, cfg.rcut
        )
        np.testing.assert_allclose(em_o, em_b, atol=1e-14)
        np.testing.assert_allclose(ed_o, ed_b, atol=1e-14)
        np.testing.assert_allclose(rij_o, rij_b, atol=1e-14)

    def test_prod_force_equivalence(self, small_water):
        cfg = DPConfig.tiny()
        fmt = self._setup(small_water, cfg)
        em, ed, rij = environment_op(small_water, fmt, cfg.rcut_smth, cfg.rcut)
        rng = np.random.default_rng(0)
        nd = rng.normal(size=em.shape)
        idx = np.arange(small_water.n_atoms)
        f_o = prod_force_op(nd, ed, fmt.nlist, idx, small_water.n_atoms)
        f_b = prod_force_baseline(nd, ed, fmt.nlist, idx, small_water.n_atoms)
        np.testing.assert_allclose(f_o, f_b, atol=1e-12)

    def test_prod_virial_equivalence(self, small_water):
        cfg = DPConfig.tiny()
        fmt = self._setup(small_water, cfg)
        em, ed, rij = environment_op(small_water, fmt, cfg.rcut_smth, cfg.rcut)
        rng = np.random.default_rng(1)
        nd = rng.normal(size=em.shape)
        w_o = prod_virial_op(nd, ed, rij, fmt.nlist)
        w_b = prod_virial_baseline(nd, ed, rij, fmt.nlist)
        np.testing.assert_allclose(w_o, w_b, atol=1e-12)


class TestModelPhysics:
    def test_forces_are_gradient(self, tiny_model, small_water):
        cfg = tiny_model.config
        pi, pj = pairs_for(small_water, cfg)
        res = tiny_model.evaluate(small_water, pi, pj)
        eps = 1e-5
        sys = small_water.copy()
        for atom, comp in [(0, 0), (11, 2), (50, 1)]:
            p0 = sys.positions[atom, comp]
            sys.positions[atom, comp] = p0 + eps
            a, b = pairs_for(sys, cfg)
            ep = tiny_model.evaluate(sys, a, b).energy
            sys.positions[atom, comp] = p0 - eps
            a, b = pairs_for(sys, cfg)
            em = tiny_model.evaluate(sys, a, b).energy
            sys.positions[atom, comp] = p0
            assert res.forces[atom, comp] == pytest.approx(
                -(ep - em) / (2 * eps), rel=1e-5, abs=1e-8
            )

    def test_forces_sum_to_zero(self, tiny_model, small_water):
        pi, pj = pairs_for(small_water, tiny_model.config)
        res = tiny_model.evaluate(small_water, pi, pj)
        np.testing.assert_allclose(res.forces.sum(axis=0), 0, atol=1e-12)

    def test_permutation_invariance(self, tiny_model, small_water):
        pi, pj = pairs_for(small_water, tiny_model.config)
        res = tiny_model.evaluate(small_water, pi, pj)
        rng = np.random.default_rng(4)
        perm = rng.permutation(small_water.n_atoms)
        shuffled = small_water.copy()
        shuffled.positions = small_water.positions[perm]
        shuffled.types = small_water.types[perm]
        a, b = pairs_for(shuffled, tiny_model.config)
        res2 = tiny_model.evaluate(shuffled, a, b)
        assert res2.energy == pytest.approx(res.energy, rel=1e-12)
        np.testing.assert_allclose(res2.forces, res.forces[perm], atol=1e-12)

    def test_rotation_invariance(self, tiny_model, small_water):
        """90° rotation about z maps the cubic box onto itself."""
        pi, pj = pairs_for(small_water, tiny_model.config)
        res = tiny_model.evaluate(small_water, pi, pj)
        rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        rotated = small_water.copy()
        rotated.positions = rotated.box.wrap(small_water.positions @ rot.T)
        a, b = pairs_for(rotated, tiny_model.config)
        res2 = tiny_model.evaluate(rotated, a, b)
        assert res2.energy == pytest.approx(res.energy, rel=1e-12)
        np.testing.assert_allclose(res2.forces, res.forces @ rot.T, atol=1e-10)

    def test_translation_invariance(self, tiny_model, small_water):
        pi, pj = pairs_for(small_water, tiny_model.config)
        e0 = tiny_model.evaluate(small_water, pi, pj).energy
        moved = small_water.copy()
        moved.positions = moved.box.wrap(moved.positions + np.array([1.1, -0.4, 2.2]))
        a, b = pairs_for(moved, tiny_model.config)
        assert tiny_model.evaluate(moved, a, b).energy == pytest.approx(e0, rel=1e-12)

    def test_virial_matches_volume_derivative(self, tiny_model, small_water):
        cfg = tiny_model.config
        pi, pj = pairs_for(small_water, cfg)
        res = tiny_model.evaluate(small_water, pi, pj)

        def energy_at(scale):
            s = small_water.copy()
            s.positions = s.positions * scale
            s.box = s.box.scaled([scale] * 3)
            a, b = pairs_for(s, cfg)
            return tiny_model.evaluate(s, a, b).energy

        h = 1e-6
        num = -(energy_at(1 + h) - energy_at(1 - h)) / (2 * h)
        assert np.trace(res.virial) == pytest.approx(num, rel=1e-4, abs=1e-8)

    def test_atom_energies_sum_to_total(self, tiny_model, small_water):
        pi, pj = pairs_for(small_water, tiny_model.config)
        res = tiny_model.evaluate(small_water, pi, pj)
        assert res.atom_energies.sum() == pytest.approx(res.energy, rel=1e-12)

    def test_baseline_backend_equals_optimized(self, tiny_model, small_water):
        pi, pj = pairs_for(small_water, tiny_model.config)
        opt = tiny_model.evaluate(small_water, pi, pj)
        # Table 3's unoptimized operator lives on the reference path only.
        base = tiny_model.evaluate_serial(small_water, pi, pj, backend="baseline")
        assert base.energy == pytest.approx(opt.energy, rel=1e-12)
        np.testing.assert_allclose(base.forces, opt.forces, atol=1e-12)
        np.testing.assert_allclose(base.virial, opt.virial, atol=1e-12)

    def test_energy_bias_applied(self, small_water):
        model = DeepPot(DPConfig.tiny())
        pi, pj = pairs_for(small_water, model.config)
        e_before = model.evaluate(small_water, pi, pj).energy
        bias = np.array([-1.0, -0.5])
        model.set_stats(model.davg, model.dstd, bias)
        e_after = model.evaluate(small_water, pi, pj).energy
        counts = small_water.type_counts()
        assert e_after - e_before == pytest.approx(counts @ bias, rel=1e-12)

    def test_monatomic_copper_config(self):
        # fcc at a=3.615 has 12+6+24=42 neighbors within 5 Å; sel=48 keeps all
        cfg = DPConfig.tiny(type_names=("Cu",), sel=(48,), rcut=5.0)
        model = DeepPot(cfg)
        sys = fcc_lattice((3, 3, 3))
        pi, pj = neighbor_pairs(sys, cfg.rcut)
        res = model.evaluate(sys, pi, pj)
        assert np.isfinite(res.energy)
        # perfect lattice: forces vanish by symmetry
        assert np.abs(res.forces).max() < 1e-9

    def test_sel_overflow_breaks_symmetry_slightly(self):
        """The Sec 5.2.1 caveat: when a type block overflows sel, ties among
        dropped equidistant shells break the lattice symmetry — the forces
        are tiny (the dropped neighbors sit near the smooth cutoff) but
        nonzero.  This is the artifact distance-sorting minimizes."""
        cfg = DPConfig.tiny(type_names=("Cu",), sel=(24,), rcut=5.0)
        model = DeepPot(cfg)
        sys = fcc_lattice((3, 3, 3))
        pi, pj = neighbor_pairs(sys, cfg.rcut)
        res = model.evaluate(sys, pi, pj)
        fmax = np.abs(res.forces).max()
        assert 0.0 < fmax < 1e-3


class TestMixedPrecision:
    def test_mixed_matches_double_within_tolerance(self, small_water):
        """The Sec 7.1.3 check: energy and force deviations are small."""
        double = DeepPot(DPConfig.tiny(precision="double"))
        mixed = DeepPot(DPConfig.tiny(precision="mixed"))
        # identical parameters (mixed stores them in fp32)
        for vd, vm in zip(double.trainable_variables(), mixed.trainable_variables()):
            vm.assign(vd.value.astype(np.float32))
        pi, pj = pairs_for(small_water, double.config)
        rd = double.evaluate(small_water, pi, pj)
        rm = mixed.evaluate(small_water, pi, pj)
        n_mol = small_water.n_atoms // 3
        de_per_mol = abs(rd.energy - rm.energy) / n_mol
        f_rmsd = float(np.sqrt(np.mean((rd.forces - rm.forces) ** 2)))
        assert de_per_mol < 5e-3  # eV/molecule; paper: 0.32 meV on trained model
        assert f_rmsd < 5e-2  # eV/Å; paper: 0.029

    def test_mixed_outputs_are_float64(self, small_water):
        mixed = DeepPot(DPConfig.tiny(precision="mixed"))
        pi, pj = pairs_for(small_water, mixed.config)
        res = mixed.evaluate(small_water, pi, pj)
        assert res.forces.dtype == np.float64

    def test_mixed_params_are_float32_and_half_memory(self):
        double = DeepPot(DPConfig.tiny(precision="double"))
        mixed = DeepPot(DPConfig.tiny(precision="mixed"))
        assert all(v.value.dtype == np.float32 for v in mixed.trainable_variables())
        assert mixed.param_nbytes() * 2 == double.param_nbytes()

    def test_invalid_precision_rejected(self):
        with pytest.raises(ValueError, match="precision"):
            DPConfig(precision="half")


class TestSerialization:
    def test_roundtrip_through_file(self, tmp_path, small_water):
        model = DeepPot(DPConfig.tiny(seed=9))
        model.set_stats(
            np.random.default_rng(0).normal(size=(2, 4)) * 0.1,
            np.abs(np.random.default_rng(1).normal(size=(2, 4))) + 0.5,
            np.array([-2.0, -1.0]),
        )
        path = str(tmp_path / "model.npz")
        save_model(model, path)
        loaded = load_model(path)
        pi, pj = pairs_for(small_water, model.config)
        a = model.evaluate(small_water, pi, pj)
        b = loaded.evaluate(small_water, pi, pj)
        assert b.energy == pytest.approx(a.energy, rel=1e-12)
        np.testing.assert_allclose(b.forces, a.forces, atol=1e-14)

    def test_roundtrip_through_bytes(self, small_water):
        model = DeepPot(DPConfig.tiny(seed=11))
        blob = model_bytes(model)
        loaded = model_from_bytes(blob)
        pi, pj = pairs_for(small_water, model.config)
        a = model.evaluate(small_water, pi, pj)
        b = loaded.evaluate(small_water, pi, pj)
        assert b.energy == pytest.approx(a.energy, rel=1e-12)

    def test_config_preserved(self, tmp_path):
        cfg = DPConfig.tiny(precision="mixed", sel=(10, 20))
        model = DeepPot(cfg)
        path = str(tmp_path / "m.npz")
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config.precision == "mixed"
        assert loaded.config.sel == (10, 20)


class TestPairAdapter:
    def test_cutoff_mirrors_model(self, tiny_model):
        pair = DeepPotPair(tiny_model)
        assert pair.cutoff == tiny_model.config.rcut

    def test_compute_matches_evaluate(self, tiny_model, small_water):
        pair = DeepPotPair(tiny_model)
        pi, pj = pairs_for(small_water, tiny_model.config)
        a = pair.compute(small_water, pi, pj)
        b = tiny_model.evaluate(small_water, pi, pj)
        assert a.energy == pytest.approx(b.energy, rel=1e-14)
