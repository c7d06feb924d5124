"""Property-based tests of the DP model's physical invariants on *random*
systems — hypothesis drives compositions, densities and transformations.

These are the symmetry guarantees Sec 5.2.1 leans on ("the descriptors are
permutationally invariant") plus the exactness contracts the custom-operator
optimizations must preserve.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dp.model import DeepPot, DPConfig
from repro.md.box import Box
from repro.md.neighbor import neighbor_pairs
from repro.md.system import System

# One model reused across examples (hypothesis runs many cases; building a
# graph per case would dominate).
_MODEL = DeepPot(DPConfig.tiny(seed=99))
_RCUT = _MODEL.config.rcut

# The three 90°-rotation generators about the axes map a cubic box onto
# itself, so they are exact symmetries of the periodic system.
_ROT90 = [
    np.array([[1.0, 0, 0], [0, 0, -1.0], [0, 1.0, 0]]),
    np.array([[0, 0, 1.0], [0, 1.0, 0], [-1.0, 0, 0]]),
    np.array([[0, -1.0, 0], [1.0, 0, 0], [0, 0, 1.0]]),
]


def random_system(seed: int, n_atoms: int, box_len: float) -> System:
    rng = np.random.default_rng(seed)
    return System(
        box=Box([box_len] * 3),
        positions=rng.uniform(0, box_len, size=(n_atoms, 3)),
        types=rng.integers(0, 2, size=n_atoms),
        masses=np.array([16.0, 1.0]),
        type_names=["O", "H"],
    )


def evaluate(system: System):
    pi, pj = neighbor_pairs(system, _RCUT)
    return _MODEL.evaluate(system, pi, pj)


class TestSymmetryProperties:
    @given(seed=st.integers(0, 10**6), n=st.integers(4, 40))
    @settings(max_examples=15, deadline=None)
    def test_permutation_invariance(self, seed, n):
        sys_a = random_system(seed, n, 11.0)
        res_a = evaluate(sys_a)
        perm = np.random.default_rng(seed + 1).permutation(n)
        sys_b = sys_a.copy()
        sys_b.positions = sys_a.positions[perm]
        sys_b.types = sys_a.types[perm]
        res_b = evaluate(sys_b)
        assert res_b.energy == pytest.approx(res_a.energy, rel=1e-10, abs=1e-12)
        np.testing.assert_allclose(res_b.forces, res_a.forces[perm], atol=1e-10)

    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(4, 30),
        axis=st.integers(0, 2),
    )
    @settings(max_examples=15, deadline=None)
    def test_rotation_equivariance(self, seed, n, axis):
        rot = _ROT90[axis]
        sys_a = random_system(seed, n, 11.0)
        res_a = evaluate(sys_a)
        sys_b = sys_a.copy()
        sys_b.positions = sys_b.box.wrap(sys_a.positions @ rot.T)
        res_b = evaluate(sys_b)
        assert res_b.energy == pytest.approx(res_a.energy, rel=1e-10, abs=1e-12)
        np.testing.assert_allclose(res_b.forces, res_a.forces @ rot.T, atol=1e-9)

    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(4, 30),
        shift=st.lists(st.floats(-8, 8), min_size=3, max_size=3),
    )
    @settings(max_examples=15, deadline=None)
    def test_translation_invariance(self, seed, n, shift):
        sys_a = random_system(seed, n, 11.0)
        res_a = evaluate(sys_a)
        sys_b = sys_a.copy()
        sys_b.positions = sys_b.box.wrap(sys_a.positions + np.asarray(shift))
        res_b = evaluate(sys_b)
        assert res_b.energy == pytest.approx(res_a.energy, rel=1e-10, abs=1e-12)
        np.testing.assert_allclose(res_b.forces, res_a.forces, atol=1e-9)

    @given(seed=st.integers(0, 10**6), n=st.integers(4, 30))
    @settings(max_examples=10, deadline=None)
    def test_newton_third_law(self, seed, n):
        res = evaluate(random_system(seed, n, 11.0))
        np.testing.assert_allclose(res.forces.sum(axis=0), 0.0, atol=1e-11)

    @given(seed=st.integers(0, 10**6), n=st.integers(4, 25))
    @settings(max_examples=10, deadline=None)
    def test_backends_bit_compatible(self, seed, n):
        """The baseline (looped) and optimized (vectorized) operator sets
        agree on arbitrary random inputs — the Table 3 optimizations change
        time, never physics."""
        sysr = random_system(seed, n, 11.0)
        pi, pj = neighbor_pairs(sysr, _RCUT)
        opt = _MODEL.evaluate(sysr, pi, pj)
        base = _MODEL.evaluate_serial(sysr, pi, pj, backend="baseline")
        assert base.energy == pytest.approx(opt.energy, rel=1e-13)
        np.testing.assert_allclose(base.forces, opt.forces, atol=1e-12)
        np.testing.assert_allclose(base.virial, opt.virial, atol=1e-12)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=8, deadline=None)
    def test_energy_is_smooth_across_cutoff(self, seed):
        """Moving one atom through r_cut changes E continuously — the
        smoothing function's job, and what padding must not break."""
        rng = np.random.default_rng(seed)
        box = Box([14.0] * 3)
        fixed = np.array([[7.0, 7.0, 7.0]])
        probe_dir = rng.normal(size=3)
        probe_dir /= np.linalg.norm(probe_dir)
        energies = []
        for r in np.linspace(_RCUT - 0.2, _RCUT + 0.2, 21):
            sysr = System(
                box=box,
                positions=np.vstack([fixed, fixed + r * probe_dir]),
                types=np.array([0, 1]),
                masses=np.array([16.0, 1.0]),
            )
            energies.append(evaluate(sysr).energy)
        diffs = np.abs(np.diff(energies))
        assert diffs.max() < 5e-3  # no jump at the cutoff crossing
