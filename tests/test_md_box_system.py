"""Unit tests for the periodic box and the System container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md.box import Box
from repro.md.system import System
from repro.units import KB, MVV_TO_EV


class TestBox:
    def test_volume(self):
        assert Box([2.0, 3.0, 4.0]).volume == pytest.approx(24.0)

    def test_invalid_lengths_raise(self):
        with pytest.raises(ValueError):
            Box([1.0, -1.0, 1.0])

    def test_wrap_into_primary_cell(self):
        box = Box([10.0, 10.0, 10.0])
        wrapped = box.wrap(np.array([[11.0, -1.0, 25.0]]))
        np.testing.assert_allclose(wrapped, [[1.0, 9.0, 5.0]])

    def test_minimum_image_halves(self):
        box = Box([10.0, 10.0, 10.0])
        d = box.minimum_image(np.array([6.0, -6.0, 4.0]))
        np.testing.assert_allclose(d, [-4.0, 4.0, 4.0])

    @pytest.mark.parametrize("shape", [(3,), (257, 3), (16, 9, 3), (0, 3)])
    def test_fold_minimum_image_is_minimum_image_in_place(self, shape):
        """The per-step in-place form rounds exactly like the allocating
        one — half-box ties and signed zeros included."""
        box = Box([8.0, 10.5, 12.25])
        disp = np.random.default_rng(len(shape)).normal(scale=15.0, size=shape)
        disp.reshape(-1)[::7] = 0.5 * box.lengths[0]
        disp.reshape(-1)[1::11] = -0.0
        want = box.minimum_image(disp)
        box.fold_minimum_image(disp)
        assert disp.tobytes() == want.tobytes()

    def test_displacement_accounts_for_pbc(self):
        box = Box([10.0, 10.0, 10.0])
        d = box.displacement(np.array([9.5, 0, 0]), np.array([0.5, 0, 0]))
        np.testing.assert_allclose(d, [1.0, 0.0, 0.0])

    def test_check_cutoff(self):
        box = Box([10.0, 10.0, 10.0])
        box.check_cutoff(5.0)  # exactly half is allowed
        with pytest.raises(ValueError, match="minimum-image"):
            box.check_cutoff(5.1)

    def test_scaled_copy_is_independent(self):
        box = Box([1.0, 1.0, 1.0])
        big = box.scaled([2.0, 1.0, 1.0])
        assert big.lengths[0] == 2.0
        assert box.lengths[0] == 1.0

    @given(
        coords=st.lists(
            st.floats(-100, 100, allow_nan=False), min_size=3, max_size=3
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_property_wrap_idempotent_and_in_range(self, coords):
        box = Box([7.3, 9.1, 11.7])
        p = np.array([coords])
        w = box.wrap(p)
        assert np.all(w >= 0) and np.all(w < box.lengths + 1e-12)
        np.testing.assert_allclose(box.wrap(w), w, atol=1e-12)

    @given(
        coords=st.lists(st.floats(-30, 30, allow_nan=False), min_size=3, max_size=3)
    )
    @settings(max_examples=50, deadline=None)
    def test_property_minimum_image_within_half_box(self, coords):
        box = Box([8.0, 10.0, 12.0])
        d = box.minimum_image(np.array(coords))
        assert np.all(np.abs(d) <= box.lengths / 2 + 1e-9)


class TestSystem:
    def _system(self, n=4):
        rng = np.random.default_rng(0)
        return System(
            box=Box([10.0, 10.0, 10.0]),
            positions=rng.uniform(0, 10, size=(n, 3)),
            types=np.zeros(n, dtype=np.int64),
            masses=np.array([12.0]),
        )

    def test_shapes_validated(self):
        with pytest.raises(ValueError):
            System(Box([1, 1, 1]), np.zeros((3, 2)), np.zeros(3, int), np.ones(1))

    def test_type_index_validated(self):
        with pytest.raises(ValueError, match="type index"):
            System(Box([1, 1, 1]), np.zeros((2, 3)), np.array([0, 5]), np.ones(1))

    def test_default_velocities_zero(self):
        sys = self._system()
        assert np.all(sys.velocities == 0)
        assert sys.kinetic_energy() == 0.0

    def test_kinetic_energy_formula(self):
        sys = self._system(2)
        sys.velocities = np.array([[1.0, 0, 0], [0, 2.0, 0]])
        expected = 0.5 * MVV_TO_EV * 12.0 * (1.0 + 4.0)
        assert sys.kinetic_energy() == pytest.approx(expected)

    def test_temperature_consistency(self):
        sys = self._system(100)
        rng = np.random.default_rng(1)
        sys.velocities = rng.normal(size=(100, 3))
        ke = sys.kinetic_energy()
        n_dof = 3 * 100 - 3
        assert sys.temperature() == pytest.approx(2 * ke / (n_dof * KB))

    def test_copy_is_deep(self):
        sys = self._system()
        cp = sys.copy()
        cp.positions[0, 0] += 1.0
        cp.box.lengths[0] = 99.0
        assert sys.positions[0, 0] != cp.positions[0, 0]
        assert sys.box.lengths[0] == 10.0

    def test_type_counts(self):
        sys = System(
            Box([5, 5, 5]),
            np.zeros((3, 3)),
            np.array([0, 1, 1]),
            np.array([16.0, 1.0]),
        )
        np.testing.assert_array_equal(sys.type_counts(), [1, 2])
