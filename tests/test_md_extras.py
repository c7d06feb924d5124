"""Tests for the extended MD features: Nosé-Hoover and dynamics
analysis."""

import numpy as np
import pytest

from repro.analysis.dynamics import (
    UnwrappedTrajectory,
    diffusion_coefficient,
    mean_squared_displacement,
    velocity_autocorrelation,
)
from repro.analysis.structures import _FCC_BASIS, fcc_lattice, water_box
from repro.md import (
    NoseHoover,
    Simulation,
    System,
    boltzmann_velocities,
    fitted_neighbor_list,
)
from repro.md.box import Box
from repro.md.lj import LennardJones


def short_argon():
    return LennardJones(epsilon=0.0104, sigma=3.4, cutoff=5.5)


def lj_fcc(n=3, a_lat=5.26, temperature=0.0, seed=0):
    grid = np.stack(
        np.meshgrid(*[np.arange(n)] * 3, indexing="ij"), axis=-1
    ).reshape(-1, 3)
    pos = (grid[:, None, :] + _FCC_BASIS[None]).reshape(-1, 3) * a_lat
    sys = System(
        box=Box([n * a_lat] * 3),
        positions=pos,
        types=np.zeros(len(pos), dtype=np.int64),
        masses=np.array([39.948]),
    )
    if temperature > 0:
        boltzmann_velocities(sys, temperature, seed=seed)
    return sys


class TestNoseHoover:
    def test_reaches_and_holds_target_temperature(self):
        sys = lj_fcc(temperature=20.0, seed=3)
        sim = Simulation(
            sys,
            short_argon(),
            dt=0.002,
            integrator=NoseHoover(temperature=60.0, tau=0.1),
            thermo_every=10,
        )
        sim.run(800)
        temps = sim.thermo.column("temperature")[-20:]
        assert abs(temps.mean() - 60.0) < 10.0

    def test_xi_relaxes_near_zero_at_equilibrium(self):
        sys = lj_fcc(temperature=50.0, seed=4)
        nh = NoseHoover(temperature=50.0, tau=0.1)
        sim = Simulation(sys, short_argon(), dt=0.002, integrator=nh)
        sim.run(300)
        assert abs(nh.xi) < 50.0  # bounded, no runaway


class TestDynamics:
    def test_unwrap_removes_jumps(self):
        box = Box([10.0] * 3)
        traj = UnwrappedTrajectory(box)
        # atom walks across the boundary: 9.5 -> 0.3 is a +0.8 move
        traj.add(np.array([[9.5, 5.0, 5.0]]))
        traj.add(np.array([[0.3, 5.0, 5.0]]))
        arr = traj.as_array()
        assert arr[1, 0, 0] == pytest.approx(10.3)

    def test_msd_of_ballistic_motion_quadratic(self):
        # constant velocity: MSD(t) = v^2 t^2
        frames = np.array([[[0.1 * k, 0, 0]] for k in range(10)])
        msd = mean_squared_displacement(frames)
        t = np.arange(10)
        np.testing.assert_allclose(msd, (0.1 * t) ** 2, atol=1e-12)

    def test_diffusion_coefficient_of_linear_msd(self):
        # MSD = 6 D t exactly
        d_true = 0.25
        dt = 0.1
        t = np.arange(50) * dt
        msd = 6 * d_true * t
        assert diffusion_coefficient(msd, dt) == pytest.approx(d_true)

    def test_diffusion_needs_enough_frames(self):
        with pytest.raises(ValueError, match="few frames"):
            diffusion_coefficient(np.array([0.0, 1.0]), 0.1, fit_from=0.9)

    def test_vacf_starts_at_one_and_decays_for_liquid(self):
        sys = lj_fcc(n=3, temperature=150.0, seed=7)
        sim = Simulation(sys, short_argon(), dt=0.002)
        vels = [sys.velocities.copy()]

        def grab(s):
            vels.append(s.system.velocities.copy())

        sim.run(40, callback=grab)
        vacf = velocity_autocorrelation(vels)
        assert vacf[0] == pytest.approx(1.0)
        assert vacf[-1] < 0.95  # decorrelates

    def test_solid_diffusion_is_small(self):
        """Cold LJ crystal: atoms vibrate but do not diffuse."""
        sys = lj_fcc(temperature=20.0, seed=8)
        sim = Simulation(sys, short_argon(), dt=0.002)
        traj = UnwrappedTrajectory(sys.box)
        traj.add(sys.positions)

        def grab(s):
            if s.step_count % 5 == 0:
                traj.add(s.system.positions)

        sim.run(100, callback=grab)
        msd = mean_squared_displacement(traj.as_array())
        d = diffusion_coefficient(msd, 5 * 0.002)
        assert abs(d) < 0.05  # Å²/ps — essentially zero


class TestSummitEstimate:
    def test_estimate_from_real_run(self):
        from repro.dp.model import DeepPot, DPConfig
        from repro.parallel import DistributedSimulation
        from repro.perfmodel.estimate import estimate_summit_step

        model = DeepPot(DPConfig.tiny())
        sys = water_box((4, 4, 4), seed=0)
        boltzmann_velocities(sys, 300.0, seed=1)
        dist = DistributedSimulation(sys, model, grid=(2, 2, 1), dt=0.0005, skin=1.0)
        dist.run(4)
        est = estimate_summit_step(dist)
        assert est.t_step > 0
        assert est.atoms_per_rank_max >= 48
        assert est.ghosts_per_rank_max > 0
        # latency floor dominates at 48 atoms/rank — the Table 4 small-count
        # regime, observed from a *real* decomposition
        assert est.t_fixed > est.t_compute
