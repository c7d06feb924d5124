"""The Environment kernel and the force scatter are bit-stable.

``env_rows`` is written component by component for speed; what it computes
per element — operands, order, rounding — is the broadcast formulation it
replaced, kept here as the reference.  Trajectories depend on that: the
engine's results are compared bitwise against ``DeepPot.evaluate_serial``.
``scatter_forces`` likewise: one ``np.bincount`` per component, against the
two ``np.add.at`` passes it replaced.
"""

import numpy as np
import pytest

from repro.dp.env_mat import env_rows
from repro.dp.nlist_fmt import PAD
from repro.dp.ops_optimized import scatter_forces
from repro.dp.pair import DeepPotPair
from repro.md.neighbor import fitted_neighbor_list
from repro.md.potential import Potential
from repro.md.simulation import Simulation
from repro.md.velocity import boltzmann_velocities

R_SMTH, R_CUT = 2.0, 5.0


def broadcast_reference(disp, r_smth, r_cut):
    """``smooth_weight`` + ``env_rows`` as they stood before the
    component-wise kernel: (..., 3, 3) broadcast temporaries, boolean-mask
    scatters."""
    r = np.sqrt(np.einsum("...i,...i->...", disp, disp))
    safe_r = np.where(r > 0, r, 1.0)
    inv_r = np.where(r > 0, 1.0 / safe_r, 0.0)
    s = inv_r.copy()
    ds = -inv_r * inv_r
    mid = (r >= r_smth) & (r < r_cut)
    u = (r[mid] - r_smth) / (r_cut - r_smth)
    sw = u**3 * (-6.0 * u**2 + 15.0 * u - 10.0) + 1.0
    dsw = -30.0 * u**2 * (u - 1.0) ** 2 / (r_cut - r_smth)
    s[mid] = inv_r[mid] * sw
    ds[mid] = -inv_r[mid] ** 2 * sw + inv_r[mid] * dsw
    for dead in (r >= r_cut, r <= 0):
        s[dead] = 0.0
        ds[dead] = 0.0

    u = disp / safe_r[..., None]
    u = np.where(r[..., None] > 0, u, 0.0)
    rows = np.empty(disp.shape[:-1] + (4,))
    rows[..., 0] = s
    rows[..., 1:] = s[..., None] * u
    deriv = np.zeros(disp.shape[:-1] + (4, 3))
    deriv[..., 0, :] = ds[..., None] * u
    s_over_r = np.where(r > 0, s / safe_r, 0.0)
    deriv[..., 1:, :] = (
        ds[..., None, None] * u[..., :, None] * u[..., None, :]
        + s_over_r[..., None, None]
        * (np.eye(3) - u[..., :, None] * u[..., None, :])
    )
    deriv *= ((r > 0) & (r < r_cut))[..., None, None]
    return rows, deriv, r


def assert_same_bits(got, want):
    """array_equal, and the zeros carry the same sign."""
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()


def branch_covering_disp(shape, seed):
    """Displacements of the given (..., 3) shape with every branch present:
    padded (all-zero) rows, signed zeros, r < r_smth, the switch region, its
    two edges exactly, and r >= r_cut."""
    rng = np.random.default_rng(seed)
    disp = rng.normal(size=shape)
    flat = disp.reshape(-1, 3)  # a view: disp is fresh and contiguous
    flat *= (rng.uniform(0.3, 7.0, size=len(flat)) / np.linalg.norm(flat, axis=1))[
        :, None
    ]
    flat[::5] = 0.0
    flat[1::7, 1] = -0.0
    flat[2::11] = [R_SMTH, 0.0, 0.0]
    flat[3::13] = [0.0, -R_CUT, 0.0]
    r = np.linalg.norm(flat, axis=1)
    for lo, hi in ((0.0, 1e-300), (0.3, R_SMTH), (R_SMTH, R_CUT), (R_CUT, 8.0)):
        assert np.any((r >= lo) & (r < hi))
    return disp


class TestEnvRowsBitStable:
    @pytest.mark.parametrize("shape", [(4001, 3), (37, 29, 3)])
    def test_allocating_form(self, shape):
        disp = branch_covering_disp(shape, seed=len(shape))
        for got, want in zip(
            env_rows(disp, R_SMTH, R_CUT), broadcast_reference(disp, R_SMTH, R_CUT)
        ):
            assert_same_bits(got, want)

    @pytest.mark.parametrize("shape", [(1, 3), (0, 3), (4, 0, 3)])
    def test_degenerate_shapes(self, shape):
        disp = np.full(shape, 1.25)
        for got, want in zip(
            env_rows(disp, R_SMTH, R_CUT), broadcast_reference(disp, R_SMTH, R_CUT)
        ):
            assert_same_bits(got, want)

    @pytest.mark.parametrize("shape", [(4001, 3), (37, 29, 3)])
    def test_out_buffers_as_row_slices(self, shape):
        """The general staging branch passes ``em_n[sl]`` / ``ed_n[sl]``:
        row slices of a larger buffer, whose other rows must stay put."""
        disp = branch_covering_disp(shape, seed=3)
        n, inner = shape[0], shape[1:-1]
        rows_buf = np.full((n + 9,) + inner + (4,), np.nan)
        deriv_buf = np.full((n + 9,) + inner + (4, 3), np.nan)
        sl = slice(4, 4 + n)
        rows, deriv, r = env_rows(
            disp, R_SMTH, R_CUT, out_rows=rows_buf[sl], out_deriv=deriv_buf[sl]
        )
        assert np.shares_memory(rows, rows_buf) and np.shares_memory(deriv, deriv_buf)
        want = broadcast_reference(disp, R_SMTH, R_CUT)
        for got, ref in zip((rows_buf[sl], deriv_buf[sl], r), want):
            assert_same_bits(got, ref)
        for buf in (rows_buf, deriv_buf):
            assert np.isnan(buf[:4]).all() and np.isnan(buf[4 + n :]).all()

    def test_stale_out_contents_are_harmless(self):
        disp = branch_covering_disp((500, 3), seed=9)
        rows = np.full((500, 4), 7.0)
        deriv = np.full((500, 4, 3), -7.0)
        env_rows(disp, R_SMTH, R_CUT, out_rows=rows, out_deriv=deriv)
        want = broadcast_reference(disp, R_SMTH, R_CUT)
        assert_same_bits(rows, want[0])
        assert_same_bits(deriv, want[1])


def add_at_reference(slot, nlist, atom_idx, out):
    """``scatter_forces`` as it stood before the ``np.bincount`` form."""
    out.fill(0.0)
    np.add.at(out, atom_idx, slot.sum(axis=1))
    mask = nlist != PAD
    np.add.at(out, nlist[mask], -slot[mask])
    return out


class TestScatterForcesBitStable:
    @pytest.mark.parametrize("rows,nnei,natoms,fill", [
        (256, 220, 256, 0.6),   # PAD-heavy: md_copper_fig3
        (64, 36, 64, 1.0),      # PAD-free
        (50, 48, 122, 0.8),     # ghosts: ``out`` longer than the rows
        (0, 36, 10, 0.5),       # no local rows at all
        (7, 5, 7, 0.0),         # nothing but padding
    ])
    def test_same_bytes_as_the_add_at_form(self, rows, nnei, natoms, fill):
        rng = np.random.default_rng(rows + nnei)
        nlist = rng.integers(0, natoms, size=(rows, nnei))
        nlist[rng.random((rows, nnei)) >= fill] = PAD
        slot = rng.normal(size=(rows, nnei, 3))
        slot[nlist == PAD] = 0.0  # what em_deriv makes of a padded slot ...
        slot[::3, ::4, 1] = -0.0  # ... of either sign
        atom_idx = rng.permutation(natoms)[:rows]  # rows are type-sorted
        got = scatter_forces(slot, nlist, atom_idx, np.full((natoms, 3), np.nan))
        want = add_at_reference(slot, nlist, atom_idx, np.empty((natoms, 3)))
        assert_same_bits(got, want)


    def test_an_index_past_the_last_atom_still_raises(self):
        slot = np.ones((2, 3, 3))
        nlist = np.array([[1, PAD, PAD], [0, 2, PAD]])
        with pytest.raises(IndexError, match="index 2 out of range for 2 atoms"):
            scatter_forces(slot, nlist, np.arange(2), np.empty((2, 3)))


class SerialOracle(Potential):
    """Every step through ``DeepPot.evaluate_serial``: per-call feeds, the
    allocating formatter / Environment path, uncompiled ``Session.run``."""

    def __init__(self, model):
        self.model = model
        self.cutoff = model.config.rcut

    def compute(self, system, pair_i, pair_j):
        return self.model.evaluate_serial(system, pair_i, pair_j)


def zoo_md(kind, potential):
    from repro import zoo
    from repro.analysis.structures import fcc_lattice, water_box

    if kind == "water":
        model, system, dt = zoo.get_water_model(), water_box((4, 4, 4), seed=0), 5e-4
    else:
        model, system, dt = zoo.get_copper_model(), fcc_lattice((4, 4, 4)), 1e-3
    boltzmann_velocities(system, 330.0, seed=11)
    sim = Simulation(
        system, potential(model), dt=dt,
        neighbor=fitted_neighbor_list(system, model.config.rcut),
    )
    return model, sim


@pytest.mark.parametrize("kind", ["water", "copper"])
def test_md_run_bitwise_vs_serial_and_allocation_free(kind):
    """60 steps through the engine (formatter and Environment op writing
    into pooled buffers, compiled plan) end where 60 steps through the
    serial oracle end, bit for bit; once warm, the scratch pool allocates
    only when a neighbor rebuild resizes the pair staging slabs."""
    model, sim = zoo_md(kind, DeepPotPair)
    pool = model.batched.scratch
    sim.run(10)
    log = []
    sim.run(50, callback=lambda s: log.append((s.neighbor.n_builds, pool.alloc_count)))
    for (builds, allocs), (builds_next, allocs_next) in zip(log, log[1:]):
        assert allocs_next == allocs or builds_next > builds
    assert log[-1][1] - log[0][1] <= 2 * (log[-1][0] - log[0][0])

    _, oracle = zoo_md(kind, SerialOracle)
    oracle.run(60)
    assert np.array_equal(sim.system.positions, oracle.system.positions)
    res, ref = sim.last_result(), oracle.last_result()
    assert res.energy == ref.energy
    assert np.array_equal(res.forces, ref.forces)
    assert np.array_equal(res.virial, ref.virial)
