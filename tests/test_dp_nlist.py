"""Tests for the Sec 5.2.1 neighbor layout and the Sec 5.2.2 64-bit codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.structures import fcc_lattice, water_box
from repro.dp.nlist_fmt import (
    PAD,
    compress_entries,
    decompress_entries,
    format_neighbors,
    format_neighbors_baseline,
)
from repro.md.box import Box
from repro.md.neighbor import neighbor_pairs
from repro.md.system import System


@pytest.fixture
def water_sys():
    return water_box((4, 4, 4), seed=3)


def random_binary_system(n, box_len, seed):
    rng = np.random.default_rng(seed)
    return System(
        box=Box([box_len] * 3),
        positions=rng.uniform(0, box_len, size=(n, 3)),
        types=rng.integers(0, 2, size=n),
        masses=np.array([16.0, 1.0]),
    )


class TestCodec:
    @given(
        t=st.integers(0, 9999),
        d=st.floats(0.0, 99.9999999, allow_nan=False),
        j=st.integers(0, 99999),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_roundtrip(self, t, d, j):
        key = compress_entries(np.array([t]), np.array([d]), np.array([j]))
        t2, d2, j2 = decompress_entries(key)
        assert t2[0] == t
        assert j2[0] == j
        assert abs(d2[0] - d) < 1e-7  # distance quantized at 1e-8 Å

    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(2, 200),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_key_order_matches_record_order(self, seed, n):
        """Sorting scalar keys == sorting (type, dist, index) records when
        distances are separated by more than the quantum."""
        rng = np.random.default_rng(seed)
        types = rng.integers(0, 3, size=n)
        # distances on a coarse grid -> no quantization ties
        dists = rng.integers(1, 10**6, size=n).astype(np.float64) * 1e-4
        idx = rng.permutation(n)
        keys = compress_entries(types, dists, idx)
        by_key = np.argsort(keys)
        by_rec = np.lexsort((idx, dists, types))
        np.testing.assert_array_equal(by_key, by_rec)

    def test_index_overflow_raises(self):
        with pytest.raises(ValueError, match="5-digit"):
            compress_entries(np.array([0]), np.array([1.0]), np.array([100000]))

    def test_distance_overflow_raises(self):
        with pytest.raises(ValueError, match="10-digit"):
            compress_entries(np.array([0]), np.array([100.0]), np.array([0]))

    def test_type_overflow_raises(self):
        with pytest.raises(ValueError, match="4-digit"):
            compress_entries(np.array([10**4]), np.array([1.0]), np.array([0]))

    def test_negative_index_raises(self):
        with pytest.raises(ValueError, match="negative"):
            compress_entries(np.array([0]), np.array([1.0]), np.array([-1]))

    def test_fields_do_not_collide(self):
        """Adjacent field values map to distinct, ordered keys."""
        keys = compress_entries(
            np.array([1, 1, 2]),
            np.array([99.99999999, 0.0, 0.0]),
            np.array([99999, 0, 0]),
        )
        assert keys[0] < keys[2]  # max dist+index of type 1 < min of type 2


class TestFormatNeighbors:
    def _fmt(self, sys, sel=(8, 16), rcut=4.0, **kw):
        pi, pj = neighbor_pairs(sys, rcut)
        return format_neighbors(sys, pi, pj, rcut, sel, **kw)

    def test_padding_marker(self, water_sys):
        fmt = self._fmt(water_sys)
        assert np.any(fmt.nlist == PAD)
        assert fmt.nlist.shape == (water_sys.n_atoms, 24)

    def test_type_blocks_are_homogeneous(self, water_sys):
        fmt = self._fmt(water_sys)
        slot_t = fmt.slot_types()
        for i in range(fmt.nloc):
            for jj in range(fmt.nnei):
                j = fmt.nlist[i, jj]
                if j != PAD:
                    assert water_sys.types[j] == slot_t[jj]

    def test_distance_sorted_within_blocks(self, water_sys):
        fmt = self._fmt(water_sys)
        pos = water_sys.positions
        box = water_sys.box
        for i in range(min(fmt.nloc, 40)):
            for t, s in enumerate(fmt.sel):
                block = fmt.nlist[i, fmt.sel_start[t] : fmt.sel_start[t] + s]
                block = block[block != PAD]
                d = np.linalg.norm(
                    box.minimum_image(pos[block] - pos[i]), axis=1
                )
                assert np.all(np.diff(d) >= -1e-7)  # codec quantum tolerance

    def test_real_slots_before_padding(self, water_sys):
        fmt = self._fmt(water_sys)
        for i in range(fmt.nloc):
            for t, s in enumerate(fmt.sel):
                block = fmt.nlist[i, fmt.sel_start[t] : fmt.sel_start[t] + s]
                seen_pad = False
                for v in block:
                    if v == PAD:
                        seen_pad = True
                    else:
                        assert not seen_pad, "real neighbor after padding"

    def test_all_cutoff_neighbors_present_or_dropped(self, water_sys):
        fmt = self._fmt(water_sys)
        pi, pj = neighbor_pairs(water_sys, 4.0)
        n_pairs_directed = 2 * len(pi)
        n_in_list = int(np.count_nonzero(fmt.nlist != PAD))
        assert n_in_list + fmt.n_dropped == n_pairs_directed

    def test_overflow_drops_farthest(self):
        """With sel smaller than the real neighbor count, the kept ones are
        the nearest — the Sec 5.2.1 guarantee."""
        sys = random_binary_system(64, 12.0, seed=5)
        pi, pj = neighbor_pairs(sys, 5.0)
        small = format_neighbors(sys, pi, pj, 5.0, (4, 4))
        big = format_neighbors(sys, pi, pj, 5.0, (40, 40))
        assert small.n_dropped > 0
        for i in range(sys.n_atoms):
            for t in range(2):
                kept = small.nlist[i, small.sel_start[t] : small.sel_start[t] + 4]
                kept = set(kept[kept != PAD].tolist())
                full = big.nlist[i, big.sel_start[t] : big.sel_start[t] + 40]
                full = full[full != PAD]
                d = np.linalg.norm(
                    sys.box.minimum_image(sys.positions[full] - sys.positions[i]),
                    axis=1,
                )
                nearest = set(full[np.argsort(d, kind="stable")][: len(kept)].tolist())
                assert kept == nearest

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_property_optimized_matches_baseline(self, seed):
        sys = random_binary_system(48, 14.0, seed=seed)
        pi, pj = neighbor_pairs(sys, 5.0)
        opt = format_neighbors(sys, pi, pj, 5.0, (10, 10))
        base = format_neighbors_baseline(sys, pi, pj, 5.0, (10, 10))
        np.testing.assert_array_equal(opt.nlist, base.nlist)
        assert opt.n_dropped == base.n_dropped

    def test_compression_and_record_sort_physically_equivalent(self, water_sys):
        """The codec quantizes distances to 1e-8 Å, so near-degenerate
        neighbors (e.g. the two O-H bonds of a molecule) may swap slots
        relative to the exact-float record sort.  Both layouts must contain
        the same neighbors per type block — and the descriptor is
        permutation invariant, so the physics is identical."""
        pi, pj = neighbor_pairs(water_sys, 4.0)
        a = format_neighbors(water_sys, pi, pj, 4.0, (8, 16), use_compression=True)
        b = format_neighbors(water_sys, pi, pj, 4.0, (8, 16), use_compression=False)
        for i in range(a.nloc):
            for t in range(2):
                s0 = a.sel_start[t]
                blk_a = set(a.nlist[i, s0 : s0 + a.sel[t]].tolist())
                blk_b = set(b.nlist[i, s0 : s0 + b.sel[t]].tolist())
                assert blk_a == blk_b, (i, t)

    def test_compression_and_record_sort_identical_without_ties(self):
        sys = random_binary_system(60, 14.0, seed=12)  # generic positions
        pi, pj = neighbor_pairs(sys, 5.0)
        a = format_neighbors(sys, pi, pj, 5.0, (10, 10), use_compression=True)
        b = format_neighbors(sys, pi, pj, 5.0, (10, 10), use_compression=False)
        np.testing.assert_array_equal(a.nlist, b.nlist)

    def test_nloc_restricts_rows(self, water_sys):
        pi, pj = neighbor_pairs(water_sys, 4.0)
        fmt = format_neighbors(water_sys, pi, pj, 4.0, (8, 16), nloc=10)
        assert fmt.nlist.shape[0] == 10

    def test_wrong_sel_length_raises(self, water_sys):
        pi, pj = neighbor_pairs(water_sys, 4.0)
        with pytest.raises(ValueError, match="sel"):
            format_neighbors(water_sys, pi, pj, 4.0, (8,))

    def test_mask_and_slot_types(self, water_sys):
        fmt = self._fmt(water_sys)
        assert fmt.mask().sum() == np.count_nonzero(fmt.nlist != PAD)
        st_arr = fmt.slot_types()
        assert (st_arr[:8] == 0).all() and (st_arr[8:] == 1).all()


def lexsort_reference(system, pair_i, pair_j, rcut, sel, nloc=None, pbc=True):
    """The formatter's compressed path as it stood before the per-atom key
    sort: every distance measured in both directions, one global
    ``np.lexsort((keys, fi))``, rank-in-run arithmetic.  Kept here as the
    reference the production path must reproduce exactly."""
    sel = np.asarray(sel)
    nloc = system.n_atoms if nloc is None else nloc
    fi = np.concatenate([pair_i, pair_j])
    fj = np.concatenate([pair_j, pair_i])
    disp = system.positions[fj] - system.positions[fi]
    if pbc:
        disp = system.box.minimum_image(disp)
    r = np.sqrt(np.einsum("ij,ij->i", disp, disp))
    keep = (r <= rcut) & (fi < nloc)
    fi, fj, r = fi[keep], fj[keep], r[keep]
    tj = system.types[fj]
    order = np.lexsort((compress_entries(tj, r, fj), fi))
    fi, fj, tj = fi[order], fj[order], tj[order]

    nlist = np.full((nloc, int(sel.sum())), PAD, dtype=np.int64)
    if not fi.size:
        return nlist, 0, r
    group_change = np.ones(fi.size, dtype=bool)
    group_change[1:] = (fi[1:] != fi[:-1]) | (tj[1:] != tj[:-1])
    group_first = np.flatnonzero(group_change)
    rank = np.arange(fi.size) - group_first[np.cumsum(group_change) - 1]
    keep = rank < sel[tj]
    sel_start = np.cumsum(sel) - sel
    nlist[fi[keep], sel_start[tj[keep]] + rank[keep]] = fj[keep]
    return nlist, int(np.count_nonzero(~keep)), r


def conformance_frame(seed, n_types, lattice):
    """A frame for the conformance property: random positions in a large
    box (sparse enough that some atoms have no neighbor at all), or a
    perfect fcc lattice whose coordinates, and so whose distances, are
    exact in binary — every shell is an exact tie."""
    rng = np.random.default_rng(seed)
    if lattice:
        system = fcc_lattice((3, 3, 3), lattice=4.0)
        positions, box = system.positions, system.box
    else:
        n = int(rng.integers(1, 60))
        box = Box([14.0] * 3)
        positions = rng.uniform(0, 14.0, size=(n, 3))
    return System(
        box=box,
        positions=positions,
        types=rng.integers(0, n_types, size=len(positions)),
        masses=np.ones(n_types),
    )


class TestFormatterConformance:
    @given(
        seed=st.integers(0, 10**6),
        n_types=st.integers(1, 3),
        lattice=st.booleans(),
        pbc=st.booleans(),
        ghosts=st.booleans(),
        empty_pairs=st.booleans(),
        rcut=st.floats(1.5, 5.0),
        max_sel=st.sampled_from([2, 6, 40]),
    )
    @settings(max_examples=120, deadline=None)
    def test_property_matches_lexsort_reference(
        self, seed, n_types, lattice, pbc, ghosts, empty_pairs, rcut, max_sel
    ):
        rng = np.random.default_rng(seed)
        system = conformance_frame(seed, n_types, lattice)
        n = system.n_atoms
        nloc = int(rng.integers(0, n + 1)) if ghosts else None
        sel = tuple(int(x) for x in rng.integers(1, max_sel + 1, size=n_types))
        if empty_pairs:
            pi = pj = np.zeros(0, dtype=np.int64)
        else:
            pi, pj = neighbor_pairs(system, rcut + 1.0, pbc=pbc)  # with skin
        ref_nlist, ref_dropped, r = lexsort_reference(
            system, pi, pj, rcut, sel, nloc=nloc, pbc=pbc
        )

        fmt = format_neighbors(system, pi, pj, rcut, sel, nloc=nloc, pbc=pbc)
        np.testing.assert_array_equal(fmt.nlist, ref_nlist)
        assert fmt.n_dropped == ref_dropped

        # out= reuse rewrites stale storage completely and in place ...
        stale = format_neighbors(system, pi, pj, rcut, sel, nloc=nloc, pbc=pbc)
        stale.nlist[...] = 12345
        stale.n_dropped = -1
        again = format_neighbors(
            system, pi, pj, rcut, sel, nloc=nloc, pbc=pbc, out=stale
        )
        assert again is stale
        np.testing.assert_array_equal(stale.nlist, ref_nlist)
        assert stale.n_dropped == ref_dropped
        # ... and a layout of another shape is left alone.
        if stale.nloc:
            other = format_neighbors(system, pi, pj, rcut, sel, nloc=0, pbc=pbc)
            fresh = format_neighbors(
                system, pi, pj, rcut, sel, nloc=nloc, pbc=pbc, out=other
            )
            assert fresh is not other and other.nlist.shape[0] == 0
            np.testing.assert_array_equal(fresh.nlist, ref_nlist)

        # Where the codec's 1e-8 Å quantum merges no two distinct distances
        # (always, on the lattice), the AoS tuple sort agrees slot for slot.
        if np.unique(np.floor(r * 1e8)).size == np.unique(r).size:
            base = format_neighbors_baseline(
                system, pi, pj, rcut, sel, nloc=nloc, pbc=pbc
            )
            np.testing.assert_array_equal(fmt.nlist, base.nlist)
            assert fmt.n_dropped == base.n_dropped

    def test_property_reaches_the_hard_cases(self):
        """The generator above does produce what the property is for."""
        lattice = conformance_frame(1, 2, lattice=True)
        pi, pj = neighbor_pairs(lattice, 5.0)
        nlist, dropped, r = lexsort_reference(lattice, pi, pj, 4.0, (2, 2))
        assert dropped > 0  # sel overflow
        assert np.unique(r).size == 2  # two shells: exact ties
        sparse = conformance_frame(7, 3, lattice=False)
        pi, pj = neighbor_pairs(sparse, 2.5)
        nlist, _, _ = lexsort_reference(sparse, pi, pj, 1.5, (4, 4, 4))
        assert np.any(np.all(nlist == PAD, axis=1))  # atoms with no neighbor

    def test_codec_range_errors_reach_the_caller(self):
        """Every field-range check of the codec still guards the formatter."""
        pair = (np.array([0]), np.array([1]))
        far = System(
            box=Box([500.0] * 3),
            positions=np.array([[0.0, 0, 0], [120.0, 0, 0]]),
            types=[0, 0], masses=[1.0],
        )
        with pytest.raises(ValueError, match="10-digit"):
            format_neighbors(far, *pair, 150.0, (4,), pbc=False)

        many = np.zeros((10**5 + 1, 3))
        many[-1, 0] = 1.0
        crowd = System(
            box=Box([50.0] * 3), positions=many,
            types=np.zeros(len(many), dtype=int), masses=[1.0],
        )
        with pytest.raises(ValueError, match="5-digit"):
            format_neighbors(crowd, np.array([0]), np.array([10**5]), 2.0, (4,))

        exotic = System(
            box=Box([50.0] * 3),
            positions=np.array([[0.0, 0, 0], [1.0, 0, 0]]),
            types=[0, 10**4], masses=np.ones(10**4 + 1),
        )
        with pytest.raises(ValueError, match="4-digit"):
            format_neighbors(exotic, *pair, 2.0, (1,) * (10**4 + 1))


def test_engine_accumulates_dropped_neighbors_on_both_staging_branches():
    """``BatchedEvaluator.neighbors_dropped`` sums ``n_dropped`` over every
    layout the engine formats — the stacked fast path and the per-frame
    general path alike."""
    from repro.dp.model import DeepPot, DPConfig

    cfg = DPConfig.tiny(sel=(2, 3), rcut=3.0)
    model = DeepPot(cfg)
    frames = [water_box((2, 2, 2), seed=s) for s in (0, 1)]
    pairs = [neighbor_pairs(f, cfg.rcut) for f in frames]
    per_frame = [
        format_neighbors(f, pi, pj, cfg.rcut, cfg.sel).n_dropped
        for f, (pi, pj) in zip(frames, pairs)
    ]
    assert min(per_frame) > 0

    engine = model.batched
    engine.evaluate_batch(frames, pairs)
    assert (engine.stacked_batches, engine.general_batches) == (1, 0)
    assert engine.neighbors_dropped == sum(per_frame)
    # Two boxes in one PBC batch cannot stack: the general branch.
    other = frames[1].copy()
    other.box.lengths[:] = other.box.lengths * 1.01
    other.positions *= 1.01
    other_pairs = neighbor_pairs(other, cfg.rcut)
    other_dropped = format_neighbors(other, *other_pairs, cfg.rcut, cfg.sel).n_dropped
    assert other_dropped > 0
    engine.evaluate_batch([frames[0], other], [pairs[0], other_pairs])
    assert (engine.stacked_batches, engine.general_batches) == (1, 1)
    assert engine.neighbors_dropped == (
        sum(per_frame) + per_frame[0] + other_dropped
    )
