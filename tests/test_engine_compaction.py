"""The engine's embedding nets run on real neighbours — and nothing changes.

The batched engine's plan compiles the model's *compacted* graph: per
(centre type, neighbour type) section ``take_rows`` gathers the listed
neighbour slots, the embedding net runs on those, and ``expand_rows`` writes
the rows back and fills every unlisted (padded) slot with the row of one
listed padded slot — all padded slots of a section share one
``s = -davg / dstd``.  These tests hold the compacted results equal, byte
for byte, to the two padded oracles (``use_plan=False`` engine: one
``Session.run``; ``DeepPot.evaluate_serial``) on paper-width nets, pin the
capacity rule and its counters (one layout per evaluation shape, the
outgrown one holding no memory, nothing allocated in steady state), and gate the
three row ops.
"""

import numpy as np
import pytest

import repro.dp.batch as batch_mod
import repro.tfmini as tf
from repro.analysis.plancheck import plan_metrics
from repro.analysis.structures import fcc_lattice, water_box
from repro.dp.batch import BatchedEvaluator, section_capacity
from repro.dp.model import DeepPot, DPConfig
from repro.dp.nlist_fmt import PAD, format_neighbors
from repro.md.box import Box
from repro.md.neighbor import neighbor_pairs
from repro.md.system import System
from repro.tfmini.ops import expand_rows, get_op, scatter_rows, take_rows

RCUT = 5.0  # 42 fcc neighbours inside; the 10.83 A cell allows up to 5.41


def same_bytes(got, ref):
    return (
        got.energy == ref.energy
        and got.forces.tobytes() == ref.forces.tobytes()
        and np.asarray(got.virial).tobytes() == np.asarray(ref.virial).tobytes()
        and got.atom_energies.tobytes() == ref.atom_energies.tobytes()
    )


def lattice(seed=0, types=None, type_names=("Cu",), jitter=0.05, scale=1.0):
    """A jittered 108-atom fcc cell (42 neighbours inside ``RCUT``)."""
    full = fcc_lattice((3, 3, 3))
    pos = full.positions + np.random.default_rng(seed).normal(
        scale=jitter, size=full.positions.shape
    )
    types = np.zeros(108, dtype=np.int64) if types is None else types
    return System(
        box=Box(full.box.lengths * scale), positions=pos * scale, types=types,
        masses=np.full(len(type_names), 63.5), type_names=type_names,
    )


def paper_width(sel, type_names=("Cu",), seed=3, **overrides):
    """25/50/100 embedding, 240^3 fitting: the BLAS line is 801 rows."""
    return DeepPot(
        DPConfig(type_names=type_names, rcut=RCUT, rcut_smth=2.0, sel=sel,
                 **overrides),
        rng=np.random.default_rng(seed),
    )


@pytest.fixture(scope="module")
def copper():
    """One type, ``sel`` 70 for 42 neighbours: fill 0.6, as on fig3."""
    return paper_width((70,))


@pytest.fixture(scope="module")
def binary():
    """Two types with the statistics of a trained model: a padded slot is
    ``R~ = (-davg / dstd, 0, 0, 0)``, not zero."""
    model = paper_width((40, 40), ("A", "B"), seed=4)
    model.set_stats(
        davg=[[0.131, 0, 0, 0], [0.128, 0, 0, 0]],
        dstd=[[0.24, 0.17, 0.17, 0.17], [0.16, 0.11, 0.11, 0.11]],
        e0=[-1.5, 0.25],
    )
    return model


def check(model, systems, nlocs=None, pbc=True, runs=None, compacted=True):
    """Compacted engine == oracle engine == evaluate_serial, frame by frame,
    on the first (warm) evaluation and on the third."""
    pairs = [neighbor_pairs(s, model.config.rcut, pbc=pbc) for s in systems]
    oracle = BatchedEvaluator(model, use_plan=False).evaluate_batch(
        systems, pairs, nlocs=nlocs, pbc=pbc
    )
    serial = [
        model.evaluate_serial(
            s, pi, pj, nloc=None if nlocs is None else nlocs[r], pbc=pbc)
        for r, (s, (pi, pj)) in enumerate(zip(systems, pairs))
    ]
    engine = BatchedEvaluator(model)
    for evaluation in range(3):
        got = engine.evaluate_batch(systems, pairs, nlocs=nlocs, pbc=pbc)
        if evaluation != 1:
            for r in range(len(systems)):
                assert same_bytes(got[r], oracle[r]), (evaluation, r)
                assert same_bytes(got[r], serial[r]), (evaluation, r)
    if runs is not None:
        assert engine.plan.stats.runs == 3 * runs
    m = plan_metrics(engine.plan)
    assert (m["rows_run"] < m["rows_padded"]) == compacted, m
    assert len(engine.plan.arenas) == engine.plan.stats.arena_builds == 1
    return engine


def random_types(seed=0):
    return np.random.default_rng(seed).integers(0, 2, size=108)


class TestBytesEqualToThePaddedOracles:
    def test_single_type_fill_06(self, copper):
        engine = check(copper, [lattice()], runs=1)
        # 108 x 42 real slots + 1 of 108 x 70, in eighths.
        assert plan_metrics(engine.plan)["rows_run"] == 5 * (108 * 70 // 8)

    def test_two_types_with_nonzero_davg(self, binary):
        system = lattice(types=random_types(), type_names=("A", "B"))
        engine = check(binary, [system])
        assert engine.stage_gathers == 3

    def test_section_with_no_real_neighbour(self, binary):
        """No B atom anywhere: section (A, B) lists padded slots only — the
        line's 801 of its 4320 — and type B's sections have no rows."""
        engine = check(binary, [lattice(type_names=("A", "B"))])
        values = dict(zip(engine.plan._feed_nodes, (
            engine.plan._values[s] for s in engine.plan._feed_slots)))
        listed = {ph.name: values[ph].size for ph in binary.ph_rows}
        assert listed == {
            "rows_t0_b0": 108 * 40, "rows_t0_b1": 801,
            "rows_t1_b0": 0, "rows_t1_b1": 0,
        }

    def test_section_without_a_padded_slot_runs_whole(self):
        check(paper_width((42,)), [lattice()], compacted=False)

    def test_ghost_mode_stack(self, copper):
        """Open-boundary frames with ghosts (locals-first stacking, forces
        cover the ghosts): 72 + 50 local rows of 216 atoms."""
        engine = check(
            copper, [lattice(seed=1), lattice(seed=2)], nlocs=[72, 50], pbc=False)
        assert engine.ghost_stacked_batches == 3

    def test_stacked_batch_of_three(self, copper):
        # 18.1 MB of G: 3 blocks of 108 rows.
        check(copper, [lattice(seed=s) for s in (1, 2, 3)], runs=3)

    def test_mixed_precision(self):
        check(paper_width((70,), precision="mixed"), [lattice()])

    def test_capacity_stops_at_the_blas_line(self, copper, monkeypatch):
        """0.9 MB of G per block: 6 blocks of 18 atoms (the shortest a block
        may be), 757 slots to list of 1260 — five eighths are 785, under
        the 801 rows below which OpenBLAS' small-matrix kernel would round
        (m, 25) @ (25, 50) differently.  Without the line this case differs
        in the last bit."""
        monkeypatch.setattr(batch_mod, "BLOCK_BYTES", 900_000)
        engine = check(copper, [lattice()], runs=6)
        assert engine.block_heights([108]) == (6, [18])
        assert plan_metrics(engine.plan)["rows_run"] == 801


class TestCapacity:
    @pytest.mark.parametrize("padded,real,capacity", [
        (9460, 5762, 5 * (9460 // 8)),  # fig3: 43 atoms x 134 of 220
        (9460, 5 * 1182 - 1, 5 * 1182),  # the + 1: room for the fill slot
        (9460, 5 * 1182, 6 * 1182),
        (9460, 0, 1182), (9460, 9459, 9460), (9460, 9460, 9460),
        (1260, 756, 801),               # the line, not five eighths
        (800, 10, 800), (5, 2, 5), (0, 0, 0),  # under the line: whole
    ])
    def test_rule(self, copper, padded, real, capacity):
        assert section_capacity(copper.config, padded, real) == capacity

    def test_zoo_width_line(self):
        from repro.zoo import water_config

        # 8 x 16 is the narrowest GEMM: the line is 7813 rows, above every
        # zoo water section at bench size (768-3072 slots).
        assert section_capacity(water_config(), 3072, 100) == 3072
        assert section_capacity(water_config(), 16000, 100) == 7813

    def test_fig3_capacity(self):
        """``md_copper_fig3``: 6 blocks of 43 atoms, 134 real neighbours in
        220 slots."""
        model = DeepPot(DPConfig(
            type_names=("Cu",), rcut=7.0, rcut_smth=2.0, sel=(220,)))
        system = fcc_lattice((4, 4, 4))
        engine = BatchedEvaluator(model)
        engine.evaluate_batch([system], [neighbor_pairs(system, 7.0)])
        m = plan_metrics(engine.plan, engine.batch_evaluations)
        assert m["blocks_per_evaluation"] == 6
        assert (m["rows_run"], m["rows_padded"]) == (5 * (43 * 220 // 8), 43 * 220)

    def test_growth_releases_the_arena_it_replaces(self, copper):
        """The box shrinks 1 % a step and the 12 atoms of the fourth shell
        come inside the cutoff: 42 -> 54 neighbours."""
        engine = BatchedEvaluator(copper)
        capacities = []
        for step in range(7):
            system = lattice(scale=0.99**step)
            pi, pj = neighbor_pairs(system, RCUT)
            got = engine.evaluate_batch([system], [(pi, pj)])[0]
            assert same_bytes(got, copper.evaluate_serial(system, pi, pj))
            capacities.append(plan_metrics(engine.plan)["rows_run"])
        assert capacities == sorted(capacities)  # never shrinks
        assert capacities[0] == 5 * 945 and capacities[-1] == 7 * 945
        plan = engine.plan
        assert engine.capacity_growths == len(set(capacities)) - 1 >= 1
        assert plan.stats.arena_builds == engine.capacity_growths + 1
        assert plan.stats.arena_evictions == 0
        # An outgrown layout holds no memory: the pool is the grown one's.
        assert len(plan.arenas) == plan.stats.arena_builds
        grown = list(plan.arenas.values())[-1]
        assert plan.arena_nbytes() == grown.alloc_bytes
        # Back to the sparse frame: the high-water capacity serves it.
        system = lattice()
        pi, pj = neighbor_pairs(system, RCUT)
        got = engine.evaluate_batch([system], [(pi, pj)])[0]
        assert same_bytes(got, copper.evaluate_serial(system, pi, pj))
        assert plan.stats.arena_builds == engine.capacity_growths + 1

    def test_steady_state_allocates_nothing(self, copper):
        system = lattice()
        pairs = neighbor_pairs(system, RCUT)
        engine = BatchedEvaluator(copper)
        engine.evaluate_batch([system], [pairs])
        plan = engine.plan
        allocs, scratch = plan.alloc_count(), engine.scratch.alloc_count
        for _ in range(4):
            engine.evaluate_batch([system], [pairs])
        assert plan.alloc_count() == allocs
        assert engine.scratch.alloc_count == scratch
        assert plan.stats.arena_builds == 1 and engine.capacity_growths == 0

    def test_release_buffers_forgets_capacities(self, copper):
        system = lattice(scale=0.97)  # 54 neighbours: seven eighths
        engine = BatchedEvaluator(copper)
        engine.evaluate_batch([system], [neighbor_pairs(system, RCUT)])
        engine.release_buffers()
        system = lattice()
        engine.evaluate_batch([system], [neighbor_pairs(system, RCUT)])
        assert plan_metrics(engine.plan)["rows_run"] == 5 * 945
        assert engine.capacity_growths == 0


class TestPaddedSlotsContribute:
    def test_zeroing_padded_rows_changes_a_zoo_energy(self):
        """Why the fill is a computed row, not zero.  A trained model has
        ``davg != 0``, so a padded slot is ``(-davg / dstd, 0, 0, 0)`` and
        adds ``s_pad * G(s_pad)`` to ``R~^T G`` — in DeePMD-kit as here.
        Zeroing those rows of ``G`` and zeroing those rows of ``R~`` remove
        the same products from the contraction; the second can be fed."""
        from repro.zoo import get_water_model

        model = get_water_model()
        assert np.all(np.abs(model.davg[:, 0]) > 0.1)
        system = water_box((3, 3, 3), seed=3)
        pi, pj = neighbor_pairs(system, model.config.rcut)
        cfg = model.config
        fmt = format_neighbors(system, pi, pj, cfg.rcut, cfg.sel,
                               use_compression=cfg.use_compression)
        feeds, order = model.prepare_feeds(system, pi, pj, fmt=fmt)
        energy = model.session.run(model._f_energy, feeds)
        padded = (fmt.nlist == PAD)[order]
        sorted_types = system.types[order]
        for t, ph in enumerate(model.ph_env):
            feeds[ph] = feeds[ph].copy()
            feeds[ph][padded[sorted_types == t]] = 0.0
        zeroed = model.session.run(model._f_energy, feeds)
        assert abs(zeroed - energy) > 1e-3  # eV, on 81 atoms

        serial = model.evaluate_serial(system, pi, pj)
        engine = BatchedEvaluator(model)
        assert same_bytes(engine.evaluate_batch([system], [(pi, pj)])[0], serial)


# --------------------------------------------------------------------- ops

ROWS = {
    "partial": np.array([6, 0, 3, 4]),  # no duplicates; 4 of 7
    "full": np.arange(7),               # every row: ascending
}


def _values(name, rows, rng):
    """Inputs of op ``name`` for a 7-row target and the given listing."""
    if name == "take_rows":
        return [rng.normal(size=(7, 3)), rows]
    return [rng.normal(size=(rows.size, 3)), rows, np.empty((7, 1))]


class TestRowOps:
    @pytest.mark.parametrize("listing", sorted(ROWS))
    @pytest.mark.parametrize("name", ["take_rows", "expand_rows", "scatter_rows"])
    def test_forward_equals_out_kernel(self, name, listing):
        opdef = get_op(name)
        inputs = _values(name, ROWS[listing], np.random.default_rng(1))
        want = opdef.forward(inputs, {})
        out = np.full(want.shape, 7.0)
        opdef.forward_out(inputs, {}, out)
        assert out.tobytes() == want.tobytes()
        assert want.base is None  # fresh memory, never a view of an input

    def test_semantics(self):
        rows = ROWS["partial"]
        x = np.arange(21.0).reshape(7, 3)
        g = get_op("take_rows").forward([x, rows], {})
        assert np.array_equal(g, x[rows])
        like = np.empty((7, 1))
        expanded = get_op("expand_rows").forward([g, rows, like], {})
        assert np.array_equal(expanded[rows], g)
        unlisted = np.setdiff1d(np.arange(7), rows)
        assert np.array_equal(expanded[unlisted], np.tile(g[-1], (3, 1)))
        scattered = get_op("scatter_rows").forward([g, rows, like], {})
        assert np.array_equal(scattered[rows], g)
        assert not scattered[unlisted].any()

    @pytest.mark.parametrize("listing", sorted(ROWS))
    def test_vjps_against_finite_differences_on_listed_rows(self, listing):
        rows = ROWS[listing]
        rng = np.random.default_rng(2)
        x0 = rng.normal(size=(7, 3))
        # A cotangent that is zero on unlisted rows: what expand_rows' vjp
        # keeps is then all there is.
        w_full = np.zeros((7, 3))
        w_full[rows] = rng.normal(size=(rows.size, 3))
        w_rows = rng.normal(size=(rows.size, 3))
        like = tf.constant(np.empty((7, 1)))
        rows_node = tf.constant(rows)
        sess = tf.Session()

        def gradient_check(build, value, weight):
            ph = tf.placeholder("x")
            loss = tf.reduce_sum(tf.mul(build(ph), tf.constant(weight)))
            (grad,) = tf.grad(loss, [ph])
            got = sess.run(grad, {ph: value})
            want = np.zeros_like(value)
            for idx in np.ndindex(*value.shape):
                bumped = value.copy()
                bumped[idx] += 1e-6
                want[idx] = (sess.run(loss, {ph: bumped})
                             - sess.run(loss, {ph: value})) / 1e-6
            np.testing.assert_allclose(got, want, atol=1e-6)

        gradient_check(lambda ph: take_rows(ph, rows_node), x0, w_rows)
        gradient_check(
            lambda ph: expand_rows(ph, rows_node, like), x0[: rows.size], w_full)
        gradient_check(
            lambda ph: scatter_rows(ph, rows_node, like), x0[: rows.size], w_full)

    def test_expand_rows_vjp_drops_the_fill(self):
        """The documented non-scatter: the last listed row fills 3 unlisted
        ones, and its cotangent is its own row's alone."""
        rows = ROWS["partial"]
        ph = tf.placeholder("g")
        out = expand_rows(ph, tf.constant(rows), tf.constant(np.empty((7, 1))))
        (grad,) = tf.grad(tf.reduce_sum(out), [ph])
        got = tf.Session().run(grad, {ph: np.zeros((4, 3))})
        assert np.array_equal(got, np.ones((4, 3)))  # not 4 on the last row
