"""The batched engine runs its plan over row blocks — and nothing changes.

Every quantity on the engine's tape is per atom, so an evaluation whose
embedding output ``G`` exceeds ``BLOCK_BYTES`` is run in several blocks of
rows, forces being assembled once, outside the tape.  With the constant
patched small, these tests hold blocked results bitwise equal to the two
unblocked oracles (``use_plan=False`` engine: one ``Session.run``;
``DeepPot.evaluate_serial``) on paper-width nets — the 25/50/100 embedding
and 240^3 fitting GEMMs are the ones OpenBLAS switches kernels on when a
block gets too short (``min_block_rows`` is what forbids that) — and pin
the deterministic counters: one arena per evaluation shape, no allocation
after the first step, one block for every zoo model at its bench size.
"""

import numpy as np
import pytest

import repro.dp.batch as batch_mod
from repro.analysis.structures import fcc_lattice
from repro.dp.batch import BatchedEvaluator, min_block_rows
from repro.dp.model import DeepPot, DPConfig
from repro.md.neighbor import neighbor_pairs
from repro.md.system import System
from repro.zoo import copper_config, water_config

RCUT = 5.0  # 42 fcc neighbours inside; the 10.83 A cell allows up to 5.41


def same_bits(got, ref):
    return (
        got.energy == ref.energy
        and np.array_equal(got.forces, ref.forces)
        and np.array_equal(got.virial, ref.virial)
        and np.array_equal(got.atom_energies, ref.atom_energies)
    )


def lattice(n_atoms=108, seed=0, types=None, type_names=("Cu",)):
    """The first ``n_atoms`` of a jittered 108-atom fcc cell."""
    full = fcc_lattice((3, 3, 3))
    pos = full.positions + np.random.default_rng(seed).normal(
        scale=0.05, size=full.positions.shape
    )
    types = np.zeros(108, dtype=np.int64) if types is None else types
    return System(
        box=full.box, positions=pos[:n_atoms], types=types[:n_atoms],
        masses=np.full(len(type_names), 63.5), type_names=type_names,
    )


@pytest.fixture(scope="module")
def copper():
    """Paper-width nets, one type: 18 rows is the shortest block."""
    model = DeepPot(
        DPConfig(type_names=("Cu",), rcut=RCUT, rcut_smth=2.0, sel=(48,)),
        rng=np.random.default_rng(3),
    )
    assert min_block_rows(model.config) == 18
    return model


@pytest.fixture(scope="module")
def binary():
    """Paper-width nets, two types: 34 rows is the shortest block."""
    model = DeepPot(
        DPConfig(type_names=("A", "B"), rcut=RCUT, rcut_smth=2.0, sel=(24, 48)),
        rng=np.random.default_rng(4),
    )
    assert min_block_rows(model.config) == 34
    return model


@pytest.fixture
def small_blocks(monkeypatch):
    """0.9 MB of ``G`` per block: a 108-atom, sel-48 evaluation (4.15 MB)
    asks for 5 blocks."""
    monkeypatch.setattr(batch_mod, "BLOCK_BYTES", 900_000)


def check(model, systems, nlocs=None, pbc=True, blocks=None):
    """Blocked engine == oracle engine == evaluate_serial, frame by frame."""
    pairs = [neighbor_pairs(s, model.config.rcut, pbc=pbc) for s in systems]
    engine = BatchedEvaluator(model)
    got = engine.evaluate_batch(systems, pairs, nlocs=nlocs, pbc=pbc)
    if blocks is not None:
        assert engine.plan.stats.runs == blocks
    assert engine.plan.stats.runs > 1 and len(engine.plan.arenas) == 1
    oracle = BatchedEvaluator(model, use_plan=False).evaluate_batch(
        systems, pairs, nlocs=nlocs, pbc=pbc
    )
    for r, (system, (pi, pj)) in enumerate(zip(systems, pairs)):
        nloc = None if nlocs is None else nlocs[r]
        serial = model.evaluate_serial(system, pi, pj, nloc=nloc, pbc=pbc)
        assert same_bits(got[r], oracle[r])
        assert same_bits(got[r], serial)
    return engine


class TestBlockInvariance:
    # 108 rows: 5 blocks of 22.  Counts of the form k*B + 1 — 89 = 4*22 + 1,
    # 73 = 4*18 + 1, 37 = 2*18 + 1 — make every block one row taller (23,
    # 19, 19) and the last one start early; nothing is ever 1 row short.
    @pytest.mark.parametrize("n_atoms,blocks", [(108, 5), (89, 4), (73, 4), (37, 2)])
    def test_single_type_paper_width(self, copper, small_blocks, n_atoms, blocks):
        # Dropping atoms leaves vacancies, not a smaller cell: still PBC.
        check(copper, [lattice(n_atoms)], blocks=blocks)

    def test_blocked_equals_unblocked_engine(self, copper, monkeypatch):
        system = lattice()
        pairs = neighbor_pairs(system, RCUT)
        whole = BatchedEvaluator(copper)
        ref = whole.evaluate_batch([system], [pairs])[0]
        assert whole.plan.stats.runs == 1
        monkeypatch.setattr(batch_mod, "BLOCK_BYTES", 900_000)
        blocked = BatchedEvaluator(copper)
        assert same_bits(blocked.evaluate_batch([system], [pairs])[0], ref)
        assert blocked.plan.stats.runs == 5
        # 8.3 of 26.9 MB: a fifth of the row-proportional buffers plus the
        # row-independent ones (the transposed 1600 x 240 weight is 3 MB).
        assert blocked.plan.arena_nbytes() < 0.35 * whole.plan.arena_nbytes()

    def test_two_types_one_with_fewer_rows_than_blocks(self, binary, small_blocks):
        """Two impurity atoms among 106: the gather staging path, the
        106 rows in 4 blocks of 34, the 2 rows whole in every block."""
        types = np.ones(108, dtype=np.int64)
        types[[5, 60]] = 0
        system = lattice(types=types, type_names=("A", "B"))
        engine = check(binary, [system], blocks=4)
        assert engine.block_heights([2, 106]) == (4, [2, 34])
        assert engine.stage_gathers == 1

    def test_ghost_mode_stack(self, copper, small_blocks):
        """Open-boundary frames with ghosts (locals-first stacking, forces
        cover the ghosts): 72 + 50 local rows of 216 atoms."""
        systems = [lattice(seed=1), lattice(seed=2)]
        engine = check(copper, systems, nlocs=[72, 50], pbc=False)
        assert engine.ghost_stacked_batches == 1

    def test_stacked_batch_of_three(self, copper, small_blocks):
        check(copper, [lattice(seed=s) for s in (1, 2, 3)])


class TestBlockCounters:
    def test_steady_blocked_loop_allocates_once(self, copper, small_blocks):
        system = lattice()
        pairs = neighbor_pairs(system, RCUT)
        engine = BatchedEvaluator(copper)
        engine.evaluate_batch([system], [pairs])
        plan = engine.plan
        allocs, scratch = plan.alloc_count(), engine.scratch.alloc_count
        for _ in range(4):
            engine.evaluate_batch([system], [pairs])
        assert plan.stats.runs == 5 * 5
        assert len(plan.arenas) == 1 and plan.stats.arena_builds == 1
        assert plan.alloc_count() == allocs
        assert engine.scratch.alloc_count == scratch
        # 8.30 MB: the arena of one 22-row block (26.93 MB unblocked).
        assert plan.arena_nbytes() < 9e6

    def test_fig3_is_six_blocks_of_43(self):
        """``md_copper_fig3``: 256 rows, ``G`` = 45.06 MB, 8 MB per block."""
        engine = BatchedEvaluator(DeepPot(DPConfig(
            type_names=("Cu",), rcut=7.0, rcut_smth=2.0, sel=(220,))))
        assert engine.block_heights([256]) == (6, [43])

    @pytest.mark.parametrize("config,rows", [
        (water_config("double"), [64, 128]),    # md_water192
        (copper_config("double"), [256]),       # md_copper256
        (water_config("mixed"), [216, 432]),    # ens_water81_r8_mixed
        (water_config("double"), [216, 432]),   # serve_socket, a batch of 8
    ])
    def test_zoo_models_run_one_block_at_bench_size(self, config, rows):
        engine = BatchedEvaluator(DeepPot(config))
        assert engine.block_heights(rows) == (1, rows)

    @pytest.mark.parametrize("rows", [[0], [1], [17], [18], [19], [37], [256],
                                      [1000], [3, 700], [0, 90], [35, 36]])
    def test_blocks_cover_every_row_with_one_signature(self, copper, monkeypatch, rows):
        monkeypatch.setattr(batch_mod, "BLOCK_BYTES", 300_000)
        engine = BatchedEvaluator(copper)
        n_blocks, heights = engine.block_heights(rows)
        for n, h in zip(rows, heights):
            # Never a short remainder block: whole, or at least the floor.
            assert h == n or min_block_rows(copper.config) <= h < n
            covered = set()
            for b in range(n_blocks):
                start = min(b * h, n - h)
                covered.update(range(start, start + h))
            assert covered == set(range(n))
