"""Engine storage follows the largest shape — shown by churn, not by reading.

One engine is driven through 60 distinct atom counts at batch sizes 1…8 in
shuffled order.  Every result stays bytes-equal to ``evaluate_serial``, and
what the engine holds afterwards is what its largest shape needs: the
plan's slab pool is the largest layout's bytes (to within a percent, and a
fraction of the layouts' sum), the scratch pool one buffer per name at that
name's largest request, the layout table within its cap — and going back to
a warmed shape allocates nothing.
"""

from itertools import zip_longest
from math import prod

import numpy as np
import pytest

import repro.tfmini.plan as plan_mod
from repro.analysis.structures import water_box
from repro.dp.batch import BatchedEvaluator
from repro.dp.model import DeepPot, DPConfig
from repro.md.neighbor import neighbor_pairs

N_SHAPES = 60


@pytest.fixture(scope="module")
def model():
    return DeepPot(DPConfig.tiny())


def churn_items(model):
    """``(frames, pair lists)`` per work item: atom counts 81, 80, … 22,
    batch sizes cycling 8, 1, 2, … — item 0 (81 atoms x 8 frames) is the
    largest in every buffer."""
    base = water_box((3, 3, 3), seed=0)
    rng = np.random.default_rng(0)
    items = []
    for k in range(N_SHAPES):
        keep = np.sort(rng.permutation(base.n_atoms)[: base.n_atoms - k])
        frames = []
        for _ in range(8 if k == 0 else 1 + (k - 1) % 8):
            frame = base.copy()
            frame.positions = frame.positions[keep] + rng.normal(
                scale=0.02, size=(keep.size, 3)
            )
            frame.types = frame.types[keep]
            frames.append(frame)
        items.append(
            (frames, [neighbor_pairs(f, model.config.rcut) for f in frames])
        )
    return items


def same_bytes(got, ref):
    return (
        got.energy == ref.energy
        and np.array_equal(got.forces, ref.forces)
        and np.array_equal(got.virial, ref.virial)
        and np.array_equal(got.atom_energies, ref.atom_energies)
    )


@pytest.mark.parametrize("use_plan", [True, False], ids=["plan", "session"])
def test_storage_is_the_largest_shape_under_churn(model, use_plan):
    engine = BatchedEvaluator(model, use_plan=use_plan)
    scratch = engine.scratch
    largest_request: dict[str, int] = {}
    pool_get = scratch.get

    def recording_get(name, shape, dtype=np.float64):
        nbytes = prod(shape) * np.dtype(dtype).itemsize
        largest_request[name] = max(largest_request.get(name, 0), nbytes)
        return pool_get(name, shape, dtype)

    scratch.get = recording_get

    items = churn_items(model)
    order = [int(i) for i in np.random.default_rng(1).permutation(N_SHAPES)]
    # The largest shape runs among the last layouts held, not last: the
    # shapes after it re-make the pool around it.
    order.remove(0)
    order.insert(N_SHAPES - 10, 0)
    for i in order:
        frames, pair_lists = items[i]
        results = engine.evaluate_batch(frames, pair_lists)
        for frame, (pi, pj), got in zip(frames, pair_lists, results):
            assert same_bytes(got, model.evaluate_serial(frame, pi, pj))

    assert scratch.nbytes() == sum(largest_request.values())
    assert set(scratch._arrays) == set(largest_request)
    if use_plan:
        plan = engine.plan
        assert plan.stats.arena_builds == N_SHAPES
        assert len(plan.arenas) == plan_mod._MAX_LAYOUTS
        assert plan.stats.arena_evictions == N_SHAPES - plan_mod._MAX_LAYOUTS
        # Slab i is color i's largest need over the layouts held.  The
        # tape's interference graph is one, but first-fit by size opens the
        # colors of differently composed frames in different orders, so no
        # single layout has to be the largest at every index: the pool is
        # the largest layout's bytes to within a percent (equal when one
        # layout dominates, as batch sizes 1…8 of one system do).
        layouts = list(plan.arenas.values())
        largest = max(a.alloc_bytes for a in layouts)
        assert plan.arena_nbytes() == sum(
            map(max, zip_longest(*(a.caps for a in layouts), fillvalue=0))
        )
        assert largest <= plan.arena_nbytes() <= 1.01 * largest
        assert plan.arena_nbytes() < 0.1 * sum(a.alloc_bytes for a in layouts)

    # Warmed shapes again, the largest first: nothing is allocated.
    scratch_allocs = scratch.alloc_count
    plan_allocs = engine.plan.alloc_count() if use_plan else 0
    for i in [0] + order[-5:]:
        frames, pair_lists = items[i]
        got = engine.evaluate_batch(frames, pair_lists)[0]
        assert same_bytes(got, model.evaluate_serial(frames[0], *pair_lists[0]))
    assert scratch.alloc_count == scratch_allocs
    if use_plan:
        assert plan.alloc_count() == plan_allocs
        assert plan.stats.arena_builds == N_SHAPES

    # And everything goes at once.
    engine.release_buffers()
    assert scratch.nbytes() == 0
    if use_plan:
        assert plan.arena_nbytes() == 0 and not plan.arenas
    frames, pair_lists = items[3]
    got = engine.evaluate_batch(frames, pair_lists)[0]
    assert same_bytes(got, model.evaluate_serial(frames[0], *pair_lists[0]))
