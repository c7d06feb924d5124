"""Batched multi-replica DP evaluation — one graph run for R frames.

The paper's throughput lesson (and the follow-up line of work it spawned:
86-PFLOPS DPMD on Summit, 149 ns/day water) is that fixed per-evaluation
costs — graph dispatch, operator launch, Python bookkeeping — must be
amortized over as many atoms as possible.  This module applies that lesson
*across frames*: R replica systems (different seeds/temperatures, same model)
are stacked row-wise into one formatted-neighbor layout, pushed through a
single set of GEMMs, and un-stacked into per-replica results.

Design notes
------------
* Row stacking.  Every tensor in the DP hot path is "per local atom" along
  axis 0 (environment rows, embedding inputs, fitting outputs), so replicas
  concatenate trivially; neighbor indices are shifted by per-replica atom
  offsets so ProdForce's scatter-add lands each replica in its own span of
  one global force array.
* Locals-first ghost stacking.  Domain-decomposed sub-domain frames carry
  explicit ghost atoms (``nloc < n_atoms``, ``pbc=False``), and different
  ranks generally own different atom counts.  Such frames still stack into
  ONE formatted-neighbor layout: all frames' *local* atoms are concatenated
  first (rows 0..total_loc), all ghost atoms after, and each frame's pair
  list is remapped into that numbering.  Because the remap is monotonic
  (locals stay below ghosts, order preserved within each segment), the
  canonical neighbor sort — (type, distance, index) — produces exactly the
  per-frame order, so stacked sub-domain results stay bitwise identical to
  evaluating each rank's frame alone (the retained per-rank oracle).
* Shape bucketing.  :meth:`BatchedEvaluator.evaluate_frames` groups incoming
  frames by :func:`frame_bucket_key` — (pbc, natoms, nloc, box, type
  signature) — and issues one batched evaluation per bucket; frames whose
  key is unique coalesce into one residual bucket per ``pbc`` value, so a
  replica-ensemble of decomposed ranks costs a handful of graph runs per
  step instead of one per rank x replica.  The partition is recomputed on
  every call (3 µs for one frame, 85 µs for 64 sub-domain frames): a cache
  would save under 0.03 % of a step and need an invalidation protocol.
* One way in.  Every caller holding frames — the force backends, the
  serving worker — enters through :meth:`BatchedEvaluator.evaluate_frames`;
  ``evaluate_batch`` is the one stacked run it issues per bucket (and what
  ``DeepPot.evaluate`` calls for its single frame).  The engine has one
  operator set, the optimized one: Table 3's baseline operators are
  reachable only through ``DeepPot.evaluate_serial(backend="baseline")``,
  the reference path.
* Bitwise reproducibility.  For R=1 the stacked feeds are byte-identical to
  the serial path's, so energies/forces/virials match the serial engine
  bit-for-bit (asserted in ``tests/test_ensemble.py``).  For R>1 each
  replica's rows keep their serial-relative order under the stable type sort,
  so scatter-add orderings per force accumulator are unchanged as well; with
  tfmini's row-count-independent matrix-vector kernel (the fitting net's
  N=1 output layer — see ``_fwd_matmul_2d`` in :mod:`repro.tfmini.ops`),
  *every* per-replica quantity, energies and atomic energies included, is
  bitwise independent of batch composition.  This is the guarantee the
  serving layer (:mod:`repro.serving`) exposes to clients: a frame's result
  never depends on which other requests it was coalesced with.
* Persistent scratch.  The batch-scale staging buffers (normalized
  environment matrix, its derivative, displacements, shifted neighbor lists)
  live in a :class:`ScratchPool`, one buffer per name as large as the
  largest shape asked of it — the steady-state MD loop performs no new
  large allocations (asserted via ``ScratchPool.alloc_count`` in the tests).
* Compiled graph execution.  The networks run through a compiled
  execution plan (:mod:`repro.tfmini.plan`): the forward+backward DAG is
  topo-sorted once per engine, and every evaluation is a flat slot-indexed
  tape walk into a persistent, liveness-recycled slab pool — no per-run
  graph traversal, dict dispatch, or per-op output allocation.  Results stay
  bitwise identical to ``Session.run`` (the retained oracle; pass
  ``use_plan=False`` to execute through it for differential testing).
* The tape is per atom, so it streams.  The plan is fed the per-type
  environment rows and fetches dE/dR~ and the atomic energies — nothing on
  it couples two atoms.  An evaluation whose embedding output ``G`` exceeds
  :data:`BLOCK_BYTES` therefore runs the tape over equal-height row blocks
  (:meth:`BatchedEvaluator.block_heights`) through ONE layout the size of a
  block, not of the evaluation; a zoo-sized evaluation is one block.
  Per block, each embedding net runs on the real neighbour slots only (plus
  padded ones up to a bucketed capacity; the model's *compacted* graph —
  see :meth:`BatchedEvaluator._run_blocks` and :func:`section_capacity`),
  and everything after it sees the padded matrix it would have produced.
  ProdForce — the one operator that does couple atoms — is applied once to
  the whole stack outside the tape (:func:`~repro.dp.ops_optimized.
  scatter_forces`), where the virial already was, from the one
  ``slot = Σ_c nd·ed`` both share.  The ``use_plan=False`` engine and
  ``DeepPot.evaluate_serial`` keep the unblocked graph with its in-graph
  ProdForce and are the oracles.
* One engine, one thread.  The scratch pool, cached neighbor layouts, and
  the plan's slab pool are all mutable run state, so an engine must
  never be *executing* on two threads at once — one engine per driver
  thread (the serving pool gives every worker its own; see
  :mod:`repro.serving.worker`).  ``evaluate_batch`` guards the invariant:
  concurrent entry from a second thread raises instead of silently
  corrupting buffers.  Sequential use from different threads (warm on the
  main thread, then hand the engine to a worker) is fine.
"""

from __future__ import annotations

import threading
from itertools import accumulate
from math import prod
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.dp.nlist_fmt import (
    _MAX_INDEX,
    PAD,
    FormattedNeighbors,
    format_neighbors,
)
from repro.dp.ops_optimized import environment_op, scatter_forces
from repro.md.potential import PotentialResult
from repro.md.system import System

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a circular import
    from repro.dp.model import DeepPot


# Target bytes of the embedding output ``G`` one block of the plan holds:
# an evaluation whose ``G`` is larger runs its tape over several row blocks
# (see ``BatchedEvaluator.block_heights``).  Not a knob — one value, chosen
# on ``md_copper_fig3`` (``G`` = 45.06 MB; README "Blocked plan" has the
# sweep) and large enough that every zoo-sized evaluation (1.8-6.0 MB) is
# one block.
BLOCK_BYTES = 8_000_000

# OpenBLAS multiplies with a small-matrix kernel when M*N*K <= 10^6, and
# that kernel's rows differ in the last bit from the large kernel's (here
# ``(m, 25) @ (25, 50)`` for m <= 783, ``(m, 1600) @ (1600, 240)`` for
# m <= 2).  A block must never push a GEMM across that line.
_BLAS_SMALL_MNK = 10**6


def _embedding_gemm_work(config) -> list[int]:
    """``K * N`` of each embedding layer that is a BLAS GEMM (``K > 1``)."""
    emb = (1,) + tuple(config.embedding_layers)
    return [k * n for k, n in zip(emb, emb[1:]) if k > 1]


def min_block_rows(config) -> int:
    """Fewest rows of one type a block may hold (unless it holds them all).

    With this many centre atoms every GEMM of the block — ``rows * sel_b``
    embedding rows through each ``K -> N`` layer, ``rows`` descriptors
    through each fitting layer, and their backward twins — has
    ``M*N*K > 10^6`` and runs in the BLAS kernel whose rows do not depend
    on ``M``, which is what keeps a blocked evaluation bitwise equal to the
    unblocked one.  ``K = 1`` and ``N = 1`` layers are not BLAS GEMMs here
    (outer product; tfmini's row-wise matvec).  The same line floors the
    compacted capacity of a section (:func:`section_capacity`): compaction
    shrinks ``M`` of the embedding GEMMs, never across it.
    """
    sel = min(s for s in config.sel if s > 0)
    fit = (config.embedding_layers[-1] * config.axis_neuron,) + tuple(
        config.fitting_layers
    )
    work = [sel * kn for kn in _embedding_gemm_work(config)]
    work += [k * n for k, n in zip(fit, fit[1:])]
    return _BLAS_SMALL_MNK // min(work, default=_BLAS_SMALL_MNK) + 1


def section_capacity(config, padded: int, real: int) -> int:
    """Rows the embedding net of one section runs on, of its ``padded``
    neighbour slots per block, ``real`` of them (at most, over the blocks
    of the evaluation) holding a neighbour.

    ``real + 1`` slots — the extra one is the padded slot whose row fills
    the unlisted ones — rounded up to eighths of ``padded`` so that a
    drifting neighbour count rarely means a new feed signature, and never
    below the BLAS small-matrix line (see :func:`min_block_rows`); a
    section that cannot get under ``padded`` that way runs whole.  Eighths,
    not finer: at sixteenths zoo copper-256 (fill 0.9) would gather 15/16
    of its rows to save 6 % of the chain, and lose.
    """
    granule = max(padded // 8, 1)
    want = granule * -(-(real + 1) // granule)
    line = _BLAS_SMALL_MNK // min(
        _embedding_gemm_work(config), default=_BLAS_SMALL_MNK
    ) + 1
    return min(padded, max(want, line))


class _StackedFrame:
    """Duck-typed stand-in for :class:`System` covering R stacked replicas.

    Exposes exactly the attributes the neighbor formatter and the Environment
    operator read (positions/types/box/n_atoms/n_types), backed by the
    engine's pooled buffers — no dataclass validation or re-copy per step.
    """

    __slots__ = ("positions", "types", "box", "n_atoms", "n_types")

    def __init__(self, positions, types, box, n_types):
        self.positions = positions
        self.types = types
        self.box = box
        self.n_atoms = positions.shape[0]
        self.n_types = n_types


class ScratchPool:
    """Named persistent buffers for the batched hot path, one per name.

    ``get(name, shape, dtype)`` returns a view of the name's ONE flat
    buffer, which grows to the largest request made of it — so a driver
    alternating between batch shapes (e.g. R=1 MD steps interleaved with
    R=4 sampling batches) holds the memory of the largest and stops
    allocating once it has been seen.  The names are the engine's own
    (about twenty), so there is nothing to evict.  While ``(shape, dtype)``
    repeat, the same view object comes back; a smaller request is a prefix
    of the same bytes (``BatchedEvaluator._arange`` relies on that).
    ``alloc_count`` and ``alloc_bytes`` expose deterministic counters the
    buffer-reuse tests (and the batched benchmark) assert on.
    """

    def __init__(self) -> None:
        self._arrays: dict[str, np.ndarray] = {}  # name -> flat byte buffer
        self._views: dict[str, np.ndarray] = {}  # name -> last view handed out
        self.alloc_count = 0
        self.alloc_bytes = 0

    def get(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        view = self._views.get(name)
        if view is not None and view.shape == shape and view.dtype == dtype:
            return view
        dtype = np.dtype(dtype)
        nbytes = prod(shape) * dtype.itemsize
        flat = self._arrays.get(name)
        if flat is None or flat.nbytes < nbytes:
            # Outgrown: let go of it before allocating its replacement.
            flat = view = self._arrays[name] = self._views[name] = None
            flat = self._arrays[name] = np.empty(nbytes, np.uint8)
            self.alloc_count += 1
            self.alloc_bytes += nbytes
        view = self._views[name] = flat[:nbytes].view(dtype).reshape(shape)
        return view

    def nbytes(self) -> int:
        """Bytes currently held by the pool."""
        return sum(a.nbytes for a in self._arrays.values())

    def clear(self) -> None:
        self._arrays.clear()
        self._views.clear()


def frame_bucket_key(system, nloc: Optional[int] = None, pbc: bool = True) -> tuple:
    """Shape-bucket key of one evaluation frame.

    Frames sharing a key have identical (pbc, natoms, nloc, box, type
    signature) and can always share one stacked evaluation: same row count,
    same ghost split, same box (the PBC stacking requirement), and — because
    the type signature matches — a feed-shape signature that stays steady
    for the bucket's compiled-plan layout across steps.
    """
    n = int(system.n_atoms)
    nloc = n if nloc is None else int(nloc)
    # The box only constrains stacking under PBC (minimum image uses one
    # shared box); open-boundary frames never read it.
    box_sig = system.box.lengths.tobytes() if pbc else b""
    return (bool(pbc), n, nloc, box_sig, system.types.tobytes())


def plan_frame_buckets(keys: Sequence[tuple]) -> list[list[int]]:
    """Partition frame indices into evaluation buckets.

    Frames with equal :func:`frame_bucket_key` form one bucket (one stacked
    evaluation each).  Frames whose key is unique would each cost a graph
    run of their own, so they coalesce into one *residual* bucket per
    ``pbc`` value — the general staging path (and, for open-boundary
    frames, the locals-first stacked path) handles heterogeneous shapes in
    a single run.  Bucket order is deterministic: multi-frame buckets in
    first-appearance order, then the residual bucket(s).
    """
    groups: dict[tuple, list[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    buckets: list[list[int]] = []
    residual: dict[bool, list[int]] = {}
    for key, idxs in groups.items():
        if len(idxs) > 1:
            buckets.append(idxs)
        else:
            residual.setdefault(key[0], []).append(idxs[0])
    for idxs in residual.values():
        buckets.append(sorted(idxs))
    return buckets


class BatchedEvaluator:
    """Evaluates a stack of R frames through one DP graph execution.

    One instance per driver (a :class:`~repro.md.ensemble.EnsembleSimulation`
    or a single-replica :class:`~repro.md.simulation.Simulation`) keeps the
    scratch shapes steady; the model itself stays stateless across engines.
    """

    def __init__(self, model: "DeepPot", use_plan: bool = True):
        self.model = model
        self.scratch = ScratchPool()
        self.use_plan = use_plan
        self._plan = None  # compiled lazily: one topo_sort per engine
        # Reusable neighbor layouts (nlist storage recycling), keyed by
        # ("stacked", rows, atoms) or (replica, rows) so alternating batch
        # shapes keep their own layouts instead of thrashing one slot.
        # Bounded: stacked keys drift with migration (total atom counts
        # change on reneighboring), so the oldest layout is dropped FIFO
        # beyond the cap instead of retaining every shape ever seen.
        self._fmts: dict[tuple, FormattedNeighbors] = {}
        self.max_fmt_layouts = 32
        self.fmt_evictions = 0
        self.batch_evaluations = 0
        self.frames_evaluated = 0
        # True neighbors the formatter discarded because a type block
        # overflowed ``sel`` (sum of ``FormattedNeighbors.n_dropped`` over
        # every layout built): non-zero means truncated descriptors.
        self.neighbors_dropped = 0
        # One-engine-one-thread guard: the thread currently inside
        # evaluate_batch (None when idle), compare-and-set under a lock so
        # simultaneous entry cannot slip past the check.  Scratch buffers
        # and the plan's pool are per-engine run state, so concurrent entry is
        # always a caller bug (share the model, not the engine).
        self._active_thread: Optional[int] = None
        self._guard_lock = threading.Lock()
        # Staging-path counters: frames that arrive as separate requests
        # (the serving layer) only take the single-pass stacked path when
        # their boxes match; these counters let callers see which path a
        # workload actually exercised.
        self.stacked_batches = 0
        self.general_batches = 0
        # Ghost-mode stacked batches (locals-first layout, nloc < n_atoms
        # somewhere in the stack) — the domain-decomposition fast path.
        self.ghost_stacked_batches = 0
        # Sort-stage counters: batches whose rows were already type-sorted
        # skip the per-feed gather copies entirely (identity staging) —
        # single-type models (copper) hit this on every evaluation; the
        # rest gather into scratch.
        self.stage_identity = 0
        self.stage_gathers = 0
        # evaluate_frames: bucketed evaluations issued (one per bucket).
        self.bucket_evaluations = 0
        # Per evaluation shape (the block heights): the highest compacted
        # capacity of each section so far (see ``_run_blocks``); bounded
        # like ``_fmts``.  ``capacity_growths`` counts the times one grew.
        self._capacities: dict[tuple, tuple] = {}
        self.capacity_growths = 0

    @property
    def plan(self):
        """The engine's compiled execution plan (lazily compiled).

        Fed by the per-type environment rows and, per (centre type,
        neighbour type) section, the listing of the neighbour slots its
        embedding net is run on (the model's *compacted* graph — see
        :meth:`_run_blocks`); fetches, per type, dE/dR~ and the atomic
        energies — every quantity on the tape is per atom, so
        :meth:`_run_blocks` may run it on any row block.  The plan is
        per-engine — like the scratch pool, each driver keeps its own
        so shapes stay steady.
        """
        if self._plan is None:
            from repro.tfmini.plan import compile_plan

            m = self.model
            self._plan = compile_plan(
                list(m._f_net_derivs_compact) + list(m._f_e_atoms_compact),
                list(m.ph_env) + list(m.ph_rows),
                copy_fetches=False,  # each block's rows are consumed at once
            )
        return self._plan

    def block_heights(self, rows_per_type: Sequence[int]) -> tuple[int, list[int]]:
        """``(n_blocks, rows of each type per block)`` for one evaluation.

        The target count is the evaluation's embedding output ``G`` —
        ``(rows, nnei, M1)`` in the network dtype, the widest activation on
        the tape — over :data:`BLOCK_BYTES`, rounded up.  Every block holds
        the same ``h_t = ceil(n_t / target)`` rows of type ``t`` (so one feed
        signature, one layout, whatever the remainders are); the last
        blocks start early enough to end at row ``n_t`` and recompute at
        most ``n_blocks - 1`` rows per type.  A type is never cut below
        :func:`min_block_rows` rows: it is run whole in every block instead.
        """
        cfg = self.model.config
        g_bytes = (
            sum(rows_per_type) * cfg.nnei * cfg.embedding_layers[-1]
            * np.dtype(cfg.compute_dtype).itemsize
        )
        target = max(1, -(-g_bytes // BLOCK_BYTES))
        floor = min_block_rows(cfg)
        heights = [min(n, max(-(-n // target), floor)) for n in rows_per_type]
        n_blocks = max(
            [1] + [-(-n // h) for n, h in zip(rows_per_type, heights) if h]
        )
        return n_blocks, heights

    def _run_blocks(self, em_t, ed_sorted, nlist_sorted, bounds, slot) -> np.ndarray:
        """Run the plan over row blocks of the type-sorted environment rows.

        ``em_t[t]`` holds type ``t``'s rows, rows ``bounds[t]:bounds[t + 1]``
        of the sorted order ``ed_sorted`` and ``nlist_sorted`` are in.  Each
        block's dE/dR~ is contracted with its ``ed_sorted`` rows straight
        into ``slot`` (dE/dd per neighbor slot — all the force and virial
        assembly reads of it); returns the atomic energies in sorted order
        (persistent scratch).  Rows are independent on the tape and in the
        contraction, so the blocking cannot change a bit.

        Nor can the listings.  Per block and section the embedding net runs
        on ``capacity`` of the ``h * sel_b`` slots: the real ones
        (``nlist_sorted != PAD``), then padded ones up to the capacity —
        at least one, whose row fills every unlisted slot (all padded slots
        of a section share one ``s = -davg / dstd``, hence one row of
        ``G``).  Any capacity above the real count gives the same bits, so
        each evaluation shape keeps the highest :func:`section_capacity` it
        has needed — one feed signature, one layout — and when that grows,
        the layout it outgrew holds no memory: the plan's pool is sized by
        the largest, and the new one is larger in every buffer.
        """
        cfg = self.model.config
        n_types = len(em_t)
        rows = [em.shape[0] for em in em_t]
        n_blocks, heights = self.block_heights(rows)
        starts = [
            [min(b * h, n - h) for h, n in zip(heights, rows)]
            for b in range(n_blocks)
        ]
        real = nlist_sorted != PAD
        cols = [0, *accumulate(cfg.sel)]  # slot columns of each neighbour type

        def section(b, t, nb):
            lo = bounds[t] + starts[b][t]
            return real[lo : lo + heights[t], cols[nb] : cols[nb + 1]]

        sections = [(t, nb) for t in range(n_types) for nb in range(n_types)]
        caps = tuple(
            section_capacity(
                cfg,
                heights[t] * cfg.sel[nb],
                max(int(np.count_nonzero(section(b, t, nb))) for b in range(n_blocks)),
            )
            for t, nb in sections
        )
        shape = tuple(heights)
        held = self._capacities.get(shape, caps)
        if any(c > h for c, h in zip(caps, held)):
            self.capacity_growths += 1
        caps = self._capacities[shape] = tuple(map(max, caps, held))
        while len(self._capacities) > self.max_fmt_layouts:
            self._capacities.pop(next(iter(self._capacities)))

        e_sorted = self.scratch.get("e_sorted", (sum(rows),))
        for b in range(n_blocks):
            listings = []
            for (t, nb), cap in zip(sections, caps):
                if cap == heights[t] * cfg.sel[nb]:
                    listings.append(self._arange(cap))
                    continue
                # Real slots in ascending order, then padded ones.
                order = np.argsort(~section(b, t, nb).reshape(-1), kind="stable")
                listing = self.scratch.get(f"rows_t{t}_b{nb}", (cap,), np.int64)
                listing[:] = order[:cap]
                listings.append(listing)
            out = self.plan.run_list(
                [em[s : s + h] for em, s, h in zip(em_t, starts[b], heights)]
                + listings,
                session=self.model.session,
            )
            for t, (s, h) in enumerate(zip(starts[b], heights)):
                lo = bounds[t] + s
                np.einsum(
                    "ijc,ijck->ijk", out[t], ed_sorted[lo : lo + h],
                    out=slot[lo : lo + h],
                )
                e_sorted[lo : lo + h] = out[n_types + t]
        return e_sorted

    def _arange(self, n: int) -> np.ndarray:
        """The listing of every row of an ``n``-slot section: a prefix of
        one ``np.arange`` that grows to the longest section asked for."""
        allocs = self.scratch.alloc_count
        listing = self.scratch.get("arange", (n,), np.int64)
        if self.scratch.alloc_count != allocs:
            listing[:] = np.arange(n)
        return listing

    def _remember_fmt(self, key: tuple, fmt: FormattedNeighbors) -> None:
        """Retain a neighbor layout for ``out=`` reuse, FIFO-bounded."""
        self._fmts[key] = fmt
        while len(self._fmts) > self.max_fmt_layouts:
            self._fmts.pop(next(iter(self._fmts)))
            self.fmt_evictions += 1

    def release_buffers(self) -> None:
        """Drop all persistent storage: scratch pool, cached neighbor
        layouts, compacted capacities, and the compiled plan's slab pool
        (the compiled tape survives).  The next evaluation re-warms; results
        are unaffected.  Useful before allocation-sensitive measurements or
        when a shape regime is finished."""
        self.scratch.clear()
        self._fmts.clear()
        self._capacities.clear()
        if self._plan is not None:
            self._plan.release_arenas()

    # ------------------------------------------------------------------ core

    def evaluate_batch(
        self,
        systems: Sequence[System],
        pair_lists: Sequence[tuple[np.ndarray, np.ndarray]],
        nlocs: Optional[Sequence[int]] = None,
        pbc: bool = True,
    ) -> list[PotentialResult]:
        """Energies/forces/virials for R frames in one batched graph run.

        Parameters
        ----------
        systems:
            R snapshots sharing the model's type vocabulary.  Replicas may
            differ in atom count (they are stacked by rows, not reshaped).
        pair_lists:
            Per-replica half neighbor-pair lists ``(pair_i, pair_j)``.
        nlocs:
            Optional per-replica local-atom counts for the ghost/domain-
            decomposition mode (defaults to all atoms local).
        pbc:
            Minimum-image displacements (True) or raw displacements for
            decomposed sub-domains whose images are explicit ghosts (False).

        Returns
        -------
        One :class:`PotentialResult` per replica, bitwise identical to what
        the serial path would produce for that replica alone.

        Raises
        ------
        RuntimeError
            On concurrent entry from a second thread — the engine's scratch
            pool and the plan's are single-threaded run state (the
            one-engine-one-thread invariant; give each thread its own
            engine).
        """
        me = threading.get_ident()
        with self._guard_lock:
            owner = self._active_thread
            if owner is not None and owner != me:
                raise RuntimeError(
                    "BatchedEvaluator entered concurrently from two threads "
                    f"(owner thread {owner}, caller {me}); engines hold "
                    "single-threaded scratch/arena state — use one engine "
                    "per thread (see repro.serving's worker pool)"
                )
            self._active_thread = me
        try:
            return self._evaluate_batch(systems, pair_lists, nlocs, pbc)
        finally:
            with self._guard_lock:
                if self._active_thread == me:
                    self._active_thread = None

    def _evaluate_batch(
        self,
        systems: Sequence[System],
        pair_lists: Sequence[tuple[np.ndarray, np.ndarray]],
        nlocs: Optional[Sequence[int]],
        pbc: bool,
    ) -> list[PotentialResult]:
        model = self.model
        cfg = model.config
        R = len(systems)
        if R == 0:
            return []
        if len(pair_lists) != R:
            raise ValueError(f"{R} systems but {len(pair_lists)} pair lists")
        nlocs = (
            [s.n_atoms for s in systems]
            if nlocs is None
            else [int(n) for n in nlocs]
        )
        if len(nlocs) != R:
            raise ValueError(f"{R} systems but {len(nlocs)} nloc entries")

        nnei = cfg.nnei
        n_atoms = [s.n_atoms for s in systems]
        if any(nlocs[r] > n_atoms[r] or nlocs[r] < 0 for r in range(R)):
            raise ValueError("nloc entries must satisfy 0 <= nloc <= n_atoms")
        n_ghost = [n_atoms[r] - nlocs[r] for r in range(R)]
        atom_off = np.concatenate([[0], np.cumsum(n_atoms)])
        loc_off = np.concatenate([[0], np.cumsum(nlocs)])
        ghost_off = np.concatenate([[0], np.cumsum(n_ghost)])
        total_atoms = int(atom_off[-1])
        total_loc = int(loc_off[-1])
        full_local = total_loc == total_atoms

        scratch = self.scratch
        em_n = scratch.get("em_n", (total_loc, nnei, 4))
        ed_n = scratch.get("ed_n", (total_loc, nnei, 4, 3))
        rij = scratch.get("rij", (total_loc, nnei, 3))
        gidx = scratch.get("gidx", (total_loc,), np.int64)
        rep_of_row = scratch.get("rep", (total_loc,), np.int64)

        # Per-frame unstacking metadata, filled by whichever staging branch
        # runs: ``own_base[r]`` is the global row index of frame r's first
        # local atom, ``force_spans[r]`` the (start, count) segments of the
        # global force array that belong to frame r, in frame-local order.
        own_base: list[int]
        force_spans: list[list[tuple[int, int]]]

        # --- stage the replicas into one formatted-neighbor layout ---------
        # Fast path: the whole batch is stacked into a single virtual frame,
        # so it is formatted by ONE formatter pass and one Environment-operator
        # call (neighbor indices never cross replica spans because each frame's
        # pair list is remapped into its own row span).  Per-frame Python
        # staging cost — the fixed cost the engine exists to amortize — is
        # paid once per batch instead of once per frame.  Two stackable
        # regimes:
        #
        # * full-local frames under PBC sharing one box (the ensemble /
        #   serving case) — frames concatenate contiguously;
        # * open-boundary frames (``pbc=False``: domain-decomposed
        #   sub-domains with explicit ghosts) with ANY mix of nloc — all
        #   locals are stacked first, all ghosts after ("locals-first"
        #   layout), and the pair-list remap is monotonic, so the canonical
        #   (type, dist, index) neighbor sort reproduces each frame's
        #   standalone order bit-for-bit.
        #
        # The general path stages replica-by-replica and covers the rest:
        # mixed boxes under PBC and codec overflow (a stack of >= 10^5
        # atoms).
        stackable = (not cfg.use_compression or total_atoms < _MAX_INDEX) and (
            not pbc
            or (
                full_local
                and all(
                    np.array_equal(s.box.lengths, systems[0].box.lengths)
                    for s in systems[1:]
                )
            )
        )
        if stackable:
            self.stacked_batches += 1
            if not full_local:
                self.ghost_stacked_batches += 1
            pos_cat = scratch.get("pos", (total_atoms, 3))
            types_all = scratch.get("types", (total_atoms,), np.int64)
            types_cat = types_all[:total_loc]
            npairs = [len(pair_lists[r][0]) for r in range(R)]
            pair_off = np.concatenate([[0], np.cumsum(npairs)])
            n_pairs = int(pair_off[-1])
            # Pair counts drift a little on every neighbor-list rebuild, so
            # the staging slabs are sized to the next power of two and
            # sliced — bounded distinct shapes (and allocations) over a long
            # run, instead of one dead buffer pair per rebuild.
            cap = 1 << max(n_pairs - 1, 1).bit_length()
            pi_cat = scratch.get("pair_i", (cap,), np.int64)[:n_pairs]
            pj_cat = scratch.get("pair_j", (cap,), np.int64)[:n_pairs]
            own_base = [int(loc_off[r]) for r in range(R)]
            force_spans = []
            for r in range(R):
                nloc_r, g = nlocs[r], n_ghost[r]
                llo, lhi = int(loc_off[r]), int(loc_off[r + 1])
                pos_cat[llo:lhi] = systems[r].positions[:nloc_r]
                types_all[llo:lhi] = systems[r].types[:nloc_r]
                spans = [(llo, nloc_r)]
                if g:
                    glo = total_loc + int(ghost_off[r])
                    pos_cat[glo : glo + g] = systems[r].positions[nloc_r:]
                    types_all[glo : glo + g] = systems[r].types[nloc_r:]
                    spans.append((glo, g))
                force_spans.append(spans)
                gidx[llo:lhi] = np.arange(llo, lhi)
                rep_of_row[llo:lhi] = r
                plo, phi = int(pair_off[r]), int(pair_off[r + 1])
                pi_r, pj_r = pair_lists[r]
                if g == 0:
                    np.add(pi_r, llo, out=pi_cat[plo:phi])
                    np.add(pj_r, llo, out=pj_cat[plo:phi])
                else:
                    # Monotonic remap: local index a -> llo + a, ghost index
                    # a -> total_loc + ghost_off[r] + (a - nloc_r).  Locals
                    # stay below every ghost, so (type, dist, index)
                    # tie-breaking orders neighbors exactly as in the
                    # standalone frame.
                    ghost_shift = total_loc + int(ghost_off[r]) - nloc_r
                    for src, dst in ((pi_r, pi_cat[plo:phi]), (pj_r, pj_cat[plo:phi])):
                        np.add(src, llo, out=dst)
                        hi_rows = src >= nloc_r
                        dst[hi_rows] = src[hi_rows] + ghost_shift
            stacked = _StackedFrame(
                pos_cat, types_all, systems[0].box, systems[0].n_types
            )
            fmt_key = ("stacked", total_loc, total_atoms)
            fmt = format_neighbors(
                stacked, pi_cat, pj_cat, cfg.rcut, cfg.sel,
                use_compression=cfg.use_compression, nloc=total_loc, pbc=pbc,
                out=self._fmts.get(fmt_key),
            )
            self._remember_fmt(fmt_key, fmt)
            self.neighbors_dropped += fmt.n_dropped
            environment_op(
                stacked, fmt, cfg.rcut_smth, cfg.rcut, pbc=pbc,
                out=(em_n, ed_n, rij),
            )
            slot_t = fmt.slot_types()
            davg = model.davg[slot_t]  # (nnei, 4)
            dstd = model.dstd[slot_t]
            np.subtract(em_n, davg, out=em_n)
            np.divide(em_n, dstd, out=em_n)
            np.divide(ed_n, dstd[..., None], out=ed_n)
            nlist_g = fmt.nlist  # already in the global numbering
        else:
            self.general_batches += 1
            types_cat = scratch.get("types_loc", (total_loc,), np.int64)
            nlist_g = scratch.get("nlist", (total_loc, nnei), np.int64)
            own_base = [int(atom_off[r]) for r in range(R)]
            force_spans = [
                [(int(atom_off[r]), n_atoms[r])] for r in range(R)
            ]
            row = 0
            for r in range(R):
                system, (pi, pj) = systems[r], pair_lists[r]
                nloc = nlocs[r]
                fmt_key = (r, nloc)
                fmt = format_neighbors(
                    system, pi, pj, cfg.rcut, cfg.sel,
                    use_compression=cfg.use_compression, nloc=nloc, pbc=pbc,
                    out=self._fmts.get(fmt_key),
                )
                self._remember_fmt(fmt_key, fmt)
                self.neighbors_dropped += fmt.n_dropped
                sl = slice(row, row + nloc)
                environment_op(
                    system, fmt, cfg.rcut_smth, cfg.rcut, pbc=pbc,
                    out=(em_n[sl], ed_n[sl], rij[sl]),
                )

                # Normalize in place (same elementwise ops as the serial path).
                slot_t = fmt.slot_types()
                davg = model.davg[slot_t]  # (nnei, 4)
                dstd = model.dstd[slot_t]
                np.subtract(em_n[sl], davg, out=em_n[sl])
                np.divide(em_n[sl], dstd, out=em_n[sl])
                np.divide(ed_n[sl], dstd[..., None], out=ed_n[sl])

                # Shift neighbor indices into the global atom numbering.
                np.add(fmt.nlist, atom_off[r], out=nlist_g[sl])
                nlist_g[sl][fmt.nlist == PAD] = PAD

                types_cat[sl] = system.types[:nloc]
                gidx[sl] = np.arange(atom_off[r], atom_off[r] + nloc)
                rep_of_row[sl] = r
                row += nloc

        # --- one type-sorted row set for the whole stack -------------------
        # Identity fast path: when the stacked rows are already type-sorted
        # (every single-type model — copper — and any pre-sorted frame), the
        # sort is the identity permutation, so the gather copies are skipped
        # entirely and the staging buffers are used as-is (per-type blocks
        # are contiguous row slices).  Otherwise the per-type environment
        # rows — the plan's feeds — and the geometry tensors the
        # force/virial assembly reads are gathered into engine scratch.
        if total_loc == 0 or bool(np.all(types_cat[:-1] <= types_cat[1:])):
            self.stage_identity += 1
            sorted_types = types_cat
            sorted_rep = rep_of_row
            gidx_sorted = gidx
            bounds = np.searchsorted(types_cat, np.arange(cfg.n_types + 1))
            em_t = [em_n[bounds[t] : bounds[t + 1]] for t in range(cfg.n_types)]
            ed_sorted, rij_sorted, nlist_sorted = ed_n, rij, nlist_g
        else:
            self.stage_gathers += 1
            order = np.argsort(types_cat, kind="stable")
            sorted_types = types_cat[order]
            sorted_rep = rep_of_row[order]
            bounds = np.searchsorted(sorted_types, np.arange(cfg.n_types + 1))
            gidx_sorted = scratch.get("atom_idx", (total_loc,), np.int64)
            np.take(gidx, order, out=gidx_sorted)
            ed_sorted = scratch.get("ed_sorted", ed_n.shape)
            np.take(ed_n, order, axis=0, out=ed_sorted)
            rij_sorted = scratch.get("rij_sorted", rij.shape)
            np.take(rij, order, axis=0, out=rij_sorted)
            nlist_sorted = scratch.get("nlist_sorted", nlist_g.shape, np.int64)
            np.take(nlist_g, order, axis=0, out=nlist_sorted)
            em_t = []
            for t in range(cfg.n_types):
                idx_t = order[bounds[t] : bounds[t + 1]]
                em = scratch.get(f"em_t{t}", (idx_t.size, nnei, 4))
                np.take(em_n, idx_t, axis=0, out=em)
                em_t.append(em)

        # --- the tape: dE/dR~ and atomic energies, per atom ----------------
        # ``slot`` is dE/dd per neighbor slot, computed once for the whole
        # stack: the force scatter and every per-replica virial below read
        # it (the contraction ProdForce and ProdVirial each perform in the
        # graph).
        slot = scratch.get("slot", (total_loc, nnei, 3))
        if self.use_plan:
            e_sorted = self._run_blocks(
                em_t, ed_sorted, nlist_sorted, bounds, slot
            )
            forces_all = scatter_forces(
                slot, nlist_sorted, gidx_sorted, np.empty((total_atoms, 3))
            )
        else:
            # Reference oracle: ONE unblocked Session.run of the whole
            # stack with the in-graph ProdForce, as evaluate_serial does.
            feed_nodes = list(model.ph_env) + [
                model.ph_em_deriv,
                model.ph_nlist,
                model.ph_atom_idx,
                model.ph_natoms,
            ]
            feed_vals = em_t + [
                ed_sorted,
                nlist_sorted,
                gidx_sorted,
                np.array([total_atoms], dtype=np.int64),
            ]
            fetches = [model._f_forces, model._f_net_deriv] + list(model._f_e_atoms)
            out = model.session.run(fetches, dict(zip(feed_nodes, feed_vals)))
            forces_all = out[0]
            np.einsum("ijc,ijck->ijk", out[1], ed_sorted, out=slot)
            e_sorted = np.concatenate(out[2:])
        e_atoms_t = [
            e_sorted[bounds[t] : bounds[t + 1]] for t in range(cfg.n_types)
        ]
        self.batch_evaluations += 1
        self.frames_evaluated += R

        # --- un-stack into per-replica results -----------------------------
        rep_per_type = [sorted_rep[sorted_types == t] for t in range(cfg.n_types)]

        results: list[PotentialResult] = []
        for r in range(R):
            system, nloc = systems[r], nlocs[r]
            local_types = system.types[:nloc]

            # Energy: per-type partial sums added in type order — the exact
            # reduction order of the serial graph (reduce_sum per type, then
            # a left-to-right add chain), so R=1 stays bitwise identical.
            energy = 0.0
            first = True
            for t in range(cfg.n_types):
                e_t = e_atoms_t[t]
                if R > 1:
                    e_t = e_t[rep_per_type[t] == r]
                part = np.sum(e_t)
                energy = part if first else energy + part
                first = False

            atom_e = np.empty(nloc)
            if R == 1:
                atom_e[gidx_sorted] = e_sorted
                virial = -np.einsum("ija,ijb->ab", rij_sorted, slot)
                forces = forces_all  # fresh every evaluation: the caller's
            else:
                rows_r = sorted_rep == r
                atom_e[gidx_sorted[rows_r] - own_base[r]] = e_sorted[rows_r]
                virial = -np.einsum(
                    "ija,ijb->ab", rij_sorted[rows_r], slot[rows_r]
                )
                spans = force_spans[r]
                if len(spans) == 1:
                    lo, count = spans[0]
                    forces = forces_all[lo : lo + count].copy()
                else:
                    # Locals-first ghost stacking: frame r's forces live in a
                    # local segment and a ghost segment; concatenating them
                    # restores the frame's own (locals, ghosts) row order.
                    forces = np.concatenate(
                        [forces_all[lo : lo + count] for lo, count in spans]
                    )
            atom_e += model.e0[local_types]
            total = float(energy + model.e0[local_types].sum())
            results.append(
                PotentialResult(total, forces, virial, atom_energies=atom_e)
            )
        return results

    # ------------------------------------------------------------ bucketing

    def evaluate_frames(self, frames: Sequence) -> list[PotentialResult]:
        """Shape-bucketed evaluation: one batched graph run per bucket.

        The one way every caller enters the engine.  ``frames`` are frame
        objects exposing ``system``, ``pair_i``, ``pair_j``, ``nloc``
        (``None`` = all local) and ``pbc`` — see
        :class:`repro.dp.backend.ForceFrame`.  They are partitioned by
        :func:`frame_bucket_key` via :func:`plan_frame_buckets` on every
        call, so the partition always describes the frames at hand.

        Results come back in frame order, each bitwise identical to
        evaluating its frame alone (the per-frame oracle).
        """
        frames = list(frames)
        buckets = plan_frame_buckets(
            [frame_bucket_key(f.system, f.nloc, f.pbc) for f in frames]
        )
        results: list[Optional[PotentialResult]] = [None] * len(frames)
        for bucket in buckets:
            sub = [frames[i] for i in bucket]
            out = self.evaluate_batch(
                [f.system for f in sub],
                [(f.pair_i, f.pair_j) for f in sub],
                nlocs=[
                    f.system.n_atoms if f.nloc is None else int(f.nloc)
                    for f in sub
                ],
                pbc=sub[0].pbc,  # the key's first entry: uniform per bucket
            )
            self.bucket_evaluations += 1
            for i, res in zip(bucket, out):
                results[i] = res
        return results  # type: ignore[return-value]
