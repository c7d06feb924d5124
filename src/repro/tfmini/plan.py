"""Compiled execution plans — tfmini's steady-shape fast path.

``Session.run`` pays a set of fixed costs on every call: a full
:func:`~repro.tfmini.graph.topo_sort` of the fetched DAG, an id-keyed dict
lookup per node input, and a fresh output allocation for every operator.
Those are exactly the per-step fixed costs the paper removes from the TF
execution graph (Sec 5.3 fusions, Table 3 custom ops), and in an MD loop
they are pure waste: the graph never changes and — because MD shapes are
steady — neither do the tensor shapes.

:func:`compile_plan` runs ONE pipeline, once per graph (ngraph's classic
memory-planning playbook, applied to our tape).  There are no plan-tuning
knobs: each stage's choice won or tied end to end on the ``bench/`` harness
against its alternatives (other schedules, colouring orders, a fusing
kernel backend, thread-forked spans), so only the winner is here.

1. **Tape build** — the DAG is topo-sorted and flattened into a dense tape
   of records ``(forward, input_slots, attrs, out_slot)`` indexed by
   integer *slots*.  Executing the plan is a flat loop over the tape — no
   sorting, no dict-by-id, no isinstance dispatch per node.
2. **Liveness list-schedule** — records are reordered, data dependencies
   respected, by a greedy last-consumer-first list scheduler that shrinks
   value liveness ranges before allocation.  Deterministic (ties break on
   the topological index), and because tape records are pure (variables
   are updated *outside* the graph) the reordering cannot change a bit of
   any result.  One reverse sweep over the scheduled tape then marks a
   record *needed* when its output is a fetch or is read, at a position
   its reader's ``OpDef.shape_only`` does not list, by a needed record.
   The rest are **shape probes**: records whose *values* no kernel ever
   reads — the pre-fusion ``matmul(h, W)`` that survives only as the
   ``like`` of a ``reduce_to_shape(g, like)`` in the backward graph, which
   is built before the Sec 5.3 passes run.  A probe runs in the warm run
   of each feed-shape signature (that is how its shape is learned) and
   never in a steady run; its slot then holds a zero-stride stand-in of
   the right shape and dtype.  There is no switch: ``Session.run``, which
   computes everything, is the oracle.
3. **Value liveness / storage groups** — the last *value* read by a needed
   record, per storage group, on the scheduled order.  A shape read does
   not keep bytes alive: the slot still holds the pool view object,
   whose shape outlives its bytes.  A view op (``OpDef.view_of``:
   ``reshape``, ``item``, ``split_part``, ...) shares its output's storage
   group with that one input, so recycling can never clobber a live view.
4. **Interference coloring** — once per feed-shape signature (shapes are
   known after one warm run) the plan builds the interference graph over
   the needed buffer-producing records (two interfere when their liveness
   ranges ``[tape index, storage-group death]`` overlap) and colors it
   first-fit in order of decreasing size; each color is ONE byte slab as
   large as its largest member, and every record's output buffer is a
   view into its color's slab.  Unlike the PR 3 FIFO recycler — which
   reused a buffer only for a later record with the *exact same shape and
   dtype* — coloring shares storage across shapes, so the footprint drops
   to roughly the peak live set.  The FIFO allocator's footprint is still
   simulated per layout (``BufferArena.fifo_nbytes``) as the regression
   baseline; the colored result is re-verified by the static plan checker
   (P101–P105) whenever ``REPRO_VERIFY_PLANS=1``/``verify=True`` is set.

Execution is one sequential steady loop (plus its profiled twin) handing
persistent per-record output buffers to the destination-passing (``out=``)
kernel variants registered in :mod:`repro.tfmini.ops`.  Ops without an
``out=`` kernel fall back to allocate-and-copy-into-slot (the slot buffer
stays stable; only the op's own temporary churns).

One run executes at a time and nothing it leaves in its buffers is read by
the next (fetches are copied out or consumed first; probe stand-ins and
constants live outside), so storage follows the largest shape, not every
shape: the plan owns ONE pool of color slabs — slab *i* as large as color
*i* of any signature held — and a signature's :class:`BufferArena` is a
*layout*, the color, offset, shape and dtype of each record's destination,
bound into the pool as views.

When a feed arrives with a new shape signature the plan re-plans
automatically: it drops the pool, then one extra "warm" run executes every
record, probes included, through the plain kernels — replacing each value
by its stand-in once nothing later reads it, so peak memory is the live
set, not the sum of all outputs and never the live set *beside* the pool
being replaced — colors the shapes left in the slot table into a layout,
and allocates the pool anew as the per-color maximum over the layouts
held.  Previously-seen signatures keep their layouts (at most
``_MAX_LAYOUTS``) and re-bind lazily, so drivers alternating between batch
shapes (R=1 MD steps interleaved with R=8 serving batches) stop allocating
once each shape has been seen, and hold the memory of the largest.

Numerical contract: a plan run is **bitwise identical** to ``Session.run``
on the same fetches and feeds — every ``out=`` kernel reproduces its
allocating twin bit-for-bit, and records are pure, so the schedule cannot
matter.  ``Session.run`` is the one reference oracle
(``tests/test_tfmini_plan.py`` and ``tests/test_plan_pipeline.py`` assert
the correspondence across the model zoo, graph-fused and unfused graphs,
batched evaluation and a training step).

Profiling: pass the owning :class:`~repro.tfmini.executor.Session` to
:meth:`ExecutionPlan.run`; when ``session.profile`` is set the plan records
per-operator wall time, FLOPs and bytes into ``session.stats`` exactly like
``Session.run`` — the Fig-3 operator breakdown works unchanged on planned
execution.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import zip_longest
from typing import Optional, Sequence

import numpy as np

from repro.tfmini.executor import _result_nbytes
from repro.tfmini.graph import Node, Variable, topo_sort
from repro.tfmini.ops import get_op, op_flops

_INF = 1 << 62

# Execution modes for tape records.
_MODE_OUT = 0  # destination-passing kernel into a pool buffer
_MODE_COPY = 1  # allocating kernel, result copied into a stable pool buffer
_MODE_ALIAS = 2  # OpDef.view_of: output may view that input; run as-is

# Byte alignment for views carved out of a color's slab (covers every numpy
# dtype and keeps tuple parts cache-line separated).
_ALIGN = 64

# Layouts (metadata, no buffers) a plan keeps, oldest dropped first: a
# workload cycling through more feed-shape signatures than this re-warms
# the dropped ones on revisit.  Steady workloads never get here.
_MAX_LAYOUTS = 32


def _stand_in(value):
    """Zero-stride placeholder with ``value``'s shape and dtype (and, for
    tuple outputs, arity): what a slot holds once its bytes are gone."""
    if isinstance(value, np.ndarray):
        return np.broadcast_to(np.zeros((), value.dtype), value.shape)
    if isinstance(value, tuple):
        return tuple(_stand_in(v) for v in value)
    return value


@dataclass
class PlanStats:
    """Deterministic counters the plan tests and benchmarks assert on."""

    topo_sorts: int = 0  # graph traversals performed (1 per compile)
    arena_builds: int = 0  # warm runs: first sight of a feed-shape signature
    arena_evictions: int = 0  # layouts dropped by the _MAX_LAYOUTS cap
    runs: int = 0  # total executions, warm and steady


class _Record:
    """One operator application on the flattened tape."""

    __slots__ = (
        "node",
        "op",
        "forward",
        "forward_out",
        "input_slots",
        "attrs",
        "out_slot",
        "mode",
        "needed",
    )

    def __init__(self, node, forward, forward_out, input_slots, attrs, out_slot, mode):
        self.node = node
        self.op = node.op
        self.forward = forward
        self.forward_out = forward_out
        self.input_slots = input_slots
        self.attrs = attrs
        self.out_slot = out_slot
        self.mode = mode
        self.needed = True  # False: a shape probe (set by _mark_needed)

    def value_slots(self):
        """Input slots whose *values* the kernel reads."""
        shape_only = get_op(self.op).shape_only
        return [s for pos, s in enumerate(self.input_slots)
                if pos not in shape_only]


class BufferArena:
    """The storage layout of one feed-shape signature in the plan's pool.

    ``units`` is the layout proper: ``(tape index, color, parts, key)`` per
    needed buffer-producing record — ``key`` its ``(shape, dtype)``, or
    ``parts`` the ``(shape, dtype, offset)`` of each element of a tuple
    output — and ``caps`` the bytes each color needs for this signature,
    ``alloc_bytes`` in total.  ``probes`` holds each shape probe's
    ``(slot, stand-in)`` for this signature's shapes.

    ``steady`` is what a steady run walks: each needed record paired with
    its destination — an ndarray view into one of the pool's color slabs,
    a tuple of views (multi-output kernels like ``tanh_fused``), or ``None``
    for alias records and exotic outputs.  The views belong to ``pool``,
    the slab list they were bound into; the plan re-binds a layout whose
    ``pool`` is not the current one before running it.  ``fifo_nbytes`` is
    the footprint the PR 3 FIFO shape-keyed recycler would have needed for
    the same tape and shapes — the baseline the coloring allocator is
    regression-tested against, layout by layout.
    """

    __slots__ = ("units", "caps", "alloc_bytes", "probes", "steady", "pool",
                 "fifo_nbytes")

    def __init__(self, units, caps, probes, fifo_nbytes):
        self.units = units
        self.caps = caps
        self.alloc_bytes = sum(caps)
        self.probes = probes
        self.steady: list = []
        self.pool: Optional[list] = None
        self.fifo_nbytes = fifo_nbytes


def _schedule_tape(records: list, fetch_slots: Sequence[int]) -> list:
    """Stage 2: reorder tape records (data deps respected) before liveness.

    A greedy list scheduler that, among ready records, picks the one
    retiring the most inputs (last-consumer-first), shrinking liveness
    ranges so the coloring allocator can overlap more buffers.  Ties break
    on the original tape index, so the schedule is deterministic.
    """
    n = len(records)
    if n <= 1:
        return records
    producer: dict[int, int] = {}
    for i, rec in enumerate(records):
        producer[rec.out_slot] = i
    deps: list[list[int]] = []
    users: list[list[int]] = [[] for _ in range(n)]
    for i, rec in enumerate(records):
        ds = sorted({producer[s] for s in rec.input_slots if s in producer})
        deps.append(ds)
        for d in ds:
            users[d].append(i)
    indeg = [len(ds) for ds in deps]
    pending_users = [len(users[i]) for i in range(n)]
    fetch_set = set(fetch_slots)
    ready = [i for i in range(n) if indeg[i] == 0]
    order: list[int] = []
    while ready:
        best = ready[0]
        best_key = None
        for i in ready:
            kills = 0
            for d in deps[i]:
                if pending_users[d] == 1 and records[d].out_slot not in fetch_set:
                    kills += 1
            key = (kills, -i)
            if best_key is None or key > best_key:
                best_key = key
                best = i
        ready.remove(best)
        order.append(best)
        for d in deps[best]:
            pending_users[d] -= 1
        for u in users[best]:
            indeg[u] -= 1
            if indeg[u] == 0:
                ready.append(u)
    if len(order) != n:  # cycles cannot happen on a topo-sorted tape
        raise RuntimeError("tape scheduler failed to order all records")
    return [records[i] for i in order]


def _mark_needed(records: list, fetch_slots: Sequence[int], n_slots: int) -> None:
    """One reverse sweep: a record is needed when its output is a fetch or
    is value-read by a needed record; the rest are shape probes."""
    value_read = [False] * n_slots
    for s in fetch_slots:
        value_read[s] = True
    for rec in reversed(records):
        rec.needed = value_read[rec.out_slot]
        if rec.needed:
            for s in rec.value_slots():
                value_read[s] = True


def _liveness(records: list, fetch_slots: Sequence[int], n_slots: int):
    """Stage 3: last value reads and storage groups on the scheduled tape.

    Returns ``(find, death, warm_death)``: ``find(slot)`` is the slot's
    storage-group root, ``death[root]`` the last tape index at which a
    needed record reads the value of any group member (``_INF`` = fetched,
    pinned forever; ``-1`` = never value-read).  ``warm_death`` also counts
    the value reads of shape probes: the table of the warm run, the one
    run that executes them.
    """
    last_use = [-1] * n_slots
    warm_last_use = [-1] * n_slots
    for r_idx, rec in enumerate(records):
        for s in rec.value_slots():
            warm_last_use[s] = r_idx  # records iterate in ascending order
            if rec.needed:
                last_use[s] = r_idx
    for s in fetch_slots:
        last_use[s] = warm_last_use[s] = _INF

    # Storage groups: a view output shares its ``view_of`` input's storage,
    # so a group dies only when its *last* member does.
    parent = list(range(n_slots))

    def find(s: int) -> int:
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    for rec in records:
        if rec.mode == _MODE_ALIAS:
            viewed = rec.input_slots[get_op(rec.op).view_of]
            parent[find(viewed)] = find(rec.out_slot)
    death: dict[int, int] = {}
    warm_death: dict[int, int] = {}
    for s in range(n_slots):
        r = find(s)
        death[r] = max(death.get(r, -1), last_use[s])
        warm_death[r] = max(warm_death.get(r, -1), warm_last_use[s])
    return find, death, warm_death


def _make_units(records: list, values: list, find, death) -> list:
    """Allocation units for coloring: one per needed buffer-producing record.

    Shapes come from the warm run's ``values`` (stand-ins by now, mostly).
    Unit rows are ``[r_idx, death, padded, raw, parts, key]``: the liveness
    range is ``[r_idx, death]``, ``padded`` the bytes the unit needs in a
    slab (tuple outputs are laid out in ``_ALIGN``-separated ``parts``),
    ``raw``/``key`` feed the FIFO baseline simulation.  Alias records,
    shape probes and exotic (non-ndarray) outputs stay unmanaged.
    """
    units: list[list] = []
    for r_idx, rec in enumerate(records):
        if rec.mode == _MODE_ALIAS or not rec.needed:
            continue
        val = values[rec.out_slot]
        if isinstance(val, np.ndarray):
            parts = None
            padded = raw = val.nbytes
            key = (val.shape, val.dtype)
        elif isinstance(val, tuple) and val and all(
            isinstance(e, np.ndarray) for e in val
        ):
            off = raw = 0
            parts = []
            for e in val:
                parts.append((e.shape, e.dtype, off))
                padded = off + e.nbytes
                off = (padded + _ALIGN - 1) // _ALIGN * _ALIGN
                raw += e.nbytes
            key = ("tuple",) + tuple((e.shape, e.dtype) for e in val)
        else:
            continue
        units.append([r_idx, death[find(rec.out_slot)], padded, raw,
                      parts, key])
    return units


def _color_units(units: list):
    """Greedy interference coloring: first-fit over decreasing size.

    Two units interfere when their ``[r_idx, death]`` ranges overlap.
    Returns ``(capacities, assign)``: one byte capacity per color (its
    largest member) and each unit's color.  First-fit by size was the byte
    minimum on every zoo plan measured against tape-order first-fit
    (+15…38 %) and best-fit by size (ties or +0.1…1.7 %), so it is the
    only order tried.
    """
    caps: list[int] = []
    members: list[list[int]] = []
    assign = [0] * len(units)
    for ui in sorted(range(len(units)),
                     key=lambda u: (-units[u][2], units[u][0])):
        birth, dth, padded = units[ui][0], units[ui][1], units[ui][2]
        for ci, group in enumerate(members):
            if all(birth > units[mi][1] or units[mi][0] > dth
                   for mi in group):
                group.append(ui)
                assign[ui] = ci
                break
        else:
            caps.append(padded)  # largest member: sizes only decrease
            members.append([ui])
            assign[ui] = len(caps) - 1
    return caps, assign


class ExecutionPlan:
    """A compiled, slot-indexed execution tape for fixed (fetches, feeds).

    Parameters
    ----------
    fetches:
        Node or sequence of nodes to evaluate (same convention as
        ``Session.run``; a single node yields a single result).
    feed_nodes:
        The nodes whose values are supplied per run, in the positional order
        :meth:`run_list` expects.  Every reachable placeholder must be
        listed; extra entries that the fetches never touch are ignored.
    copy_fetches:
        When True (default) fetched arrays are copied out of the pool, so
        results stay valid forever.  Hot-path consumers that consume results
        before the next run pass False and skip the copies — fetched arrays
        are then views of pool slabs, valid until the next ``run``.
    verify:
        Run the static plan verifier (:mod:`repro.analysis.plancheck`)
        structural checks (P101–P105) at compile time — and again on
        every freshly colored layout — raising ``PlanVerificationError`` on
        any finding.  ``None`` (default) defers to the
        ``REPRO_VERIFY_PLANS`` environment variable, so a whole test run or
        CI job can be hardened without touching call sites.

    A plan owns mutable run state (the slot value table and the pool), so
    a single plan must not be run from two threads at once — one plan per
    driver, like the batched engine's scratch pool.  The serving pool
    satisfies this by construction: every worker thread owns its engines
    (and therefore their plans) exclusively, and
    ``BatchedEvaluator`` raises on concurrent entry.  *Different* plans may
    run on different threads concurrently — the tape's kernels spend most
    of their time in GIL-releasing BLAS/ufunc calls, which is exactly what
    the multi-worker serving pool overlaps.  The counter accessors below
    (``alloc_count``, ``arena_nbytes``) stay safe to call from a
    monitoring thread.
    """

    def __init__(
        self,
        fetches: Sequence[Node] | Node,
        feed_nodes: Sequence[Node],
        copy_fetches: bool = True,
        verify: Optional[bool] = None,
    ):
        self._single = isinstance(fetches, Node)
        fetch_list: list[Node] = [fetches] if self._single else list(fetches)
        self._copy_fetches = copy_fetches
        self.stats = PlanStats()

        # --- stage 1: tape build -----------------------------------------
        order = topo_sort(fetch_list)
        self.stats.topo_sorts += 1
        n_slots = len(order)
        slot_of = {id(n): i for i, n in enumerate(order)}
        self._n_slots = n_slots
        self._values: list = [None] * n_slots
        self._fetch_slots = [slot_of[id(f)] for f in fetch_list]

        feed_ids = {id(n) for n in feed_nodes}
        self._feed_nodes = list(feed_nodes)
        self._feed_slots = [slot_of.get(id(n), -1) for n in feed_nodes]

        self._var_slots: list[tuple[int, Variable]] = []
        self._const_slots: list[tuple[int, np.ndarray]] = []
        records: list[_Record] = []
        for i, node in enumerate(order):
            if id(node) in feed_ids:
                continue
            if isinstance(node, Variable):
                self._var_slots.append((i, node))
                continue
            if node.op == "constant":
                self._values[i] = node.attrs["value"]
                self._const_slots.append((i, node.attrs["value"]))
                continue
            if node.op == "placeholder":
                raise KeyError(
                    f"placeholder '{node.name}' is reachable from the fetches "
                    f"but not listed in feed_nodes"
                )
            opdef = get_op(node.op)
            if opdef.view_of is not None:
                mode = _MODE_ALIAS
            elif opdef.forward_out is not None:
                mode = _MODE_OUT
            else:
                mode = _MODE_COPY
            records.append(
                _Record(
                    node,
                    opdef.forward,
                    opdef.forward_out,
                    tuple(slot_of[id(inp)] for inp in node.inputs),
                    node.attrs,
                    i,
                    mode,
                )
            )

        # --- stage 2: liveness list-schedule, then the needed sweep -------
        self._records = _schedule_tape(records, self._fetch_slots)
        _mark_needed(self._records, self._fetch_slots, n_slots)
        self._n_needed = sum(rec.needed for rec in self._records)

        # --- stage 3: value liveness and storage groups on the scheduled
        # order; stage 4, coloring, happens per layout once shapes are known.
        self._find, self._death, warm_death = _liveness(
            self._records, self._fetch_slots, n_slots
        )
        # The warm run executes the probes too, so it retires a value only
        # after their reads: ``_warm_retire[i]`` lists the record outputs
        # to replace by stand-ins once record ``i`` has run.
        self._warm_retire: list[list[int]] = [[] for _ in self._records]
        for r_idx, rec in enumerate(self._records):
            dth = warm_death[self._find(rec.out_slot)]
            if dth != _INF:
                self._warm_retire[max(dth, r_idx)].append(rec.out_slot)

        # One layout per feed-shape signature held, all bound into the one
        # pool of color slabs (``None``: nothing warm).
        self._arenas: dict[tuple, BufferArena] = {}
        self._pool: Optional[list] = None
        self._slab_allocs = 0
        # The layout whose probe stand-ins the slot table currently holds.
        self._installed: Optional[BufferArena] = None

        if verify is None:
            verify = os.environ.get("REPRO_VERIFY_PLANS", "") not in ("", "0")
        self._verify_arenas = bool(verify)
        if verify:
            self.verify(raise_on_findings=True)

    # ------------------------------------------------------------------ info

    def verify(self, spec=None, check_values: bool = False,
               raise_on_findings: bool = False):
        """Statically verify this plan; returns a ``PlanReport``.

        Structural soundness (liveness, alias groups, arena buffer
        disjointness, fetch pinning — rules P101–P105) is always checked.
        Pass a feed ``spec`` (``{feed node or name: FeedSpec}``, see
        :func:`repro.analysis.plancheck.dp_feed_spec`) to also run symbolic
        shape/dtype inference over the tape (P106–P108);
        ``check_values=True`` additionally compares inferred shapes/dtypes
        against the concrete arrays of the most recent run.
        """
        from repro.analysis.plancheck import PlanVerificationError, verify_plan

        report = verify_plan(self, spec=spec, check_values=check_values)
        if raise_on_findings and not report.ok:
            raise PlanVerificationError(report)
        return report

    def storage_root(self, slot: int) -> int:
        """Representative slot of ``slot``'s storage group (alias union)."""
        return self._find(slot)

    def death_index(self, slot: int) -> int:
        """Last tape index value-reading ``slot``'s storage group
        (``1 << 62`` = pinned forever, ``-1`` = never value-read)."""
        return self._death.get(self._find(slot), -1)

    @property
    def n_records(self) -> int:
        """Records a steady run executes (the tape minus shape probes)."""
        return self._n_needed

    @property
    def n_pruned(self) -> int:
        """Shape probes: tape records only warm runs execute."""
        return len(self._records) - self._n_needed

    @property
    def arenas(self) -> dict[tuple, BufferArena]:
        return self._arenas

    def alloc_count(self) -> int:
        """Pool slabs allocated since the last release: one per color at
        every warm run, none in between."""
        return self._slab_allocs

    def arena_nbytes(self) -> int:
        """Bytes held by the pool: per color, the largest layout's need."""
        return sum(slab.nbytes for slab in self._pool or ())

    def _largest(self) -> Optional[BufferArena]:
        return max(list(self._arenas.values()),
                   key=lambda a: a.alloc_bytes, default=None)

    def fifo_arena_nbytes(self) -> int:
        """Bytes the PR 3 FIFO shape-keyed recycler would have needed for
        the largest layout held — the coloring allocator's regression
        baseline (simulated at coloring time, never allocated)."""
        largest = self._largest()
        return 0 if largest is None else largest.fifo_nbytes

    def records_fused(self) -> int:
        """Always 0.  ``bench/workloads.py`` (frozen with the benchmark)
        reads this for its ``tfmini.plan.records_fused`` metric; it goes
        together with that metric in a later ``benchmark`` PR."""
        return 0

    def _drop_pool(self) -> None:
        """Let go of every reference to the pool's slabs: the pool itself,
        each layout's views and what records left in the slot table."""
        self._pool = None
        self._installed = None
        for arena in self._arenas.values():
            arena.steady, arena.pool = [], None
        values = self._values
        for rec in self._records:
            values[rec.out_slot] = None

    def release_arenas(self) -> None:
        """Drop the pool and every layout (the compiled tape is kept).

        The pool holds roughly the graph's peak live set *persistently*;
        long-lived processes that are done with a shape regime (or want to
        hand the memory back before measuring something allocation-
        sensitive) release here and re-warm on the next run.  ``stats``
        is cumulative and unaffected; ``alloc_count()`` restarts from zero.
        """
        self._drop_pool()
        self._arenas.clear()
        self._slab_allocs = 0
        for slot in self._feed_slots:  # the last run's feeds are the caller's
            if slot >= 0:
                self._values[slot] = None

    # ------------------------------------------------------------------ run

    def run(self, feeds: Optional[dict] = None, session=None):
        """Evaluate the fetches; mirrors ``Session.run(fetches, feeds)``.

        ``session`` (optional) supplies profiling: when ``session.profile``
        is set, per-operator stats are recorded into ``session.stats``.
        """
        feeds = feeds or {}
        vals = []
        for node, slot in zip(self._feed_nodes, self._feed_slots):
            if slot < 0:
                vals.append(None)
                continue
            try:
                vals.append(feeds[node])
            except KeyError:
                raise KeyError(
                    f"plan feed '{node.name}' missing from feeds"
                ) from None
        return self.run_list(vals, session=session)

    def run_list(self, feed_values: Sequence, session=None):
        """Evaluate with feed values positionally matching ``feed_nodes``."""
        if len(feed_values) != len(self._feed_slots):
            # Without this, zip truncation would silently reuse the previous
            # run's array for the missing feed — wrong results, no exception.
            raise ValueError(
                f"plan expects {len(self._feed_slots)} feed values "
                f"(got {len(feed_values)})"
            )
        values = self._values
        sig = []
        for slot, v in zip(self._feed_slots, feed_values):
            if slot < 0:
                continue
            if type(v) is not np.ndarray:
                v = np.asarray(v)
            values[slot] = v
            # Tiny integer feeds are shape *parameters* (e.g. the DP graph's
            # ``natoms``: ProdForce's output row count), so they join the
            # signature by value — same-shaped feeds with a different count
            # must not share a layout.
            if v.dtype.kind in "iu" and v.size <= 4:
                sig.append((v.shape, v.dtype, v.tobytes()))
            else:
                sig.append((v.shape, v.dtype))
        for slot, var in self._var_slots:
            values[slot] = var.value
        signature = tuple(sig)

        profile = session is not None and session.profile
        arena = self._arenas.get(signature)
        if arena is None:
            # The warm run allocates its live set: the pool it is about to
            # replace must be gone first, not beside it.
            self._drop_pool()
            self._warm_run(profile, session)
            while len(self._arenas) >= _MAX_LAYOUTS:
                # FIFO: forget the oldest layout (re-warms on revisit).
                self._arenas.pop(next(iter(self._arenas)))
                self.stats.arena_evictions += 1
            arena = self._arenas[signature] = self._color_layout()
            self._pool = [
                np.empty(max(color), np.uint8)
                for color in zip_longest(
                    *(a.caps for a in self._arenas.values()), fillvalue=0
                )
            ]
            self._slab_allocs += len(self._pool)
            self._bind(arena)
            self._installed = arena  # its stand-ins are what the run left
            self.stats.arena_builds += 1
            if self._verify_arenas:
                # The soundness gate on the colored result: P103 re-checks
                # buffer-address disjointness of live storage groups on
                # every layout held, bound into the pool just made.
                self.verify(raise_on_findings=True)
        else:
            if arena.pool is not self._pool:
                self._bind(arena)  # the pool was re-made since it last ran
            if arena is not self._installed:
                # Probe slots are never rewritten by a steady run: switch
                # them to this signature's shapes.
                for slot, stand_in in arena.probes:
                    values[slot] = stand_in
                self._installed = arena
            if profile:
                self._steady_run_profiled(arena, session)
            else:
                self._steady_run(arena)
        self.stats.runs += 1

        outs = [values[s] for s in self._fetch_slots]
        if self._copy_fetches:
            outs = [
                tuple(e.copy() for e in o)
                if isinstance(o, tuple)
                else (o.copy() if isinstance(o, np.ndarray) else o)
                for o in outs
            ]
        return outs[0] if self._single else outs

    # ----------------------------------------------------------- execution

    def _warm_run(self, profile: bool, session) -> None:
        """First run for a signature: every record, probes included, through
        the plain kernels.  Each value is replaced by its stand-in once its
        storage group's last value read has run (fetches stay), so the slot
        table ends up holding the shapes and the run's peak memory is its
        live set."""
        values = self._values
        for rec, retire in zip(self._records, self._warm_retire):
            ins = [values[s] for s in rec.input_slots]
            if profile:
                t0 = time.perf_counter()
                out = rec.forward(ins, rec.attrs)
                dt = time.perf_counter() - t0
                session.stats.record(
                    rec.op, dt, op_flops(rec.node, ins, out), _result_nbytes(out)
                )
            else:
                out = rec.forward(ins, rec.attrs)
            values[rec.out_slot] = out
            del ins, out  # the loop's own references would keep them alive
            for s in retire:
                values[s] = _stand_in(values[s])

    def _color_layout(self) -> BufferArena:
        """Stage 4: interference-color the warm run's shapes.

        Each needed buffer-producing record is an allocation unit with
        liveness range ``[tape index, storage-group death]``.  Units whose
        ranges overlap *interfere* and must not share storage;
        non-interfering units may.  Greedy coloring (first-fit by
        decreasing size) assigns each unit a color; a color needs ONE byte
        slab as large as its largest member.  The FIFO recycler's footprint
        is simulated as ``fifo_nbytes`` (never allocated).
        """
        units = _make_units(self._records, self._values, self._find, self._death)
        caps, assign = _color_units(units)

        # --- FIFO baseline simulation (what PR 3's recycler would use) ---
        # The baseline allocator recycled a dead buffer only for a later
        # record with the exact same shape and dtype.
        pool: dict[tuple, int] = {}
        heap: list = []
        fifo = 0
        for r_idx, dth, _padded, raw, _parts, key in units:  # tape order
            while heap and heap[0][0] < r_idx:
                _, _, dead_key = heappop(heap)
                pool[dead_key] = pool.get(dead_key, 0) + 1
            if pool.get(key, 0) > 0:
                pool[key] -= 1
            else:
                fifo += raw
            if dth < _INF:
                heappush(heap, (dth, r_idx, key))

        return BufferArena(
            [(u[0], ci, u[4], u[5]) for u, ci in zip(units, assign)],
            caps,
            [(rec.out_slot, self._values[rec.out_slot])
             for rec in self._records if not rec.needed],
            fifo,
        )

    def _bind(self, arena: BufferArena) -> None:
        """Make ``arena.steady``: every unit's destination as a shape/dtype
        view into its color's slab of the current pool."""
        pool = self._pool
        buffers: list = [None] * len(self._records)
        for r_idx, ci, parts, key in arena.units:
            slab = pool[ci]
            if parts is None:
                shape, dtype = key
                buffers[r_idx] = np.ndarray(shape, dtype=dtype, buffer=slab)
            else:
                buffers[r_idx] = tuple(
                    np.ndarray(shape, dtype=dtype, buffer=slab, offset=off)
                    for shape, dtype, off in parts
                )
        arena.steady = [(rec, buf) for rec, buf in zip(self._records, buffers)
                        if rec.needed]
        arena.pool = pool

    def _steady_run(self, arena: BufferArena) -> None:
        """The hot loop: needed records, slot indexing, pool destinations."""
        values = self._values
        for rec, buf in arena.steady:
            ins = [values[s] for s in rec.input_slots]
            if buf is None:
                values[rec.out_slot] = rec.forward(ins, rec.attrs)
            elif rec.mode == _MODE_OUT:
                rec.forward_out(ins, rec.attrs, buf)
                values[rec.out_slot] = buf
            else:  # _MODE_COPY
                out = rec.forward(ins, rec.attrs)
                if type(buf) is tuple:
                    for b, o in zip(buf, out):
                        np.copyto(b, o)
                else:
                    np.copyto(buf, out)
                values[rec.out_slot] = buf

    def _steady_run_profiled(self, arena: BufferArena, session) -> None:
        values = self._values
        stats = session.stats
        for rec, buf in arena.steady:
            ins = [values[s] for s in rec.input_slots]
            t0 = time.perf_counter()
            if buf is None:
                out = rec.forward(ins, rec.attrs)
            elif rec.mode == _MODE_OUT:
                rec.forward_out(ins, rec.attrs, buf)
                out = buf
            else:
                res = rec.forward(ins, rec.attrs)
                if type(buf) is tuple:
                    for b, o in zip(buf, res):
                        np.copyto(b, o)
                else:
                    np.copyto(buf, res)
                out = buf
            dt = time.perf_counter() - t0
            stats.record(rec.op, dt, op_flops(rec.node, ins, out), _result_nbytes(out))
            values[rec.out_slot] = out


def compile_plan(
    fetches: Sequence[Node] | Node,
    feed_nodes: Sequence[Node],
    copy_fetches: bool = True,
    verify: Optional[bool] = None,
) -> ExecutionPlan:
    """Compile ``fetches`` into an :class:`ExecutionPlan`.

    Runs the pipeline (tape build → liveness list-schedule and needed sweep
    → value liveness; interference coloring happens per feed-shape
    signature at warm time) exactly once; every subsequent
    :meth:`ExecutionPlan.run` is a flat walk over the needed records into
    colored, persistent output buffers.  ``(fetches, feed_nodes,
    copy_fetches, verify)`` is the whole interface: there is nothing to
    size or release by hand.  Results are bitwise identical to
    ``Session.run`` on the same fetches and feeds.
    ``verify=True`` (or ``REPRO_VERIFY_PLANS=1``) runs the static plan
    verifier's structural checks at compile time and on every freshly
    colored layout.
    """
    return ExecutionPlan(
        fetches, feed_nodes, copy_fetches=copy_fetches, verify=verify
    )
