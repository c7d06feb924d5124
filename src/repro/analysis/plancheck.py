"""Static verification of compiled execution plans (repro.tfmini.plan).

The compiled tape is the repo's hot path, and its buffer arena is exactly
the kind of allocator whose bugs are silent: a liveness pass that retires a
storage group one record too early, an alias union dropped for a view op,
or a fetch left unpinned produces *plausible numbers* that are wrong only
for some feed shapes.  The plan compiler's pipeline (liveness
list-scheduling, interference-coloring allocation — see
:mod:`repro.tfmini.plan`) raises the stakes: a scheduler or coloring bug
corrupts values silently.  This module is the independent compile-time
proof layer (rule numbers are stable: the two numbers after P108 checked
parallel spans and fused records, were retired with those features, and
are not reused):

**Structural soundness** (no feed values needed)

====  ======================================================================
P101  undefined-read: a record (or fetch) reads a slot no earlier feed,
      variable, constant or record defines — or a needed record (or fetch)
      reads the *value* of a shape probe, which steady runs never execute
P102  use-after-free: a record reads the *value* of a slot after the
      liveness pass retired its storage group (a shape read afterwards is
      legal: the slot's array object keeps its shape)
P103  arena-overlap: a layout gives a record a buffer whose bytes overlap
      an earlier record's buffer while that record's storage group is
      still live (address-interval check on the views bound into the
      plan's slab pool, so it sees straight through the coloring
      allocator — every layout held is checked against the one pool)
P104  alias-broken: a view record (``reshape``/``item``/...) whose output
      is not in the same storage group as its ``view_of`` input
P105  fetch-unpinned: a fetched slot whose storage group is not pinned
      immortal (a later run could recycle the caller's result)
====  ======================================================================

Which reads are value reads is the op registry's declaration
(``OpDef.shape_only`` / ``OpDef.view_of``), the same one the plan compiler
acts on; the verifier re-derives every consequence from the tape.

**Symbolic shape & dtype inference** (given a feed spec)

====  ======================================================================
P106  feed-missing: a reachable feed with no entry in the spec
P107  shape-mismatch: an op rule proves its input shapes inconsistent (or
      inferred shapes disagree with a concrete run)
P108  dtype-mix: fp32 and fp64 meet in one op outside a declared ``cast``
      point (or inferred dtypes disagree with a concrete run)
====  ======================================================================

Dims are named symbols (``n_t0``, ``natoms``) bound from the feed
signature — see :func:`dp_feed_spec` — and propagated through each tape
record by the per-op ``infer`` rules registered on ``OpDef``
(:mod:`repro.tfmini.ops`).  Entry points: ``plan.verify()``,
``compile_plan(..., verify=True)``, the ``REPRO_VERIFY_PLANS=1``
environment toggle, and the ``repro check-plans`` CLI which runs
:func:`check_all_plans` over the model zoo's evaluate/train/serving plans.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.analysis.shapes import (
    Dim,
    InferContext,
    ShapeError,
    as_shape,
    format_shape,
)


@dataclass
class PlanFinding:
    """One verifier diagnostic, anchored to a tape record."""

    rule: str  # "P101".."P108"
    message: str
    record: Optional[int] = None  # tape index, None for plan-level findings
    op: Optional[str] = None

    def __str__(self) -> str:
        where = f" [record {self.record}{f' {self.op}' if self.op else ''}]" \
            if self.record is not None else ""
        return f"{self.rule}{where}: {self.message}"


@dataclass
class PlanReport:
    """Result of one verification pass, with per-record diagnostics."""

    findings: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    records: list = field(default_factory=list)  # one diagnostic line per record
    n_records: int = 0  # tape length: needed records and shape probes
    n_slots: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def rules(self) -> set:
        return {f.rule for f in self.findings}

    def by_rule(self, rule: str) -> list:
        return [f for f in self.findings if f.rule == rule]

    def summary(self) -> str:
        head = (
            f"plan: {self.n_records} records over {self.n_slots} slots — "
            + ("OK" if self.ok else f"{len(self.findings)} finding(s)")
        )
        lines = [head]
        lines += [f"  {f}" for f in self.findings]
        if self.notes:
            lines.append(f"  ({len(self.notes)} assumption note(s))")
        return "\n".join(lines)

    def detail(self) -> str:
        """The full per-record tape walk, for humans chasing a finding."""
        return "\n".join([self.summary(), *self.records])

    def to_json(self) -> str:
        return json.dumps(
            {
                "ok": self.ok,
                "n_records": self.n_records,
                "n_slots": self.n_slots,
                "findings": [
                    {
                        "rule": f.rule,
                        "record": f.record,
                        "op": f.op,
                        "message": f.message,
                    }
                    for f in self.findings
                ],
                "notes": list(self.notes),
            },
            indent=2,
        )


class PlanVerificationError(RuntimeError):
    """Raised by ``compile_plan(..., verify=True)`` on a failed report."""

    def __init__(self, report: PlanReport):
        super().__init__(report.summary())
        self.report = report


@dataclass
class FeedSpec:
    """Declared shape/dtype (and optional scalar value) of one feed.

    ``shape`` entries may be ints, :class:`~repro.analysis.shapes.Dim`
    objects, or strings naming symbols.  ``value`` (int or symbol name)
    covers tiny integer feeds that parameterize downstream shapes — the DP
    graph's ``natoms`` feed is ``prod_force``'s output row count.
    """

    shape: tuple
    dtype: object = np.float64
    value: object = None


def _mode_name(rec) -> str:
    if not rec.needed:
        return "probe"
    return {0: "out", 1: "copy", 2: "alias"}.get(rec.mode, "?")


class _SlotInfo:
    """Inferred static knowledge about one slot's value."""

    __slots__ = ("shape", "dtype", "value", "parts")

    def __init__(self, shape=None, dtype=None, value=None, parts=None):
        self.shape = shape
        self.dtype = np.dtype(dtype) if dtype is not None else None
        self.value = value
        self.parts = parts  # [(shape, dtype), ...] for tuple outputs

    @property
    def opaque(self) -> bool:
        return self.shape is None and self.parts is None

    def describe(self) -> str:
        if self.parts is not None:
            return "(" + ", ".join(
                f"{format_shape(s)} {np.dtype(d).name}" for s, d in self.parts
            ) + ")"
        if self.shape is None:
            return "?"
        return f"{format_shape(self.shape)} {self.dtype.name if self.dtype else '?'}"


def verify_plan(plan, spec=None, check_values: bool = False) -> PlanReport:
    """Verify a compiled :class:`~repro.tfmini.plan.ExecutionPlan`.

    Structural soundness (P101–P105) is always checked.  With a ``spec``
    (feed node → :class:`FeedSpec`, or node *name* → spec) the symbolic
    shape/dtype walk runs too (P106–P108).  ``check_values=True``
    additionally compares every inferred record shape/dtype against the
    concrete arrays left in the plan's slot table by its most recent run —
    the end-to-end agreement check the zoo matrix tests assert.
    """
    from repro.tfmini.ops import get_op
    from repro.tfmini.plan import _INF, _MODE_ALIAS

    report = PlanReport(n_records=len(plan._records), n_slots=plan._n_slots)
    records = plan._records
    find, death = plan._find, plan._death

    # --- definition sites ------------------------------------------------
    def_pos: list = [None] * plan._n_slots
    for slot, _var in plan._var_slots:
        def_pos[slot] = -1
    for slot, _val in plan._const_slots:
        def_pos[slot] = -1
    for slot in plan._feed_slots:
        if slot >= 0:
            def_pos[slot] = -1
    for r_idx, rec in enumerate(records):
        def_pos[rec.out_slot] = r_idx

    def defined_before(slot: int, r_idx: int) -> bool:
        if not 0 <= slot < plan._n_slots:
            return False
        d = def_pos[slot]
        return d is not None and d < r_idx

    def is_probe_output(slot: int) -> bool:
        return def_pos[slot] >= 0 and not records[def_pos[slot]].needed

    # --- P101 / P102 / P104: per-record reads ---------------------------
    # The warm run executes every record and retires by its own table;
    # steady runs execute the needed records only, so theirs are the reads
    # the death table must cover.
    warm_retired = {
        s: r_idx for r_idx, slots in enumerate(plan._warm_retire) for s in slots
    }
    for r_idx, rec in enumerate(records):
        opdef = get_op(rec.op)
        for pos, s in enumerate(rec.input_slots):
            if not defined_before(s, r_idx):
                report.findings.append(PlanFinding(
                    "P101", f"reads slot {s}, which has no earlier definition",
                    record=r_idx, op=rec.op,
                ))
                continue
            if pos in opdef.shape_only:
                continue
            if rec.needed and is_probe_output(s):
                report.findings.append(PlanFinding(
                    "P101",
                    f"reads the value of slot {s}, whose producer (record "
                    f"{def_pos[s]}) is a shape probe that steady runs skip",
                    record=r_idx, op=rec.op,
                ))
                continue
            d = warm_retired.get(s, _INF)
            if rec.needed:
                d = min(d, death.get(find(s), -1))
            if d < r_idx:
                report.findings.append(PlanFinding(
                    "P102",
                    f"reads the value of slot {s} after its storage group "
                    f"was retired at record {d}",
                    record=r_idx, op=rec.op,
                ))
        if rec.mode == _MODE_ALIAS:
            s = rec.input_slots[opdef.view_of]
            if 0 <= s < plan._n_slots and find(s) != find(rec.out_slot):
                report.findings.append(PlanFinding(
                    "P104",
                    f"view output slot {rec.out_slot} does not share a "
                    f"storage group with input slot {s} — recycling can "
                    f"clobber the live view",
                    record=r_idx, op=rec.op,
                ))

    # --- P105: fetches pinned -------------------------------------------
    for fs in plan._fetch_slots:
        if not 0 <= fs < plan._n_slots or def_pos[fs] is None:
            report.findings.append(PlanFinding(
                "P101", f"fetch slot {fs} has no definition"))
            continue
        if is_probe_output(fs):
            report.findings.append(PlanFinding(
                "P101", f"fetch slot {fs} is the output of a shape probe",
                record=def_pos[fs]))
            continue
        if death.get(find(fs), -1) != _INF:
            report.findings.append(PlanFinding(
                "P105",
                f"fetch slot {fs} is not pinned (storage group dies at "
                f"record {death.get(find(fs), -1)})",
                record=def_pos[fs] if def_pos[fs] >= 0 else None,
            ))

    # --- P103: layouts honor the death table ----------------------------
    # Address-interval based: the coloring allocator hands out distinct
    # ndarray *views* over shared byte slabs, so object identity proves
    # nothing — two records conflict iff their buffers' byte ranges
    # overlap while the earlier one's storage group is still live.  A
    # layout last run in an earlier pool is bound into this one first.
    tape_index = {id(rec): r_idx for r_idx, rec in enumerate(records)}
    for arena in plan._arenas.values():
        if arena.pool is not plan._pool:
            plan._bind(arena)
        live: list = []  # [start, end, owner record, owner death]
        for rec, buf in arena.steady:  # exactly what a steady run walks
            if buf is None:
                continue
            r_idx = tape_index[id(rec)]
            # Retire intervals whose owner's storage group has died; a
            # dead owner's bytes are legitimately up for reuse.
            live = [iv for iv in live
                    if iv[3] == _INF or iv[3] >= r_idx]
            for start, end in _buffer_intervals(buf):
                for iv_start, iv_end, prev, d in live:
                    if start < iv_end and iv_start < end:
                        report.findings.append(PlanFinding(
                            "P103",
                            f"buffer bytes of record {prev} handed to record "
                            f"{r_idx} while its storage group lives until "
                            f"{'forever' if d == _INF else f'record {d}'}",
                            record=r_idx, op=rec.op,
                        ))
                d = death.get(find(rec.out_slot), -1)
                live.append([start, end, r_idx, d])

    # --- symbolic shape/dtype walk --------------------------------------
    if spec is not None or check_values:
        if spec is None:
            spec = spec_from_last_run(plan)
        _shape_walk(plan, spec, report, check_values)
    else:
        for r_idx, rec in enumerate(records):
            report.records.append(
                f"[{r_idx:>4}] {rec.op:<18} {_mode_name(rec):<5} "
                f"slots {tuple(rec.input_slots)} -> {rec.out_slot}"
            )
    return report


def _buffer_intervals(buf) -> list:
    """Absolute byte ranges ``[start, end)`` covered by an arena buffer.

    Arena entries are ndarray views into color slabs (or tuples of views
    for multi-output kernels); the absolute addresses are what overlap
    soundness is actually about — object identity proves nothing once
    buffers share slabs.
    """
    arrays = buf if isinstance(buf, tuple) else (buf,)
    out = []
    for a in arrays:
        if isinstance(a, np.ndarray) and a.nbytes:
            start = a.__array_interface__["data"][0]
            out.append((start, start + a.nbytes))
    return out


def plan_metrics(plan, evaluations: int = 0) -> dict:
    """Deterministic per-plan metrics for ``repro plan-report``.

    ``records`` is what a steady run executes, ``records_pruned`` the
    shape probes it skips.  ``arenas`` counts the layouts held (one per
    warmed feed-shape signature); the colored-vs-FIFO bytes are the largest
    layout's own pair, so sharing one pool cannot flatter them.  A plan that
    has never run reports zero (the record counts are always present).
    ``blocks_per_evaluation`` is the
    plan's runs over the ``evaluations`` its owner issued — the row blocks
    the batched engine cut each evaluation into (1: not blocked), every
    block running in the one layout of its evaluation shape.  ``rows_run``
    of ``rows_padded`` is what the last run's compacted embedding chains
    (``expand_rows`` records: the engine's plan has them, a trainer's has
    none) ran on: the neighbour slots listed, of those there are.
    """
    largest = plan._largest()
    colored = largest.alloc_bytes if largest else 0
    fifo = plan.fifo_arena_nbytes()
    blocks = plan.stats.runs // evaluations if evaluations else 1
    rows_run = rows_padded = 0
    for rec in plan._records:
        out = plan._values[rec.out_slot]
        if rec.op == "expand_rows" and out is not None:
            rows_run += plan._values[rec.input_slots[0]].shape[0]
            rows_padded += out.shape[0]
    return {
        "records": plan.n_records,
        "records_pruned": plan.n_pruned,
        "blocks_per_evaluation": blocks,
        "rows_run": rows_run,
        "rows_padded": rows_padded,
        "arenas": len(plan.arenas),
        "arena_nbytes_colored": colored,
        "arena_nbytes_fifo": fifo,
        "arena_bytes_saved": fifo - colored,
    }


def _spec_lookup(spec: dict, node):
    entry = spec.get(node)
    if entry is None:
        entry = spec.get(node.name)
    if entry is None:
        return None
    if isinstance(entry, FeedSpec):
        return entry
    shape, dtype = entry  # (shape, dtype) tuple convenience form
    return FeedSpec(shape, dtype)


def _shape_walk(plan, spec, report: PlanReport, check_values: bool) -> None:
    from repro.tfmini.ops import get_op

    ctx = InferContext()
    info: list = [None] * plan._n_slots

    for slot, val in plan._const_slots:
        v = np.asarray(val)
        value = int(v.reshape(-1)[0]) if v.dtype.kind in "iu" and v.size == 1 else None
        info[slot] = _SlotInfo(v.shape, v.dtype, value=value)
    for slot, var in plan._var_slots:
        info[slot] = _SlotInfo(var.value.shape, var.value.dtype)
    for node, slot in zip(plan._feed_nodes, plan._feed_slots):
        if slot < 0:
            continue  # declared feed the fetches never touch
        fs = _spec_lookup(spec, node)
        if fs is None:
            report.findings.append(PlanFinding(
                "P106", f"feed '{node.name}' (slot {slot}) missing from the "
                        f"feed spec"))
            info[slot] = _SlotInfo()
            continue
        dtype = fs.dtype if fs.dtype is not None else node.dtype
        value = fs.value
        if isinstance(value, str):
            value = Dim.symbol(value)
        info[slot] = _SlotInfo(as_shape(fs.shape), dtype, value=value)

    no_rule_noted: set = set()
    for r_idx, rec in enumerate(plan._records):
        site = f"record {r_idx} ({rec.op})"
        ctx.set_site(site)
        ins = [
            info[s] if 0 <= s < plan._n_slots and info[s] is not None
            else _SlotInfo()
            for s in rec.input_slots
        ]

        out = _infer_record(rec, ins, ctx, report, r_idx, no_rule_noted, get_op)
        info[rec.out_slot] = out

        # P108: float-width mixing outside declared cast points.  A
        # shape-only input lends no values to the arithmetic, but it may
        # lend its dtype (``zeros_like`` in ``slice_grad``), so the output's
        # width counts beside the value inputs'.
        if rec.op not in ("cast", "cast_like"):
            shape_only = get_op(rec.op).shape_only
            widths = set()
            for si in [si for i, si in enumerate(ins) if i not in shape_only] + [out]:
                dts = [d for _s, d in si.parts] if si.parts else [si.dtype]
                widths |= {
                    np.dtype(d) for d in dts
                    if d is not None and np.dtype(d).kind == "f"
                }
            if len(widths) > 1:
                report.findings.append(PlanFinding(
                    "P108",
                    "mixes float widths "
                    + "/".join(sorted(d.name for d in widths))
                    + " outside a cast point",
                    record=r_idx, op=rec.op,
                ))

        report.records.append(
            f"[{r_idx:>4}] {rec.op:<18} {_mode_name(rec):<5} "
            f"slots {tuple(rec.input_slots)} -> {rec.out_slot}  "
            f"{out.describe()}"
        )

        if check_values:
            _check_against_value(plan, rec, r_idx, out, ctx, report)

    report.notes.extend(ctx.notes)


def _infer_record(rec, ins, ctx, report, r_idx, no_rule_noted, get_op) -> _SlotInfo:
    if rec.op == "item":
        src = ins[0]
        if src.parts is None:
            if not src.opaque:
                report.findings.append(PlanFinding(
                    "P107", "item applied to a non-tuple value",
                    record=r_idx, op=rec.op))
            return _SlotInfo()
        index = rec.attrs["index"]
        if not 0 <= index < len(src.parts):
            report.findings.append(PlanFinding(
                "P107", f"item index {index} out of range "
                        f"({len(src.parts)} parts)", record=r_idx, op=rec.op))
            return _SlotInfo()
        shape, dtype = src.parts[index]
        return _SlotInfo(shape, dtype)

    rule = get_op(rec.op).infer
    if rule is None:
        if rec.op not in no_rule_noted:
            no_rule_noted.add(rec.op)
            ctx.note(f"no shape rule for op '{rec.op}'; outputs left symbolic")
        return _SlotInfo()
    if any(si.opaque or (si.parts is None and si.shape is None) for si in ins):
        return _SlotInfo()  # garbage-in guard; the source already has a note
    shapes = [
        ctx.resolve_shape(si.shape) if si.parts is None else None for si in ins
    ]
    if any(s is None for s in shapes):
        report.findings.append(PlanFinding(
            "P107", "tuple-valued input to a non-item op",
            record=r_idx, op=rec.op))
        return _SlotInfo()
    dtypes = [si.dtype for si in ins]
    ctx.input_values = [si.value for si in ins]
    try:
        res = rule(shapes, dtypes, rec.attrs, ctx)
    except ShapeError as exc:
        report.findings.append(PlanFinding(
            "P107", str(exc), record=r_idx, op=rec.op))
        return _SlotInfo()
    finally:
        ctx.input_values = []
    if isinstance(res, list):
        parts = [(ctx.resolve_shape(s), np.dtype(d)) for s, d in res]
        return _SlotInfo(parts=parts)
    shape, dtype = res
    return _SlotInfo(ctx.resolve_shape(shape), dtype)


def _check_against_value(plan, rec, r_idx, out, ctx, report) -> None:
    """Compare the inferred shape/dtype with the last run's concrete value."""
    val = plan._values[rec.out_slot]
    pairs = []
    if isinstance(val, np.ndarray) and out.shape is not None:
        pairs.append((out.shape, out.dtype, val))
    elif isinstance(val, tuple) and out.parts is not None:
        for (shape, dtype), v in zip(out.parts, val):
            if isinstance(v, np.ndarray):
                pairs.append((shape, dtype, v))
    for shape, dtype, v in pairs:
        ctx.set_site(f"record {r_idx} ({rec.op}) vs last run")
        try:
            ctx.unify_shapes(ctx.resolve_shape(shape), v.shape, "runtime shape")
        except ShapeError as exc:
            report.findings.append(PlanFinding(
                "P107", str(exc), record=r_idx, op=rec.op))
        if dtype is not None and np.dtype(dtype) != v.dtype:
            report.findings.append(PlanFinding(
                "P108",
                f"inferred dtype {np.dtype(dtype).name} but the last run "
                f"produced {v.dtype.name}",
                record=r_idx, op=rec.op,
            ))


def spec_from_last_run(plan) -> dict:
    """Concrete feed spec recovered from the plan's most recent run."""
    spec: dict = {}
    for node, slot in zip(plan._feed_nodes, plan._feed_slots):
        if slot < 0:
            continue
        v = plan._values[slot]
        if not isinstance(v, np.ndarray):
            raise ValueError(
                f"feed '{node.name}' has no staged value — run the plan "
                f"before verifying against its last run"
            )
        fs = FeedSpec(v.shape, v.dtype)
        if v.dtype.kind in "iu" and v.size == 1:
            fs.value = int(v.reshape(-1)[0])
        spec[node] = fs
    return spec


# ---------------------------------------------------------------------------
# feed specs for the DP graphs
# ---------------------------------------------------------------------------


def _env_feed_spec(model) -> dict:
    """The per-type environment rows every DP graph is fed: ``n_t{t}`` rows
    of type ``t`` — one block's when the engine runs an evaluation in
    several blocks."""
    nnei = int(model.config.nnei)
    return {
        ph: FeedSpec((Dim.symbol(f"n_t{t}"), nnei, 4), np.float64)
        for t, ph in enumerate(model.ph_env)
    }


def dp_feed_spec(model) -> dict:
    """Symbolic feed signature of the batched engine's plan
    (:attr:`repro.dp.batch.BatchedEvaluator.plan`): the per-type
    environment rows of a :class:`repro.dp.model.DeepPot` and, per (centre
    type, neighbour type) section, the ``rows_t{t}_b{b}`` listing of the
    ``m_t{t}_b{b}`` neighbour slots its embedding net is run on.
    """
    spec = _env_feed_spec(model)
    for ph in model.ph_rows:
        spec[ph] = FeedSpec(
            (Dim.symbol(ph.name.replace("rows", "m", 1)),), np.int64
        )
    return spec


def train_feed_spec(trainer) -> dict:
    """Symbolic feed signature of a :class:`repro.dp.train.Trainer` graph.

    Beside the environment rows it feeds the geometry of the in-graph
    ``prod_force`` / ``prod_virial``: those tensors cover all fed rows, so
    their leading extent is the *sum* of the per-type symbols, and
    ``natoms`` (the scatter row count of ``prod_force``, which covers
    ghost rows in decomposed frames) is an independent value symbol.
    """
    model = trainer.model
    nnei = int(model.config.nnei)
    spec = _env_feed_spec(model)
    rows = sum(fs.shape[0] for fs in spec.values())
    spec[model.ph_em_deriv] = FeedSpec((rows, nnei, 4, 3), np.float64)
    spec[model.ph_rij] = FeedSpec((rows, nnei, 3), np.float64)
    spec[model.ph_nlist] = FeedSpec((rows, nnei), np.int64)
    spec[model.ph_atom_idx] = FeedSpec((rows,), np.int64)
    spec[model.ph_natoms] = FeedSpec((1,), np.int64, value="natoms")
    spec[trainer.ph_e_label] = FeedSpec((), np.float64)
    spec[trainer.ph_f_label] = FeedSpec((Dim.symbol("natoms"), 3), np.float64)
    spec[trainer.ph_inv_natoms] = FeedSpec((), np.float64)
    spec[trainer.ph_pref_e] = FeedSpec((), np.float64)
    spec[trainer.ph_pref_f] = FeedSpec((), np.float64)
    if trainer.config.use_virial:
        spec[trainer.ph_v_label] = FeedSpec((3, 3), np.float64)
        spec[trainer.ph_pref_v] = FeedSpec((), np.float64)
    return spec


# ---------------------------------------------------------------------------
# zoo-wide verification (the `repro check-plans` entry point)
# ---------------------------------------------------------------------------


def check_all_plans(
    precisions=("double", "mixed"),
    include_train: bool = True,
    include_serving: bool = True,
    report: bool = False,
) -> list[dict]:
    """Compile and verify evaluate/train/serving plans across the zoo matrix.

    Uses *untrained* models with the zoo configurations — plan structure
    does not depend on the weights, and this keeps the check seconds-fast
    for CI.  Evaluate plans additionally get a warm run and a runtime-
    agreement pass (inferred shapes vs the arrays the tape produced).

    The last entry is one *blocked* engine plan: paper-width nets (the
    ``md_copper_fig3`` configuration) on 256 atoms, an evaluation the
    engine runs in several row blocks — the verifier sees the layout of one
    block and the values its last block left.

    Returns one entry per verified plan:
    ``{"plan": "water/double/evaluate", "report": PlanReport, "records": n}``.

    ``report=True`` adds a ``"metrics"`` entry per plan
    (:func:`plan_metrics`: record count, blocks per evaluation,
    colored-vs-FIFO arena bytes) and warms the train plans too (one step),
    so arena footprints are measured, not zero.  Serving plans are always
    warmed: two layouts in one pool is what P103 has to see there.
    """
    from repro.analysis.structures import fcc_lattice, water_box
    from repro.dp.batch import BatchedEvaluator
    from repro.dp.data import label_frames
    from repro.dp.model import DeepPot, DPConfig
    from repro.dp.train import TrainConfig, Trainer
    from repro.md.neighbor import neighbor_pairs
    from repro.oracles import FlexibleWater, SuttonChenEAM
    from repro.zoo import copper_config, water_config

    # Smallest boxes whose edges satisfy minimum-image for the zoo cutoffs.
    species = {
        "water": (water_config, lambda: water_box((3, 3, 3), seed=0),
                  lambda: FlexibleWater(cutoff=4.0)),
        "copper": (copper_config, lambda: fcc_lattice((3, 3, 3)),
                   lambda: SuttonChenEAM(r_on=4.0, cutoff=5.0)),
    }
    results: list[dict] = []

    def add(label: str, plan, spec, check_values: bool = False,
            evaluations: int = 0) -> None:
        entry = {
            "plan": label,
            "report": verify_plan(plan, spec=spec, check_values=check_values),
            "records": plan.n_records,
        }
        if report:
            entry["metrics"] = plan_metrics(plan, evaluations)
        results.append(entry)

    for name, (config_fn, system_fn, oracle_fn) in species.items():
        system = system_fn()
        for precision in precisions:
            model = DeepPot(config_fn(precision))
            engine = BatchedEvaluator(model)
            pi, pj = neighbor_pairs(system, model.config.rcut)
            engine.evaluate_batch([system], [(pi, pj)])  # warm the arena
            add(f"{name}/{precision}/evaluate", engine.plan,
                dp_feed_spec(model), check_values=True,
                evaluations=engine.batch_evaluations)

            if include_train and precision == "double":
                dataset = label_frames([system.copy()], oracle_fn())
                dataset.apply_stats(model)
                trainer = Trainer(
                    model, dataset, TrainConfig(n_steps=1, log_every=10)
                )
                if report:
                    trainer.step()  # warm: measured (not zero) arena bytes
                add(f"{name}/{precision}/train", trainer.plan,
                    train_feed_spec(trainer))

            if include_serving:
                from repro.serving import InferenceServer

                server = InferenceServer({name: model}, autostart=False)
                try:
                    engine = server._engines[name]
                    # As serving runs it: two layouts in the one pool, the
                    # 1-frame one run again after the 2-frame one re-made it.
                    for n in (1, 2, 1):
                        engine.evaluate_batch([system] * n, [(pi, pj)] * n)
                    add(f"{name}/{precision}/serving", engine.plan,
                        dp_feed_spec(model),
                        evaluations=engine.batch_evaluations)
                finally:
                    server.stop()

    model = DeepPot(DPConfig(
        type_names=("Cu",), rcut=7.0, rcut_smth=2.0, sel=(220,)))
    system = fcc_lattice((4, 4, 4))
    engine = BatchedEvaluator(model)
    engine.evaluate_batch([system], [neighbor_pairs(system, model.config.rcut)])
    add("copper-fig3/double/evaluate-blocked", engine.plan,
        dp_feed_spec(model), check_values=True,
        evaluations=engine.batch_evaluations)
    return results
