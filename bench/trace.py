"""Span tracing installed from outside the program, for the traced run only.

``Tracer.install()`` replaces the public functions named in ``TARGETS``
with timing wrappers; each call records one span (layer name, start, end,
parent span, operation id, thread).  Spans stay in memory until the run
ends.  A layer's time is its *self* time: a span's duration minus the
durations of the spans it directly caused, summed over the layer's spans.

Clocks are ``time.perf_counter`` (CLOCK_MONOTONIC on Linux), which shares
one origin across processes, so the spans of the serving daemon and of its
client merge into one timeline.
"""

from __future__ import annotations

import importlib
import json
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute path inside it, layer name).  Two attributes may feed
# one layer: the layer's time is the sum of their self times.
TARGETS = [
    ("repro.md.neighbor", "NeighborList.build", "md.neighbor.build"),
    ("repro.md.neighbor", "NeighborList.maybe_rebuild", "md.neighbor.check"),
    ("repro.md.integrators", "VelocityVerlet.first_half", "md.integrators"),
    ("repro.md.integrators", "VelocityVerlet.second_half", "md.integrators"),
    ("repro.md.thermo", "ThermoLog.maybe_record", "md.thermo"),
    ("repro.md.simulation", "Simulation.step_once", "md.driver"),
    ("repro.md.ensemble", "EnsembleSimulation.run", "md.driver"),
    ("repro.dp.backend", "ForceBackend.evaluate", "dp.backend"),
    ("repro.dp.batch", "BatchedEvaluator.evaluate_batch", "dp.batch"),
    # format_neighbors / environment_op are reached through the bindings
    # their callers imported, so those bindings are what gets wrapped.
    ("repro.dp.batch", "format_neighbors", "dp.nlist_fmt"),
    ("repro.dp.batch", "environment_op", "dp.env"),
    ("repro.dp.model", "format_neighbors", "dp.nlist_fmt"),
    ("repro.dp.model", "environment_op", "dp.env"),
    ("repro.dp.ops_optimized", "env_rows", "dp.env.rows"),
    ("repro.tfmini.plan", "ExecutionPlan.run_list", "tfmini.plan"),
    ("repro.tfmini.plan", "ExecutionPlan.run", "tfmini.plan"),
    ("repro.dp.train", "Trainer.step", "dp.train"),
    ("repro.dp.train", "neighbor_pairs", "dp.train.feeds"),
    ("repro.dp.model", "DeepPot.prepare_feeds", "dp.train.feeds"),
    ("repro.tfmini.optimizer", "Adam.apply", "dp.train.opt"),
    ("repro.serving.net", "SocketClient.submit", "serving.client.submit"),
    ("repro.serving.protocol", "encode_frame", "serving.protocol.encode"),
    ("repro.serving.protocol", "decode_payload", "serving.protocol.decode"),
    ("repro.serving.worker", "InferenceServer.submit", "serving.worker.admit"),
]

# Span fields, by position.  VALUE is what the layer's observer (below)
# read off the call: a count made where the work happens.
NAME, START, END, PARENT, OP, THREAD, VALUE = range(7)


def _observe_layout(tracer, span, args, result):
    """format_neighbors: (neighbours dropped, slots filled, slots)."""
    nlist = result.nlist
    return (result.n_dropped, int(np.count_nonzero(nlist >= 0)), nlist.size)


def _observe_admission(tracer, span, args, result):
    """InferenceServer.submit: the request's span inside the daemon, from
    admission entry to its future resolving (on whichever thread)."""
    start = span[START]
    result.add_done_callback(
        lambda _future: tracer.record("serving.request", start, perf_counter())
    )


OBSERVERS = {
    "dp.nlist_fmt": _observe_layout,
    "serving.protocol.encode": lambda tracer, span, args, result: len(result),
    "serving.protocol.decode": lambda tracer, span, args, result: len(args[0]),
    "serving.worker.admit": _observe_admission,
}


def _holder(module: str, path: str) -> tuple[object, str]:
    """The object (module or class) holding a target, and the attribute."""
    owner = importlib.import_module(module)
    *holders, attr = path.split(".")
    for holder in holders:
        owner = getattr(owner, holder)
    return owner, attr


class Tracer:
    """Records spans around the wrapped functions of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def set_op(self, op: int) -> None:
        """Operation (MD step / request) id stamped on this thread's spans."""
        self._local.op = op

    def record(self, name: str, start: float, end: float) -> None:
        """A span measured by the caller (no parent: it crosses threads)."""
        self.spans.append(
            [name, start, end, None, -1, threading.get_ident(), None]
        )

    def _wrap(self, name: str, fn):
        spans, local = self.spans, self._local
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            parent = getattr(local, "top", None)
            span = [name, perf_counter(), 0.0, parent,
                    getattr(local, "op", -1), threading.get_ident(), None]
            local.top = span
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                local.top = parent
                spans.append(span)
            if observe is not None:
                span[VALUE] = observe(self, span, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # --------------------------------------------------------- installation

    def install(self) -> None:
        for module, path, name in TARGETS:
            owner, attr = _holder(module, path)
            original = vars(owner)[attr]
            if not callable(original) or isinstance(
                original, (staticmethod, classmethod)
            ):
                raise TypeError(f"{module}.{path} is not a plain function")
            setattr(owner, attr, self._wrap(name, original))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @staticmethod
    def wrapped_targets() -> list[str]:
        """TARGETS whose attribute is currently a tracing wrapper."""
        found = []
        for module, path, _name in TARGETS:
            owner, attr = _holder(module, path)
            if hasattr(vars(owner)[attr], "__wrapped__"):
                found.append(f"{module}.{path}")
        return found


# ------------------------------------------------------------------ analysis


def window(spans: list[list], start: float, end: float) -> list[list]:
    """Spans that began inside ``[start, end]``."""
    return [s for s in spans if start <= s[START] <= end]


def self_times(spans: list[list]) -> tuple[dict[str, float], dict[str, int]]:
    """Self seconds and span count per layer name."""
    children: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None:
            children[id(s[PARENT])] += s[END] - s[START]
    seconds: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    for s in spans:
        seconds[s[NAME]] += s[END] - s[START] - children[id(s)]
        counts[s[NAME]] += 1
    return dict(seconds), dict(counts)


def inclusive_times(spans: list[list]) -> dict[str, float]:
    """Seconds per layer name, children included."""
    seconds: dict[str, float] = defaultdict(float)
    for s in spans:
        seconds[s[NAME]] += s[END] - s[START]
    return dict(seconds)


def export(spans: list[list]) -> list[list]:
    """Spans as JSON-ready rows; the parent becomes its row index (or -1)."""
    index = {id(s): i for i, s in enumerate(spans)}
    return [
        [s[NAME], s[START], s[END], index.get(id(s[PARENT]), -1), s[OP],
         s[THREAD], s[VALUE]]
        for s in spans
    ]


def restore(rows: list[list]) -> list[list]:
    """Inverse of :func:`export`: parents become span references again."""
    spans = [list(r) for r in rows]
    for s in spans:
        s[PARENT] = spans[s[PARENT]] if s[PARENT] >= 0 else None
    return spans


def write_chrome_trace(path, processes: dict[str, list[list]]) -> None:
    """One Chrome-trace file (chrome://tracing, ui.perfetto.dev) holding
    the spans of every process in ``processes`` on a shared timeline."""
    every = [s for spans in processes.values() for s in spans]
    origin = min((s[START] for s in every), default=0.0)
    events = []
    for pid, (label, spans) in enumerate(processes.items()):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": label}})
        index = {id(s): i for i, s in enumerate(spans)}
        for i, s in enumerate(spans):
            events.append({
                "name": s[NAME], "ph": "X", "pid": pid, "tid": s[THREAD],
                "ts": (s[START] - origin) * 1e6,
                "dur": (s[END] - s[START]) * 1e6,
                "args": {"span": i, "parent": index.get(id(s[PARENT]), -1),
                         "op": s[OP]},
            })
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
