"""Exact-restart checkpointing for the MD drivers.

A checkpoint captures *everything* the step loop reads — positions,
velocities, box lengths, thermostat internals (Langevin RNG state,
Nosé-Hoover ``xi``), neighbor-list bookkeeping (pair lists, reference
positions, rebuild step), the last force evaluation, thermo rows, and the
step/evaluation counters — so a resumed trajectory is **bitwise identical**
to the uninterrupted run (``tests/test_checkpoint.py`` pins this for all
four drivers: :class:`~repro.md.simulation.Simulation`,
:class:`~repro.parallel.driver.DistributedSimulation`, and the lockstep
:class:`~repro.md.ensemble.EnsembleSimulation` /
:class:`~repro.parallel.driver.DistributedEnsembleSimulation`, whose state
is their replicas' states, nested).

File format (own minimal framing — ``np.savez`` embeds zip timestamps, so
its bytes are not reproducible)::

    REPROCKPT1\\n
    <blake2b-128 hex of payload>\\n
    payload = u32 meta_len | meta JSON (utf-8) | raw array blob

The payload is the tagged-array container defined here
(:func:`pack_tagged` / :func:`unpack_tagged`); the serving wire protocol
(:mod:`repro.serving.protocol`) frames the same container.

The JSON meta carries structure (kind, counters, integrator state — RNG
states are exact integers, which JSON round-trips losslessly); every float
array travels as dtype/shape-tagged raw bytes, so restored numerics are
bitwise equal to what was saved.  Writes are atomic (temp file + fsync +
``os.replace``): a crash mid-write leaves the previous checkpoint intact,
and the checksum rejects torn or corrupted files at load time.

Restore protocol: the caller reconstructs the driver with the *same*
constructor arguments (model, dt, grid, integrator types/params — the code
is the schema), then :func:`restore_checkpoint` overwrites the mutable
state.  A checkpoint for a different system (atom types), timestep, or
driver kind is refused with :class:`CheckpointError`.

:class:`CheckpointWriter` is the trigger layer: a ``run(callback=...)``
callback that saves every N steps and, when armed via
:meth:`~CheckpointWriter.install_sigterm`, turns SIGTERM into
save-then-:class:`CheckpointInterrupt` — the graceful-kill path ``repro md
--checkpoint-dir`` uses.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from math import prod
from pathlib import Path

import numpy as np

from repro.md.potential import PotentialResult
from repro.md.thermo import ThermoState

MAGIC = b"REPROCKPT1\n"
#: 2: a lockstep driver's state is its replicas' states, nested; the
#: distributed driver records whether forces were evaluated.
FORMAT = 2

_U32 = struct.Struct("!I")


class CheckpointError(RuntimeError):
    """Unreadable, corrupt, or mismatched checkpoint."""


class CheckpointInterrupt(BaseException):
    """Raised out of the MD loop after a SIGTERM-triggered checkpoint.

    Derives from ``BaseException`` (like ``KeyboardInterrupt``) so library
    code catching ``Exception`` cannot swallow the shutdown request.
    """


# ---------------------------------------------------------------------------
# the tagged-array container (checkpoint payloads and serving wire frames)
# ---------------------------------------------------------------------------


class TaggedArrayError(ValueError):
    """Bytes that do not decode as a tagged-array container."""


def pack_arrays(arrays: dict[str, np.ndarray]) -> tuple[list, bytes]:
    """Tag ``arrays`` for the header and concatenate their raw bytes.

    Returns ``(specs, blob)`` where ``specs`` is the JSON-ready list of
    ``[name, dtype_str, shape]`` triples in blob order.  Arrays are
    serialized C-contiguous; ``frombuffer`` on the far side reproduces them
    bitwise (dtype-preserving, no text round trip).
    """
    specs: list = []
    parts: list[bytes] = []
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        if not arr.flags["C_CONTIGUOUS"]:
            # NB: ascontiguousarray promotes 0-d to 1-d, so only call it
            # when needed (0-d arrays are always contiguous).
            arr = np.ascontiguousarray(arr)
        specs.append([name, arr.dtype.str, list(arr.shape)])
        parts.append(arr.tobytes())
    return specs, b"".join(parts)


def unpack_arrays(specs: list, blob: bytes, offset: int = 0) -> dict[str, np.ndarray]:
    """Inverse of :func:`pack_arrays` over ``blob[offset:]`` (arrays are
    writable copies); the specs must account for every byte.  They come off
    the wire or out of a file, so anything but a list of ``[name, dtype_str,
    shape]`` naming fixed-size plain-data dtypes and non-negative integer
    extents that fit the blob raises :class:`TaggedArrayError`."""
    if not isinstance(specs, list):
        raise TaggedArrayError(f"array specs are not a list: {specs!r:.80}")
    out: dict[str, np.ndarray] = {}
    for spec in specs:
        try:
            name, dtype_str, shape = spec
            dtype = np.dtype(dtype_str)
            ok = (
                [type(x) for x in (spec, name, dtype_str, shape)]
                == [list, str, str, list]
                and all(type(d) is int and d >= 0 for d in shape)
                and not dtype.hasobject
                and dtype.subdtype is None
                # numpy sizes an empty array by its non-zero extents
                and 0 < prod(d or 1 for d in shape) * dtype.itemsize < 2**63
            )
        except (TypeError, ValueError):  # not a triple; no such dtype
            ok = False
        if not ok:
            raise TaggedArrayError(f"bad array spec {spec!r:.80}")
        count = prod(shape)  # Python ints: a hostile extent cannot wrap
        nbytes = count * dtype.itemsize
        if offset + nbytes > len(blob):
            raise TaggedArrayError(
                f"array {name!r} overruns the payload "
                f"({offset + nbytes} > {len(blob)} bytes)"
            )
        out[name] = (
            np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
            .reshape(shape)
            .copy()
        )
        offset += nbytes
    if offset != len(blob):
        raise TaggedArrayError(
            f"{len(blob) - offset} trailing bytes after the last array"
        )
    return out


def pack_tagged(header: dict, arrays: dict[str, np.ndarray]) -> bytes:
    """``u32 header_len | JSON header | raw array bytes``: ``header`` plus
    an ``"arrays"`` key carrying the specs, then the blob."""
    specs, blob = pack_arrays(arrays)
    head = dict(header)
    head["arrays"] = specs
    head_bytes = json.dumps(head, separators=(",", ":")).encode("utf-8")
    return b"".join((_U32.pack(len(head_bytes)), head_bytes, blob))


def unpack_tagged(payload: bytes, offset: int = 0) -> tuple[dict, dict[str, np.ndarray]]:
    """``(header, arrays)`` from the container at ``payload[offset:]``."""
    if len(payload) < offset + 4:
        raise TaggedArrayError(f"truncated payload ({len(payload)} bytes)")
    (head_len,) = _U32.unpack_from(payload, offset)
    head_end = offset + 4 + head_len
    if head_end > len(payload):
        raise TaggedArrayError("header overruns the payload")
    try:
        header = json.loads(payload[offset + 4 : head_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise TaggedArrayError(f"bad header: {exc}") from None
    if not isinstance(header, dict):
        raise TaggedArrayError(f"header is not an object: {header!r:.80}")
    return header, unpack_arrays(header.pop("arrays", []), payload, head_end)


# ---------------------------------------------------------------------------
# file I/O (atomic write, checksummed read)
# ---------------------------------------------------------------------------


def _atomic_write(path: Path, data: bytes) -> None:
    """Write-to-temp + fsync + rename: readers never see a torn file."""
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def save_checkpoint(sim, path) -> Path:
    """Serialize ``sim`` (any of the four drivers) to ``path`` atomically;
    returns the path."""
    meta, arrays = checkpoint_state(sim)
    payload = pack_tagged(meta, arrays)
    digest = hashlib.blake2b(payload, digest_size=16).hexdigest()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write(path, MAGIC + digest.encode("ascii") + b"\n" + payload)
    return path


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read + verify a checkpoint file; returns ``(meta, arrays)``."""
    data = Path(path).read_bytes()
    if not data.startswith(MAGIC):
        raise CheckpointError(f"{path}: not a repro checkpoint (bad magic)")
    rest = data[len(MAGIC):]
    nl = rest.find(b"\n")
    if nl < 0:
        raise CheckpointError(f"{path}: truncated checksum header")
    expected = rest[:nl].decode("ascii", errors="replace")
    payload = rest[nl + 1:]
    actual = hashlib.blake2b(payload, digest_size=16).hexdigest()
    if actual != expected:
        raise CheckpointError(
            f"{path}: checksum mismatch ({actual} != {expected}) — "
            f"the file is corrupt or was torn mid-write"
        )
    try:
        meta, arrays = unpack_tagged(payload)
    except TaggedArrayError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    if meta.get("format") != FORMAT:
        raise CheckpointError(
            f"{path}: format {meta.get('format')} != {FORMAT}"
        )
    return meta, arrays


def restore_checkpoint(sim, path):
    """Load ``path`` and restore its state into ``sim`` (constructed with
    the same arguments as the checkpointed driver); returns ``sim``."""
    meta, arrays = load_checkpoint(path)
    restore_state(sim, meta, arrays)
    return sim


# ---------------------------------------------------------------------------
# per-component helpers
# ---------------------------------------------------------------------------


def _integrator_state(integ) -> dict:
    from repro.md.integrators import Langevin, NoseHoover

    if isinstance(integ, Langevin):
        # bit_generator.state is a JSON-safe dict of exact integers.
        return {"kind": "Langevin", "rng": integ._rng.bit_generator.state}
    if isinstance(integ, NoseHoover):
        return {"kind": "NoseHoover", "xi": integ.xi}
    return {"kind": type(integ).__name__}


def _restore_integrator(integ, state: dict) -> None:
    from repro.md.integrators import Langevin, NoseHoover

    kind = state.get("kind")
    if kind != type(integ).__name__:
        raise CheckpointError(
            f"integrator mismatch: checkpoint has {kind}, "
            f"driver has {type(integ).__name__}"
        )
    if isinstance(integ, Langevin):
        integ._rng.bit_generator.state = state["rng"]
    elif isinstance(integ, NoseHoover):
        integ.xi = float(state["xi"])


def _neighbor_state(nl, prefix: str, arrays: dict) -> dict:
    meta = {
        "n_builds": nl.n_builds,
        "last_build_step": nl._last_build_step,
        "has_pairs": nl.pair_i is not None,
        "has_ref": nl._ref_positions is not None,
    }
    if nl.pair_i is not None:
        arrays[prefix + "pair_i"] = nl.pair_i
        arrays[prefix + "pair_j"] = nl.pair_j
    if nl._ref_positions is not None:
        arrays[prefix + "ref_positions"] = nl._ref_positions
        arrays[prefix + "ref_box"] = nl._ref_box
    return meta


def _restore_neighbor(nl, prefix: str, arrays: dict, meta: dict) -> None:
    nl.n_builds = int(meta["n_builds"])
    nl._last_build_step = int(meta["last_build_step"])
    if meta["has_pairs"]:
        nl.pair_i = arrays[prefix + "pair_i"]
        nl.pair_j = arrays[prefix + "pair_j"]
    if meta["has_ref"]:
        nl._ref_positions = arrays[prefix + "ref_positions"]
        nl._ref_box = arrays[prefix + "ref_box"]


def _result_arrays(res, prefix: str, arrays: dict) -> None:
    arrays[prefix + "energy"] = np.float64(res.energy)
    arrays[prefix + "forces"] = res.forces
    arrays[prefix + "virial"] = np.asarray(res.virial, dtype=np.float64)
    if res.atom_energies is not None:
        arrays[prefix + "atom_energies"] = res.atom_energies


def _build_result(prefix: str, arrays: dict) -> PotentialResult:
    return PotentialResult(
        energy=float(arrays[prefix + "energy"]),
        forces=arrays[prefix + "forces"],
        virial=arrays[prefix + "virial"],
        atom_energies=arrays.get(prefix + "atom_energies"),
    )


def _thermo_rows_array(rows) -> np.ndarray:
    if not rows:
        return np.zeros((0, 7))
    return np.array([r.as_tuple() for r in rows], dtype=np.float64)


def _build_thermo_rows(arr: np.ndarray) -> list[ThermoState]:
    return [
        ThermoState(int(r[0]), *(float(v) for v in r[1:])) for r in arr
    ]


def _check_system(sim_types: np.ndarray, ck_types: np.ndarray) -> None:
    if not np.array_equal(sim_types, ck_types):
        raise CheckpointError(
            "checkpoint is for a different system (atom types differ)"
        )


# ---------------------------------------------------------------------------
# per-driver state capture / restore
# ---------------------------------------------------------------------------


LOCKSTEP_KINDS = ("EnsembleSimulation", "DistributedEnsembleSimulation")


def checkpoint_state(sim) -> tuple[dict, dict[str, np.ndarray]]:
    """``(meta, arrays)`` for any supported driver.

    Dispatch is by type *name* so this module never imports
    :mod:`repro.parallel` at module scope (parallel imports md, not the
    other way around).
    """
    kind = type(sim).__name__
    if kind == "Simulation":
        return _simulation_state(sim)
    if kind in LOCKSTEP_KINDS:
        return _ensemble_state(sim)
    if kind == "DistributedSimulation":
        return _distributed_state(sim)
    raise CheckpointError(f"cannot checkpoint a {kind}")


def restore_state(sim, meta: dict, arrays: dict) -> None:
    """Overwrite ``sim``'s mutable state from ``(meta, arrays)``."""
    kind = type(sim).__name__
    if meta.get("kind") != kind:
        raise CheckpointError(
            f"checkpoint holds a {meta.get('kind')}, driver is a {kind}"
        )
    if kind == "Simulation":
        _restore_simulation(sim, meta, arrays)
    elif kind in LOCKSTEP_KINDS:
        _restore_ensemble(sim, meta, arrays)
    elif kind == "DistributedSimulation":
        _restore_distributed(sim, meta, arrays)
    else:
        raise CheckpointError(f"cannot restore a {kind}")


# -- serial Simulation ------------------------------------------------------


def _simulation_state(sim):
    arrays: dict[str, np.ndarray] = {
        "positions": sim.system.positions,
        "velocities": sim.system.velocities,
        "box": sim.system.box.lengths,
        "types": sim.system.types,
        "thermo_rows": _thermo_rows_array(sim.thermo.rows),
    }
    meta = {
        "format": FORMAT,
        "kind": "Simulation",
        "dt": sim.dt,
        "step_count": sim.step_count,
        "force_evaluations": sim.force_evaluations,
        "loop_seconds": sim.loop_seconds,
        "setup_seconds": sim.setup_seconds,
        "has_result": sim._result is not None,
        "trajectory_frames": len(sim.trajectory),
        "neighbor": _neighbor_state(sim.neighbor, "nl_", arrays),
        "integrator": _integrator_state(sim.integrator),
        "deform_has_initial": (
            sim.deform is not None
            and sim.deform._initial_length is not None
        ),
    }
    if sim._result is not None:
        _result_arrays(sim._result, "res_", arrays)
    if sim.trajectory:
        arrays["trajectory"] = np.stack(sim.trajectory)
    if meta["deform_has_initial"]:
        arrays["deform_initial_length"] = np.float64(
            sim.deform._initial_length
        )
    return meta, arrays


def _restore_simulation(sim, meta, arrays):
    _check_system(sim.system.types, arrays["types"])
    if float(meta["dt"]) != sim.dt:
        raise CheckpointError(
            f"dt mismatch: checkpoint {meta['dt']}, driver {sim.dt}"
        )
    sim.system.box.lengths[:] = arrays["box"]
    sim.system.positions = arrays["positions"]
    sim.system.velocities = arrays["velocities"]
    sim.step_count = int(meta["step_count"])
    sim.force_evaluations = int(meta["force_evaluations"])
    sim.loop_seconds = float(meta["loop_seconds"])
    sim.setup_seconds = float(meta["setup_seconds"])
    sim.thermo.rows = _build_thermo_rows(arrays["thermo_rows"])
    sim.trajectory = (
        [f.copy() for f in arrays["trajectory"]]
        if meta["trajectory_frames"]
        else []
    )
    _restore_neighbor(sim.neighbor, "nl_", arrays, meta["neighbor"])
    _restore_integrator(sim.integrator, meta["integrator"])
    sim._result = _build_result("res_", arrays) if meta["has_result"] else None
    if meta["deform_has_initial"]:
        sim.deform._initial_length = float(arrays["deform_initial_length"])


# -- lockstep drivers: the replicas' states, nested ---------------------------


def _ensemble_state(sim):
    arrays: dict[str, np.ndarray] = {}
    replicas = []
    for k, rep in enumerate(sim.replicas):
        rep_meta, rep_arrays = checkpoint_state(rep)
        replicas.append(rep_meta)
        arrays.update((f"r{k}_{name}", a) for name, a in rep_arrays.items())
    meta = {
        "format": FORMAT,
        "kind": type(sim).__name__,
        "n_replicas": sim.n_replicas,
        "force_evaluations": sim.force_evaluations,
        "loop_seconds": sim.loop_seconds,
        "setup_seconds": sim.setup_seconds,
        "replicas": replicas,
    }
    return meta, arrays


def _restore_ensemble(sim, meta, arrays):
    if int(meta["n_replicas"]) != sim.n_replicas:
        raise CheckpointError(
            f"replica count mismatch: checkpoint {meta['n_replicas']}, "
            f"driver {sim.n_replicas}"
        )
    for k, (rep, rep_meta) in enumerate(zip(sim.replicas, meta["replicas"])):
        prefix = f"r{k}_"
        restore_state(
            rep,
            rep_meta,
            {
                name[len(prefix):]: a
                for name, a in arrays.items()
                if name.startswith(prefix)
            },
        )
    sim.force_evaluations = int(meta["force_evaluations"])
    sim.loop_seconds = float(meta["loop_seconds"])
    sim.setup_seconds = float(meta["setup_seconds"])


# -- domain-decomposed driver ----------------------------------------------


def _distributed_state(sim):
    # Pending iallreduce handles hold values already computed at call time;
    # resolving them now appends the same rows FIFO order would, so the
    # flush is bitwise-neutral (and between run() calls it is a no-op).
    sim.finish_run()
    arrays: dict[str, np.ndarray] = {
        "positions": sim.system.positions,
        "velocities": sim.system.velocities,
        "box": sim.system.box.lengths,
        "types": sim.system.types,
        "thermo_rows": _thermo_rows_array(sim.thermo),
        "rank_energy": sim._rank_energy,
        "rank_virial": sim._rank_virial,
    }
    for dom in sim.decomp.domains:
        p = f"d{dom.rank}_"
        arrays[p + "global_idx"] = dom.global_idx
        arrays[p + "positions"] = dom.positions
        arrays[p + "velocities"] = dom.velocities
        arrays[p + "types"] = dom.types
        if sim.initialized:
            arrays[p + "forces"] = dom.forces
        arrays[p + "ghost_positions"] = dom.ghost_positions
        arrays[p + "ghost_types"] = dom.ghost_types
        arrays[p + "ref_positions"] = sim._ref_positions[dom.rank]
    batches = []
    for i, b in enumerate(sim.decomp._batches):
        batches.append([int(b.src), int(b.dst)])
        arrays[f"b{i}_src_indices"] = b.src_indices
        arrays[f"b{i}_shift"] = b.shift
    meta = {
        "format": FORMAT,
        "kind": "DistributedSimulation",
        "dt": sim.dt,
        "grid": list(sim.grid),
        "step_count": sim.step_count,
        "has_forces": sim.initialized,
        "last_rebuild": sim._last_rebuild,
        "batches": batches,
    }
    return meta, arrays


def _restore_distributed(sim, meta, arrays):
    from repro.parallel.decomp import GhostBatch

    if tuple(meta["grid"]) != tuple(sim.grid):
        raise CheckpointError(
            f"grid mismatch: checkpoint {meta['grid']}, driver {sim.grid}"
        )
    if float(meta["dt"]) != sim.dt:
        raise CheckpointError(
            f"dt mismatch: checkpoint {meta['dt']}, driver {sim.dt}"
        )
    _check_system(sim.system.types, arrays["types"])
    sim.system.box.lengths[:] = arrays["box"]
    sim.system.positions = arrays["positions"]
    sim.system.velocities = arrays["velocities"]
    sim.decomp._make_domains(sim.system.box)
    ref_positions: dict[int, np.ndarray] = {}
    for dom in sim.decomp.domains:
        p = f"d{dom.rank}_"
        dom.global_idx = arrays[p + "global_idx"]
        dom.positions = arrays[p + "positions"]
        dom.velocities = arrays[p + "velocities"]
        dom.types = arrays[p + "types"]
        dom.forces = arrays.get(p + "forces")
        dom.ghost_positions = arrays[p + "ghost_positions"]
        dom.ghost_types = arrays[p + "ghost_types"]
        ref_positions[dom.rank] = arrays[p + "ref_positions"]
    sim.decomp._batches = [
        GhostBatch(
            src=int(src),
            dst=int(dst),
            src_indices=arrays[f"b{i}_src_indices"],
            shift=arrays[f"b{i}_shift"],
        )
        for i, (src, dst) in enumerate(meta["batches"])
    ]
    sim._ref_positions = ref_positions
    sim._last_rebuild = int(meta["last_rebuild"])
    sim.step_count = int(meta["step_count"])
    # Restored forces must not be evaluated again (and double-counted).
    sim.initialized = bool(meta["has_forces"])
    sim._rank_energy = arrays["rank_energy"]
    sim._rank_virial = arrays["rank_virial"]
    sim._pending_thermo = []
    sim.thermo = _build_thermo_rows(arrays["thermo_rows"])


# ---------------------------------------------------------------------------
# triggers: periodic interval + SIGTERM
# ---------------------------------------------------------------------------


class CheckpointWriter:
    """Periodic + on-SIGTERM checkpoint trigger.

    Use as the ``run(callback=...)`` callback of any of the four drivers::

        writer = CheckpointWriter(sim, "ckpts", every=50).install_sigterm()
        try:
            sim.run(10_000, callback=writer)
        except CheckpointInterrupt:
            ...                      # checkpoint written; exit cleanly
        finally:
            writer.uninstall_sigterm()

    ``every=N`` saves whenever ``step_count`` is a multiple of N (0
    disables periodic saves).  :meth:`install_sigterm` registers a handler
    that only sets a flag (async-signal-safe); the *next step's* callback
    writes the checkpoint and raises :class:`CheckpointInterrupt`, so the
    file always captures a consistent between-steps state.
    """

    def __init__(self, sim, directory, every: int = 0,
                 filename: str = "ckpt.repro"):
        if every < 0:
            raise ValueError(f"every must be >= 0, got {every}")
        self.sim = sim
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / filename
        self.every = int(every)
        self.saves = 0
        self._signaled = False
        self._old_handler = None
        self._installed = False

    # -- signal plumbing --------------------------------------------------

    def install_sigterm(self) -> "CheckpointWriter":
        """Arm SIGTERM -> flag -> save + CheckpointInterrupt; returns self.

        Only valid from the main thread (a CPython ``signal`` constraint).
        """
        import signal

        self._old_handler = signal.signal(signal.SIGTERM, self._on_signal)
        self._installed = True
        return self

    def uninstall_sigterm(self) -> None:
        if self._installed:
            import signal

            signal.signal(signal.SIGTERM, self._old_handler)
            self._installed = False

    def _on_signal(self, signum, frame) -> None:
        self._signaled = True

    # -- the trigger -------------------------------------------------------

    @property
    def signaled(self) -> bool:
        return self._signaled

    def __call__(self, sim=None) -> None:
        """Per-step hook: periodic save, or SIGTERM save-and-interrupt."""
        if self._signaled:
            self.save()
            raise CheckpointInterrupt(
                f"SIGTERM: checkpoint written to {self.path} at step "
                f"{self.sim.step_count}"
            )
        if self.every and self.sim.step_count % self.every == 0:
            self.save()

    def save(self) -> Path:
        path = save_checkpoint(self.sim, self.path)
        self.saves += 1
        return path
