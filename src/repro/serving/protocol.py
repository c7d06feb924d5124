"""Wire protocol for out-of-process serving (:mod:`repro.serving.net`).

Every message is one **length-prefixed binary frame**::

    +----------------+---------+----------+-------------+-----------------+
    | u32 payload len| u8 ver  | u8 type  | JSON header | raw array bytes |
    +----------------+---------+----------+-------------+-----------------+
                     |<-------------- payload (len bytes) --------------->|

The 4-byte big-endian length counts everything after itself.  The first
payload byte is :data:`PROTOCOL_VERSION`; a peer speaking a different
version is refused at HELLO time (the compatibility rule: the version byte
must match exactly — there is no in-band negotiation, a mismatch closes
the connection with a :class:`ProtocolError`).  The second byte is the
message type (:class:`MsgType`).

The JSON header carries only **metadata** — request ids, model names,
admission flags, error kinds, array *specs*.  Numerical array data never
rides in JSON (floats would round-trip through decimal); every
:class:`numpy.ndarray` travels as a dtype/shape-tagged raw buffer appended
after the header, so positions, forces, energies and box lengths are
**bitwise identical** on both ends of the socket.  Scalars that feed
numerics (energy) are shipped as 0-d float64 arrays for the same reason.

Message types
-------------

=============  ====  =======================================================
HELLO          c->s  ``{client}`` — open a session
WELCOME        s->c  ``{models: {name: {rcut, n_types}}, limits}`` — accept
SUBMIT         c->s  ``{req, model, block, admit_timeout, nloc, pbc}`` +
                     arrays positions/types/box/masses[/pair_i/pair_j]
RESULT         s->c  ``{req, seq}`` + arrays energy/forces/virial
                     [/atom_energies] (seq = queue admission stamp)
ERROR          s->c  ``{req, kind, message}`` — per-request failure
                     (kind in QUEUE_FULL/QUOTA/CLOSED/UNKNOWN_MODEL/INVALID/
                     EVAL/CRASH/TRANSIENT — the last two are safe to
                     resubmit)
CANCEL         c->s  ``{req}`` — abandon a queued request (deadline blown)
STATS          c->s  ``{}`` — ask for a ServerStats snapshot
STATS_RESULT   s->c  ``{stats: {...}}``
GOODBYE        both  ``{}`` — orderly half-close before disconnecting
PING           c->s  ``{req}`` — heartbeat (refreshes the daemon's
                     idle-timeout clock for this connection)
PONG           s->c  ``{req}`` — heartbeat echo
=============  ====  =======================================================

This module is pure encode/decode — no sockets, no threads — so the framing
is unit-testable without a server (``tests/test_serving_net.py``).
"""

from __future__ import annotations

import struct
from enum import IntEnum
from typing import Optional

import numpy as np

from repro.md.checkpoint import (
    TaggedArrayError,
    pack_arrays,
    pack_tagged,
    unpack_tagged,
)
from repro.md.checkpoint import unpack_arrays as _unpack_arrays

#: The protocol version byte.  Compatibility rule: both peers must send the
#: same value; there is no negotiation (bump it on ANY wire change).
#: v2: PING/PONG heartbeats + CRASH/TRANSIENT error kinds (fault tolerance).
#: v3: SUBMIT lost its ordering fields and RESULT its cache flag, the
#: cache-control message pair is gone, and the INVALID error kind is new.
PROTOCOL_VERSION = 3

#: Frames larger than this are refused before allocation — a corrupt length
#: prefix must not trigger a multi-GB read.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_LEN = struct.Struct("!I")


class MsgType(IntEnum):
    HELLO = 1
    WELCOME = 2
    SUBMIT = 3
    RESULT = 4
    ERROR = 5
    CANCEL = 6
    STATS = 7
    STATS_RESULT = 8
    GOODBYE = 9
    PING = 10
    PONG = 11


#: ``ERROR.kind`` values, mapped back to exceptions client-side
#: (:meth:`repro.serving.net.SocketClient`).
ERR_QUEUE_FULL = "QUEUE_FULL"
ERR_QUOTA = "QUOTA"
ERR_CLOSED = "CLOSED"
ERR_UNKNOWN_MODEL = "UNKNOWN_MODEL"
ERR_INVALID = "INVALID"      # InvalidFrame: refused at admission
ERR_EVAL = "EVAL"
ERR_CANCELLED = "CANCELLED"
ERR_PROTOCOL = "PROTOCOL"
ERR_CRASH = "CRASH"          # WorkerCrashed: safe to resubmit
ERR_TRANSIENT = "TRANSIENT"  # TransientEvalError: safe to resubmit


class ProtocolError(RuntimeError):
    """Malformed frame, version mismatch, or out-of-protocol message."""


# ---------------------------------------------------------------------------
# frame encode / decode
# ---------------------------------------------------------------------------

# After the version and type bytes a payload is the tagged-array container
# checkpoints are written in (repro.md.checkpoint): u32 header length, JSON
# header carrying the array specs, raw array bytes.


def unpack_arrays(specs: list, blob: bytes) -> dict[str, np.ndarray]:
    """Inverse of :func:`pack_arrays` (arrays are writable copies)."""
    try:
        return _unpack_arrays(specs, blob)
    except TaggedArrayError as exc:
        raise ProtocolError(str(exc)) from None


def encode_frame(
    msg_type: MsgType,
    header: dict,
    arrays: Optional[dict[str, np.ndarray]] = None,
) -> bytes:
    """One complete wire frame (length prefix included)."""
    body = pack_tagged(header, arrays or {})
    length = 2 + len(body)  # version and type bytes, then the container
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {length} bytes exceeds MAX_FRAME_BYTES"
        )
    return b"".join(
        (_LEN.pack(length), bytes((PROTOCOL_VERSION, int(msg_type))), body)
    )


def decode_payload(payload: bytes) -> tuple[MsgType, dict, dict]:
    """``(msg_type, header, arrays)`` from one frame's payload bytes."""
    if len(payload) < 6:
        raise ProtocolError(f"truncated frame ({len(payload)} bytes)")
    version, mtype = payload[0], payload[1]
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version {version} != {PROTOCOL_VERSION} "
            f"(both peers must run the same wire version)"
        )
    try:
        mtype = MsgType(mtype)
    except ValueError:
        raise ProtocolError(f"unknown message type {mtype}") from None
    try:
        header, arrays = unpack_tagged(payload, 2)
    except TaggedArrayError as exc:
        raise ProtocolError(str(exc)) from None
    return mtype, header, arrays


# ---------------------------------------------------------------------------
# blocking socket I/O
# ---------------------------------------------------------------------------


def read_exactly(sock, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise ``ConnectionError`` on EOF."""
    chunks: list[bytes] = []
    remaining = n
    while remaining > 0:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError(
                f"peer closed mid-frame ({n - remaining}/{n} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock) -> tuple[MsgType, dict, dict]:
    """Read one frame off a blocking socket; ``(type, header, arrays)``.

    Raises ``ConnectionError`` on EOF (clean close between frames included:
    an EOF on the length prefix raises with 0 bytes read) and
    :class:`ProtocolError` on malformed contents.
    """
    (length,) = _LEN.unpack(read_exactly(sock, 4))
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds MAX_FRAME_BYTES "
            f"(corrupt prefix or hostile peer)"
        )
    return decode_payload(read_exactly(sock, length))


def write_frame(
    sock,
    msg_type: MsgType,
    header: dict,
    arrays: Optional[dict[str, np.ndarray]] = None,
) -> None:
    sock.sendall(encode_frame(msg_type, header, arrays))


# ---------------------------------------------------------------------------
# domain encode / decode (System / PotentialResult)
# ---------------------------------------------------------------------------


def system_arrays(system) -> dict[str, np.ndarray]:
    """The arrays a server needs to evaluate a frame.

    Velocities and molecule ids never cross the wire — the potential reads
    positions/types/box/masses only, and smaller frames coalesce faster.
    """
    return {
        "positions": system.positions,
        "types": system.types,
        "box": system.box.lengths,
        "masses": system.masses,
    }


def build_system(arrays: dict[str, np.ndarray], type_names=()):
    """Rebuild a :class:`~repro.md.system.System` from wire arrays."""
    from repro.md.box import Box
    from repro.md.system import System

    return System(
        box=Box(arrays["box"]),
        positions=arrays["positions"],
        types=arrays["types"],
        masses=arrays["masses"],
        type_names=list(type_names),
    )


def result_arrays(result) -> dict[str, np.ndarray]:
    """Wire arrays for a :class:`~repro.md.potential.PotentialResult`.

    The energy ships as a 0-d float64 array — bitwise, never through JSON.
    """
    out = {
        "energy": np.float64(result.energy),
        "forces": result.forces,
        "virial": result.virial,
    }
    if result.atom_energies is not None:
        out["atom_energies"] = result.atom_energies
    return out


def build_result(arrays: dict[str, np.ndarray]):
    from repro.md.potential import PotentialResult

    return PotentialResult(
        energy=float(arrays["energy"]),
        forces=arrays["forces"],
        virial=arrays["virial"],
        atom_energies=arrays.get("atom_energies"),
    )
