"""Length-prefixed wire protocol for live transports.

Frame layout (everything big-endian)::

    +----------------+----------------------------------------+
    | length: u32    | body: pickled record (length bytes)    |
    +----------------+----------------------------------------+

The body is one *record* — a plain tuple whose first element is the
record type:

``HELLO``
    ``(HELLO, node_id, version, instance_id)`` — exchanged once per
    connection, both directions, before anything else.  A version other
    than :data:`WIRE_VERSION` — or an instance mismatch — aborts the
    connection (:class:`WireError`).
``MSG``
    ``(MSG, link_seq, src, dst, tag, payload, round, stamp)`` where
    ``stamp`` is ``(origin_eid, lamport, clock)`` — the sender-local
    event id, Lamport timestamp, and vector clock of the send event —
    or ``None`` when causal tracing is off.  ``link_seq`` is the
    per-link monotonic sequence number used for receiver-side
    deduplication across reconnects.
``ROUND``
    ``(ROUND, link_seq, round, decided)`` — synchronous round barrier
    marker: the sender finished emitting its round-``round`` traffic on
    this link (per-link FIFO makes the marker a happens-after fence).
``DECIDED``
    ``(DECIDED, link_seq, node_id)`` — asynchronous termination marker.

:func:`decode_body` checks every field's type, so a malformed record is
a :class:`WireError` at the decoder and never an exception further in.

Payloads go through :func:`repro.system.messages.defensive_copy` before
encoding so a sender mutating a queued object can never corrupt an
in-flight frame, and rely on the XPT002 lint contract (payloads are
plain picklable data — no lambdas, processes, contexts, or RNGs).
Pickle protocol 4 matches :func:`~repro.system.messages.canonical_bytes`.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, Optional

from ..messages import ALL, Message, defensive_copy

__all__ = [
    "DECIDED",
    "HELLO",
    "MAX_FRAME_BYTES",
    "MSG",
    "ROUND",
    "WIRE_VERSION",
    "WireError",
    "check_hello",
    "decode_body",
    "decode_message",
    "encode_decided",
    "encode_hello",
    "encode_message",
    "encode_record",
    "encode_round",
    "is_atomic",
    "message_record",
    "message_stamp",
    "read_frames",
    "read_hello",
]

#: The protocol version; advertised in every HELLO and required of peers.
WIRE_VERSION = 2

#: Upper bound on one frame body — a corrupt length prefix must not make
#: the receiver allocate gigabytes.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LEN = struct.Struct("!I")

HELLO = "hello"
MSG = "msg"
ROUND = "round"
DECIDED = "decided"


class WireError(ValueError):
    """Malformed frame, oversized frame, or handshake mismatch."""


# --------------------------------------------------------------- encoding


def encode_record(record: tuple) -> bytes:
    """Frame one record: length prefix + pickled body."""
    body = pickle.dumps(record, protocol=4)
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(
            f"frame body of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    return _LEN.pack(len(body)) + body


def encode_hello(node_id: int, instance: str) -> bytes:
    return encode_record((HELLO, int(node_id), WIRE_VERSION, str(instance)))


def message_record(
    msg: Message, link_seq: int, stamp: Optional[tuple] = None
) -> tuple:
    """The MSG record for one protocol message.

    The payload is defensively copied *here*, at enqueue time, so a
    sender mutating a queued object can never corrupt the frame a link
    encodes later.  Stamp coordinates are normalised to plain ints.
    """
    if stamp is not None:
        origin_eid, lamport, clock = stamp
        stamp = (int(origin_eid), int(lamport), tuple(int(c) for c in clock))
    return (
        MSG,
        int(link_seq),
        int(msg.src),
        int(msg.dst),
        str(msg.tag),
        defensive_copy(msg.payload),
        msg.round,
        stamp,
    )


def encode_message(
    msg: Message, link_seq: int, stamp: Optional[tuple] = None
) -> bytes:
    """Encode one protocol message; the payload is defensively copied."""
    return encode_record(message_record(msg, link_seq, stamp))


def encode_round(link_seq: int, round: int, decided: bool) -> bytes:
    return encode_record((ROUND, int(link_seq), int(round), bool(decided)))


def encode_decided(link_seq: int, node_id: int) -> bytes:
    return encode_record((DECIDED, int(link_seq), int(node_id)))


def encode_for_version(record: tuple) -> bytes:
    """The same as :func:`encode_record`.

    Nothing in the package calls this; it stays only while the
    per-layer tracer in ``perfbench/tracing.py`` wraps it by name.
    """
    return encode_record(record)


# --------------------------------------------------------------- decoding


_NONE = type(None)

#: Field types of each record type, in order after the type tag.
_FIELDS: dict[str, tuple[Any, ...]] = {
    HELLO: (int, int, str),  # node_id, version, instance
    # link_seq, src, dst, tag, payload, round, stamp
    MSG: (int, int, int, str, object, (int, _NONE), (tuple, _NONE)),
    ROUND: (int, int, bool),  # link_seq, round, decided
    DECIDED: (int, int),  # link_seq, node_id
}


def _is_stamp(stamp: Optional[tuple]) -> bool:
    """``None`` or ``(origin_eid, lamport, clock)`` of ints."""
    return stamp is None or (
        len(stamp) == 3
        and isinstance(stamp[0], int)
        and isinstance(stamp[1], int)
        and isinstance(stamp[2], tuple)
        and all(isinstance(c, int) for c in stamp[2])
    )


def decode_body(body: bytes) -> tuple:
    """Unpickle one frame body and check every field of the record.

    Total over its input: anything but a well-typed record raises
    :class:`WireError`.
    """
    try:
        record = pickle.loads(body)
    except Exception as exc:
        raise WireError(f"undecodable frame body: {exc}") from exc
    if not isinstance(record, tuple) or not record:
        raise WireError(f"frame body is not a record tuple: {record!r}")
    kind = record[0]
    if not isinstance(kind, str) or kind not in _FIELDS:
        raise WireError(f"unknown record type {kind!r}")
    types = _FIELDS[kind]
    if (
        len(record) != len(types) + 1
        or not all(isinstance(v, t) for v, t in zip(record[1:], types))
        or (kind == MSG and not _is_stamp(record[7]))
    ):
        raise WireError(f"malformed {kind.upper()} record: {record!r}")
    return record


def decode_message(record: tuple) -> tuple[int, Message]:
    """``(link_seq, Message)`` from a decoded MSG record."""
    _, link_seq, src, dst, tag, payload, round_, _ = record
    return link_seq, Message(src, dst, tag, payload, round=round_)


def message_stamp(record: tuple) -> Optional[tuple]:
    """The ``(origin_eid, lamport, clock)`` causal stamp of a decoded MSG
    record — None for unstamped frames."""
    stamp: Optional[tuple] = record[7]
    return stamp


def check_hello(
    record: tuple,
    *,
    instance: str,
    expected_id: Optional[int] = None,
) -> int:
    """Validate a decoded HELLO; returns the peer's node id.

    Raises :class:`WireError` on a version other than
    :data:`WIRE_VERSION`, an instance mismatch, or (when ``expected_id``
    is given) an unexpected peer identity — the connection must be
    dropped in every case.
    """
    _, node_id, version, peer_instance = record
    if version != WIRE_VERSION:
        raise WireError(
            f"wire version mismatch: peer speaks {version}, "
            f"we speak {WIRE_VERSION}"
        )
    if peer_instance != instance:
        raise WireError(
            f"instance mismatch: peer is running {peer_instance!r}, "
            f"we are running {instance!r}"
        )
    if expected_id is not None and node_id != int(expected_id):
        raise WireError(
            f"peer identified as node {node_id}, expected {expected_id}"
        )
    return int(node_id)


def is_atomic(msg: Message) -> bool:
    """True for channel-level broadcast envelopes (``dst == ALL``)."""
    return msg.dst == ALL


async def read_hello(
    reader: Any, *, instance: str, expected_id: Optional[int] = None
) -> int:
    """Read the peer's HELLO frame from ``reader`` and validate it with
    :func:`check_hello`; returns the peer's node id."""
    (length,) = _LEN.unpack(await reader.readexactly(_LEN.size))
    if length > MAX_FRAME_BYTES:
        raise WireError(f"oversized HELLO frame ({length} bytes)")
    record = decode_body(await reader.readexactly(length))
    if record[0] != HELLO:
        raise WireError(f"expected HELLO, got {record[0]!r}")
    return check_hello(record, instance=instance, expected_id=expected_id)


async def read_frames(reader: Any) -> Any:
    """Async generator of decoded records from an ``asyncio.StreamReader``.

    Terminates cleanly on EOF or connection loss (a truncated trailing
    frame counts as connection loss — the sender will retransmit it
    after reconnecting); raises :class:`WireError` on oversized frames.
    """
    while True:
        try:
            head = await reader.readexactly(_LEN.size)
        except (EOFError, ConnectionError):
            return
        (length,) = _LEN.unpack(head)
        if length > MAX_FRAME_BYTES:
            raise WireError(
                f"announced frame of {length} bytes exceeds the "
                f"{MAX_FRAME_BYTES}-byte cap"
            )
        try:
            body = await reader.readexactly(length)
        except (EOFError, ConnectionError):
            return  # body truncated by connection loss: sender retransmits
        yield decode_body(body)
