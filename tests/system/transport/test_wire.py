"""Wire protocol: framing, record round-trips, and handshake validation.

The message round-trip coverage is cross-checked against the FLOW001
sent-kind inventory: every message kind any shipped process class sends
must round-trip through ``encode_message``/``decode_message`` here, so
a new protocol message cannot ship without wire coverage.
"""

from __future__ import annotations

import ast
import asyncio
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.lint.engine import iter_python_files, logical_path_for
from repro.lint.flow.model import build_model
from repro.lint.flow.msgflow import class_profile
from repro.system.messages import ALL, Message
from repro.system.transport import wire

SRC = Path(__file__).resolve().parents[3] / "src" / "repro"

#: One representative message per shipped kind (tag prefix before ":").
#: Payload shapes mirror what the algorithms actually put on the wire.
REPRESENTATIVES = {
    "bc": Message(0, 2, "bc:0", np.array([1.5, -2.0, 0.25]), round=0),
    "abc": Message(1, ALL, "abc", ("echo", 0, (0.5, 1.0)), round=1),
    "rva": Message(2, 3, "rva:echo:4", (4, np.array([0.1, 0.2])), round=None),
    "iter": Message(3, 1, "iter", np.array([0.0, 7.0]), round=5),
    "val": Message(0, 1, "val", np.array([2.0]), round=0),
}


def shipped_sent_kinds() -> set[str]:
    """FLOW-resolved message kinds sent by any shipped process class."""
    records = []
    for path in iter_python_files([str(SRC)]):
        source = Path(path).read_text()
        records.append(
            (
                path,
                logical_path_for(path),
                ast.parse(source),
                tuple(source.splitlines()),
            )
        )
    model = build_model(records)
    kinds: set[str] = set()
    for cls in model.process_classes():
        for site in class_profile(model, cls).sends:
            if site.kind is not None:
                kinds.add(site.kind)
    return kinds


def roundtrip(frame: bytes) -> tuple:
    """Strip the length prefix and decode the body."""
    length = int.from_bytes(frame[:4], "big")
    body = frame[4:]
    assert len(body) == length
    return wire.decode_body(body)


class TestMessageRoundTrip:
    def test_every_shipped_kind_has_a_representative(self):
        # The inventory is whatever FLOW001 sees — the same analysis the
        # linter gates on — so this cannot silently go stale.
        kinds = shipped_sent_kinds()
        assert kinds, "flow analysis found no sent kinds — model broken?"
        missing = kinds - set(REPRESENTATIVES)
        assert not missing, f"no wire round-trip coverage for {missing}"

    @pytest.mark.parametrize("kind", sorted(REPRESENTATIVES))
    def test_roundtrip_identity(self, kind):
        msg = REPRESENTATIVES[kind]
        record = roundtrip(wire.encode_message(msg, 17))
        seq, decoded = wire.decode_message(record)
        assert seq == 17
        assert decoded.src == msg.src
        assert decoded.dst == msg.dst
        assert decoded.tag == msg.tag
        assert decoded.round == msg.round
        assert _payload_equal(decoded.payload, msg.payload)

    def test_payload_defensively_copied(self):
        payload = np.array([1.0, 2.0])
        frame = wire.encode_message(Message(0, 1, "bc:0", payload), 0)
        payload[0] = 99.0  # sender mutates after queueing
        _, decoded = wire.decode_message(roundtrip(frame))
        assert decoded.payload[0] == 1.0

    def test_atomic_envelope_detection(self):
        assert wire.is_atomic(Message(0, ALL, "abc", ()))
        assert not wire.is_atomic(Message(0, 1, "bc:0", ()))


def _payload_equal(a, b) -> bool:
    if isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and np.array_equal(a, b)
    if isinstance(b, tuple):
        return (
            isinstance(a, tuple)
            and len(a) == len(b)
            and all(_payload_equal(x, y) for x, y in zip(a, b))
        )
    return a == b


class TestVersionedMessages:
    STAMP = (42, 17, (3, 17, 0, 5))

    def test_stamp_roundtrip(self):
        msg = Message(1, 2, "rva:echo:0", np.array([0.5]), round=3)
        record = roundtrip(wire.encode_message(msg, 9, stamp=self.STAMP))
        assert len(record) == 8
        assert wire.message_stamp(record) == self.STAMP
        seq, decoded = wire.decode_message(record)
        assert seq == 9
        assert decoded.tag == msg.tag

    def test_stamp_coordinates_normalised(self):
        # Stamps may arrive with numpy ints or a list clock; the reader
        # always sees plain ints and a tuple.
        stamp = (np.int64(1), np.int64(4), [np.int64(2), np.int64(4)])
        record = roundtrip(wire.encode_message(Message(0, 1, "val", ()), 0, stamp=stamp))
        assert wire.message_stamp(record) == (1, 4, (2, 4))

    def test_unstamped_v2_frame_has_no_stamp(self):
        record = roundtrip(wire.encode_message(Message(0, 1, "val", ()), 0))
        assert len(record) == 8
        assert wire.message_stamp(record) is None

    def test_message_record_copies_payload_at_enqueue(self):
        payload = np.array([1.0, 2.0])
        rec = wire.message_record(Message(0, 1, "bc:0", payload), 0)
        payload[0] = 99.0  # sender mutates after queueing, before encode
        _, decoded = wire.decode_message(roundtrip(wire.encode_record(rec)))
        assert decoded.payload[0] == 1.0

    def test_v1_hello_rejected(self):
        # Version 2 is the only version: a HELLO advertising version 1
        # fails the handshake like any other version.
        record = roundtrip(wire.encode_record((wire.HELLO, 3, 1, "run-x")))
        with pytest.raises(wire.WireError, match="version mismatch"):
            wire.check_hello(record, instance="run-x", expected_id=3)


class TestControlRecords:
    def test_hello_roundtrip(self):
        record = roundtrip(wire.encode_hello(3, "run-x"))
        assert record == (wire.HELLO, 3, wire.WIRE_VERSION, "run-x")
        assert wire.check_hello(record, instance="run-x", expected_id=3) == 3

    def test_hello_version_mismatch(self):
        record = roundtrip(wire.encode_record((wire.HELLO, 3, 99, "run-x")))
        with pytest.raises(wire.WireError, match="version mismatch"):
            wire.check_hello(record, instance="run-x")

    def test_hello_instance_mismatch(self):
        record = roundtrip(wire.encode_hello(3, "run-x"))
        with pytest.raises(wire.WireError, match="instance mismatch"):
            wire.check_hello(record, instance="run-y")

    def test_hello_identity_mismatch(self):
        record = roundtrip(wire.encode_hello(3, "run-x"))
        with pytest.raises(wire.WireError, match="expected 4"):
            wire.check_hello(record, instance="run-x", expected_id=4)

    def test_round_roundtrip(self):
        assert roundtrip(wire.encode_round(5, 2, True)) == (
            wire.ROUND, 5, 2, True,
        )

    def test_decided_roundtrip(self):
        assert roundtrip(wire.encode_decided(9, 1)) == (wire.DECIDED, 9, 1)


class TestMalformedFrames:
    def test_oversized_body_refused_at_encode(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 64)
        with pytest.raises(wire.WireError, match="exceeds"):
            wire.encode_record((wire.MSG, 0, 0, 1, "bc:0", bytes(1024), 0))

    def test_undecodable_body(self):
        with pytest.raises(wire.WireError, match="undecodable"):
            wire.decode_body(b"\x00not a pickle")

    def test_non_tuple_body(self):
        with pytest.raises(wire.WireError, match="not a record tuple"):
            wire.decode_body(pickle.dumps(["msg", 1]))

    def test_unknown_record_type(self):
        with pytest.raises(wire.WireError, match="unknown record type"):
            wire.decode_body(pickle.dumps(("gossip", 1, 2)))

    @pytest.mark.parametrize(
        "record",
        [
            (wire.HELLO, 1, 1),
            (wire.MSG, 0, 0, 1, "bc:0", None),
            (wire.ROUND, 0, 1),
            (wire.DECIDED, 0),
        ],
    )
    def test_wrong_arity(self, record):
        with pytest.raises(wire.WireError, match="malformed"):
            wire.decode_body(pickle.dumps(record))

    @pytest.mark.parametrize(
        "record",
        [
            (wire.MSG, "x", 0, 1, "bc:0", (), 0, None),
            (wire.MSG, 0, [1], 1, "bc:0", (), 0, None),
            (wire.MSG, 0, 0, 1, "bc:0", (), 0, (1, 2)),
            (wire.MSG, 0, 0, 1, "bc:0", (), 0, (1, 2, [3])),
            (wire.MSG, 0, 0, 1, 7, (), 0, None),
            (wire.MSG, 0, 0, 1, "bc:0", (), "r", None),
            (wire.MSG, 0, 0, 1, "bc:0", (), 0),
            (wire.HELLO, "zz", 2, "i"),
            (wire.HELLO, 0, 2, None),
            (wire.ROUND, 0, "r", True),
            (wire.ROUND, 0, 1, 1),
            (wire.DECIDED, 0, None),
            ([wire.MSG], 0),
        ],
        ids=[
            "msg-seq-str", "msg-src-list", "msg-stamp-2-fields",
            "msg-stamp-clock-list", "msg-tag-int", "msg-round-str",
            "msg-v1-7-fields", "hello-id-str", "hello-instance-none",
            "round-round-str", "round-decided-int", "decided-id-none",
            "unhashable-type-tag",
        ],
    )
    def test_mistyped_fields(self, record):
        # Every record kind's fields are type-checked at the decoder, so
        # check_hello, decode_message, message_stamp and the receiver
        # never see a field they cannot use.
        with pytest.raises(wire.WireError):
            wire.decode_body(pickle.dumps(record))


class TestReadFrames:
    def _collect(self, data: bytes) -> list[tuple]:
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            return [record async for record in wire.read_frames(reader)]

        return asyncio.run(go())

    def test_stream_of_frames(self):
        data = (
            wire.encode_hello(0, "i")
            + wire.encode_round(0, 1, False)
            + wire.encode_decided(1, 0)
        )
        records = self._collect(data)
        assert [r[0] for r in records] == [wire.HELLO, wire.ROUND, wire.DECIDED]

    def test_truncated_trailing_frame_is_clean_eof(self):
        # A frame cut off mid-body counts as connection loss: the sender
        # retransmits it after reconnecting, so the reader just stops.
        whole = wire.encode_round(0, 1, False)
        records = self._collect(whole + wire.encode_decided(1, 0)[:5])
        assert [r[0] for r in records] == [wire.ROUND]

    def test_oversized_announced_frame_raises(self):
        head = (wire.MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(wire.WireError, match="exceeds"):
            self._collect(head + b"x")
