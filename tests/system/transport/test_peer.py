"""PeerLink: handshake, reconnect/backoff, retransmission, backpressure.

Each test stands up a miniature listener that performs the real
listener-side handshake (read HELLO, validate, reply HELLO) and then
collects decoded records — the same sequence ``LiveNode._serve_conn``
runs — so the link under test speaks to a faithful counterpart.
"""

from __future__ import annotations

import asyncio
import struct
import sys

import pytest

from repro.system.messages import Message
from repro.system.transport import wire
from repro.system.transport.peer import LinkStats, PeerLink

INSTANCE = "test-run"


class MiniListener:
    """UDS listener doing the HELLO exchange, then recording frames."""

    def __init__(
        self,
        path: str,
        node_id: int,
        instance: str = INSTANCE,
        validate: bool = True,
        version: int = wire.WIRE_VERSION,
    ):
        self.path = path
        self.node_id = node_id
        self.instance = instance
        #: Wire version this listener advertises in its HELLO reply — any
        #: value but WIRE_VERSION must fail the dialing link.
        self.version = version
        #: False replies with our HELLO without checking theirs — lets a
        #: test hand the dialer a mismatching identity to choke on.
        self.validate = validate
        self.records: list[tuple] = []
        self.connections = 0
        self._server = None
        self._tasks: list[asyncio.Task] = []

    async def start(self) -> None:
        self._server = await asyncio.start_unix_server(
            self._serve, path=self.path
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._tasks:  # handlers wake on EOF; drain before asserting
            await asyncio.gather(*self._tasks, return_exceptions=True)

    async def _serve(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._tasks.append(task)
        self.connections += 1
        try:
            head = await reader.readexactly(4)
            (length,) = struct.unpack("!I", head)
            hello = wire.decode_body(await reader.readexactly(length))
            if self.validate:
                wire.check_hello(hello, instance=self.instance)
            writer.write(wire.encode_record(
                (wire.HELLO, self.node_id, self.version, self.instance)
            ))
            await writer.drain()
            async for record in wire.read_frames(reader):
                self.records.append(record)
        except (wire.WireError, ConnectionError, OSError, EOFError):
            pass
        finally:
            writer.close()


def make_link(path: str, **kwargs) -> PeerLink:
    def dial():
        return asyncio.open_unix_connection(path)

    kwargs.setdefault("instance", INSTANCE)
    return PeerLink(0, 1, dial, **kwargs)


class TestBackoffSchedule:
    def test_capped_exponential_ramp(self, tmp_path):
        link = make_link(str(tmp_path / "x.sock"))
        delays = [link._backoff(a) for a in range(1, 9)]
        assert delays == [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0]

    def test_custom_base_and_cap(self, tmp_path):
        link = make_link(
            str(tmp_path / "x.sock"), backoff_base=0.01, backoff_cap=0.04
        )
        assert [link._backoff(a) for a in range(1, 5)] == [
            0.01, 0.02, 0.04, 0.04,
        ]


class TestHandshakeAndDelivery:
    def test_frames_flow_after_handshake(self, tmp_path):
        path = str(tmp_path / "n1.sock")

        async def go():
            listener = MiniListener(path, node_id=1)
            await listener.start()
            link = make_link(path)
            link.start()
            await link.send_message(Message(0, 1, "bc:0", (1.0, 2.0)))
            await link.send_decided()
            await link.close()
            await listener.stop()
            return listener, link

        listener, link = asyncio.run(go())
        assert [r[0] for r in listener.records] == [wire.MSG, wire.DECIDED]
        assert link.stats.handshakes == 1
        assert link.stats.frames_sent == 2
        assert link.failed is None

    def test_instance_mismatch_is_permanent(self, tmp_path):
        path = str(tmp_path / "n1.sock")

        async def go():
            listener = MiniListener(
                path, node_id=1, instance="other-run", validate=False
            )
            await listener.start()
            link = make_link(path)
            link.start()
            await link._writer_task  # dies on the mismatched HELLO reply
            assert isinstance(link.failed, wire.WireError)
            with pytest.raises(wire.WireError, match="failed permanently"):
                await link.send_message(Message(0, 1, "bc:0", ()))
            await listener.stop()

        asyncio.run(go())

    def test_unreachable_peer_fails_after_max_dials(self, tmp_path):
        path = str(tmp_path / "never.sock")  # nothing ever listens here

        async def go():
            link = make_link(
                path, backoff_base=0.001, backoff_cap=0.002,
                max_dial_failures=3,
            )
            link.start()
            await link._writer_task
            assert isinstance(link.failed, ConnectionError)
            assert "unreachable" in str(link.failed)
            with pytest.raises(wire.WireError, match="failed permanently"):
                await link.send_decided()

        asyncio.run(go())


    def test_silent_listener_exhausts_handshake_budget(self, tmp_path):
        # A listener that accepts but drops the connection before its
        # HELLO (e.g. it rejects ours) burns the same attempt budget as a
        # refused dial — the link must not redial forever.
        path = str(tmp_path / "n1.sock")

        async def go():
            listener = MiniListener(path, node_id=1, instance="other-run")
            await listener.start()
            link = make_link(
                path, backoff_base=0.001, backoff_cap=0.002,
                max_dial_failures=3,
            )
            link.start()
            await link._writer_task
            await listener.stop()
            return link

        link = asyncio.run(go())
        assert isinstance(link.failed, ConnectionError)
        assert "never completed a handshake" in str(link.failed)


class TestReconnect:
    def test_chaos_close_reconnects_and_retransmits(self, tmp_path):
        path = str(tmp_path / "n1.sock")

        async def go():
            listener = MiniListener(path, node_id=1)
            await listener.start()
            link = make_link(
                path, backoff_base=0.001, chaos_close_after=1
            )
            link.start()
            for i in range(3):
                await link.send_message(Message(0, 1, "bc:0", (float(i),)))
            # Wait for delivery before closing so the assertions below
            # don't depend on the close()-time drain grace.
            deadline = asyncio.get_running_loop().time() + 5.0
            while len(listener.records) < 3:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.01)
            await link.close()
            await listener.stop()
            return listener, link

        listener, link = asyncio.run(go())
        # The forced close is graceful (drained frames arrived); the frame
        # in flight rides over the reconnect, so the listener sees every
        # sequence number exactly once.
        seqs = [r[1] for r in listener.records if r[0] == wire.MSG]
        assert seqs == [0, 1, 2]
        assert link.stats.chaos_closes == 1
        assert link.stats.reconnects == 1
        assert link.stats.retransmits == 1
        assert listener.connections == 2

    def test_close_interrupts_backoff(self, tmp_path):
        # Regression: a writer redialling a peer that exited for good used
        # to serve out its full backoff ramp before noticing close() —
        # stalling cluster teardown for minutes.
        path = str(tmp_path / "gone.sock")

        async def go():
            link = make_link(
                path, backoff_base=30.0, backoff_cap=30.0
            )
            link.start()
            await asyncio.sleep(0.05)  # let the first dial fail
            start = asyncio.get_running_loop().time()
            await link.close()
            return asyncio.get_running_loop().time() - start

        elapsed = asyncio.run(go())
        assert elapsed < 1.0, f"close() waited {elapsed:.1f}s out the backoff"

    def test_close_drains_undelivered_frames_within_grace(self, tmp_path):
        # Regression: a node exiting while a peer link was mid-reconnect
        # used to abandon queued frames — if the abandoned frame was the
        # DECIDED announcement, the peer waited on it forever.  close()
        # now keeps redialling for `drain_grace` when frames remain.
        path = str(tmp_path / "n1.sock")

        async def go():
            link = make_link(path, backoff_base=0.01, backoff_cap=0.02)
            link.start()
            await link.send_decided()
            await asyncio.sleep(0.05)  # dial fails: nothing listening yet
            listener = MiniListener(path, node_id=1)
            await listener.start()
            await link.close()  # must deliver the queued DECIDED first
            await listener.stop()
            return listener

        listener = asyncio.run(go())
        kinds = [r[0] for r in listener.records]
        assert kinds == [wire.DECIDED]

    def test_close_gives_up_when_grace_expires(self, tmp_path):
        path = str(tmp_path / "gone.sock")

        async def go():
            link = make_link(
                path, backoff_base=0.01, backoff_cap=0.02, drain_grace=0.2
            )
            link.start()
            await link.send_decided()
            await asyncio.sleep(0.05)  # dial fails: nothing listening
            start = asyncio.get_running_loop().time()
            await link.close()
            return asyncio.get_running_loop().time() - start

        elapsed = asyncio.run(go())
        # Keeps trying for about the grace window, then stops — it must
        # neither bail instantly nor serve out the full reconnect ramp.
        assert 0.1 < elapsed < 2.0, f"close() took {elapsed:.2f}s"


class TestBackpressure:
    def test_full_queue_counts_and_waits(self, tmp_path):
        path = str(tmp_path / "n1.sock")

        async def go():
            listener = MiniListener(path, node_id=1)
            await listener.start()
            link = make_link(path, queue_limit=1)
            await link.send_message(Message(0, 1, "bc:0", (0.0,)))  # fills
            blocked = asyncio.ensure_future(
                link.send_message(Message(0, 1, "bc:0", (1.0,)))
            )
            await asyncio.sleep(0)  # the producer is now parked on put()
            assert not blocked.done()
            assert link.stats.backpressure_waits == 1
            link.start()  # the writer drains the queue, unblocking it
            await blocked
            await link.close()
            await listener.stop()
            return listener

        listener = asyncio.run(go())
        assert len(listener.records) == 2


class TestVersionNegotiation:
    STAMP = (7, 12, (5, 12))

    def _exchange(self, path: str, listener_version: int):
        async def go():
            listener = MiniListener(path, node_id=1, version=listener_version)
            await listener.start()
            link = make_link(path)
            link.start()
            await link.send_message(
                Message(0, 1, "bc:0", (1.0,)), stamp=self.STAMP
            )
            await link.close()
            await listener.stop()
            return listener, link

        return asyncio.run(go())

    def test_v2_peer_receives_stamp(self, tmp_path):
        listener, link = self._exchange(str(tmp_path / "n1.sock"), 2)
        assert link.failed is None
        (record,) = listener.records
        assert wire.message_stamp(record) == self.STAMP

    def test_v1_peer_fails_the_link_permanently(self, tmp_path):
        # Version 2 is the only version: a listener answering with a
        # version-1 HELLO never receives a frame.
        listener, link = self._exchange(str(tmp_path / "n1.sock"), 1)
        assert isinstance(link.failed, wire.WireError)
        assert "version mismatch" in str(link.failed)
        assert listener.records == []


class TestLinkTelemetry:
    def test_bytes_and_queue_wait_recorded(self, tmp_path):
        path = str(tmp_path / "n1.sock")

        async def go():
            listener = MiniListener(path, node_id=1)
            await listener.start()
            link = make_link(path)
            # Enqueue before starting the writer so frames measurably wait.
            await link.send_message(Message(0, 1, "bc:0", (0.0,)))
            await link.send_message(Message(0, 1, "bc:0", (1.0,)))
            link.start()
            await link.close()
            await listener.stop()
            return link

        link = asyncio.run(go())
        stats = link.stats
        assert stats.frames_sent == 2
        assert stats.bytes_sent > 0
        assert stats.queue_depth_peak == 2
        assert stats.queue_wait.count == 2
        assert stats.queue_wait.min >= 0.0
        # as_dict exposes exactly the counter fields — the gauge and the
        # histogram fold into the registry elsewhere, under their own types.
        assert set(stats.as_dict()) == set(stats.COUNTER_FIELDS)
        assert stats.as_dict()["bytes_sent"] == stats.bytes_sent

    def test_retransmit_samples_queue_wait_once(self, tmp_path):
        # A frame that rides over a reconnect is retransmitted, but its
        # time-in-queue was already measured: one sample per frame.
        path = str(tmp_path / "n1.sock")

        async def go():
            listener = MiniListener(path, node_id=1)
            await listener.start()
            link = make_link(path, backoff_base=0.001, chaos_close_after=1)
            link.start()
            for i in range(3):
                await link.send_message(Message(0, 1, "bc:0", (float(i),)))
            deadline = asyncio.get_running_loop().time() + 5.0
            while len(listener.records) < 3:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.01)
            await link.close()
            await listener.stop()
            return link

        link = asyncio.run(go())
        assert link.stats.retransmits == 1
        assert link.stats.queue_wait.count == 3

    def test_queue_wait_state_is_bounded(self):
        # a long-running node observes one wait per frame: the histogram
        # costs the same after 10,000 frames as after 10
        def state_size(stats: LinkStats) -> int:
            h = stats.queue_wait
            return sys.getsizeof(h.counts) + sum(
                sys.getsizeof(getattr(h, slot)) for slot in h.__slots__
            )

        few, many = LinkStats(), LinkStats()
        for i in range(10):
            few.queue_wait.observe(i * 1e-4)
        for i in range(10_000):
            many.queue_wait.observe(i * 1e-4)
        assert many.queue_wait.count == 10_000
        assert state_size(many) == state_size(few)


class TestSequenceNumbers:
    def test_monotonic_per_link(self, tmp_path):
        link = make_link(str(tmp_path / "x.sock"))
        assert [link.next_seq() for _ in range(4)] == [0, 1, 2, 3]

    def test_receiver_drops_duplicate_seq(self, tmp_path):
        # Receiver-side dedup lives in LiveNode._on_record; drive it
        # directly with a replayed record, as a retransmitting link would.
        from repro.system.transport.live import LiveNode, NodeAddress

        node = LiveNode(
            0, 2, 0, process=None,
            address=NodeAddress(0, "uds", path=str(tmp_path / "n0.sock")),
            instance=INSTANCE,
        )

        async def go():
            record = wire.decode_body(
                wire.encode_message(Message(1, 0, "bc:1", (1.0,)), 0)[4:]
            )
            await node._on_record(1, record)
            await node._on_record(1, record)  # exact retransmit
            return node.dupes_dropped

        assert asyncio.run(go()) == 1
        assert len(node._pending_msgs[1]) == 1


class TestMalformedFrames:
    @pytest.mark.parametrize(
        "record",
        [
            (wire.MSG, "x", 1, 0, "bc:1", (), 0, None),
            (wire.ROUND, 0, "r", True),
            (wire.HELLO, "zz", 2, INSTANCE),
        ],
        ids=["msg-seq-str", "round-round-str", "second-hello"],
    )
    def test_receiver_drops_the_link_without_a_task_exception(
        self, tmp_path, record
    ):
        # A malformed frame after the handshake must end the connection
        # quietly: _serve_conn catches WireError, so no serve task dies
        # with an unhandled exception.
        from repro.system.transport.live import LiveNode, NodeAddress

        path = str(tmp_path / "n0.sock")
        node = LiveNode(
            0, 2, 0, process=None, address=NodeAddress(0, "uds", path=path),
            instance=INSTANCE,
        )

        async def go():
            errors: list[dict] = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, ctx: errors.append(ctx)
            )
            await node.start_server()
            reader, writer = await asyncio.open_unix_connection(path)
            writer.write(wire.encode_hello(1, INSTANCE))
            head = await reader.readexactly(4)
            (length,) = struct.unpack("!I", head)
            hello = wire.decode_body(await reader.readexactly(length))
            writer.write(wire.encode_record(record))
            await writer.drain()
            eof = await asyncio.wait_for(reader.read(), timeout=5.0)
            writer.close()
            tasks = list(node._serve_tasks)
            await node.shutdown()
            return hello, eof, tasks, errors

        hello, eof, tasks, errors = asyncio.run(go())
        assert hello[0] == wire.HELLO
        assert eof == b""  # the node closed the connection
        assert node.wire_frames_received == 0
        assert tasks and all(t.exception() is None for t in tasks)
        assert errors == []
