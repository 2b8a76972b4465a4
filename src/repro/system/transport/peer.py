"""One outgoing peer link: dial, handshake, retransmit, backpressure.

Each live node keeps one :class:`PeerLink` per remote peer.  The link
owns a bounded send queue and a writer task:

* **Handshake** — on every (re)connect the dialer sends its HELLO
  (node id, wire version, instance id) and waits for the listener's
  HELLO back; the connection then runs at the *negotiated* wire version
  (newest both sides speak — :func:`repro.system.transport.wire.negotiate`),
  so a version-1 peer still interoperates, it just never sees causal
  stamps.  An unsupported version or wrong instance permanently fails
  the link (such a peer will never become right).
* **Reconnect** — connection refusal or loss triggers capped exponential
  backoff (``delay = min(base * 2**attempt, cap)``); the attempt counter
  resets after a successful handshake.  The frame being written when the
  connection died is retransmitted first — frames are only dropped from
  the queue after a successful ``drain()``.  The receiver deduplicates
  by the per-link sequence number, so retransmission is exactly-once at
  the protocol layer.
* **Backpressure** — ``send()`` awaits when the queue holds
  ``queue_limit`` frames, propagating slowness to the producing
  protocol loop instead of buffering without bound.

The queue holds *records* (plain tuples), not encoded bytes: encoding
happens at write time, once the connection's negotiated version is
known.  Payload safety is unchanged — record builders defensively copy
payloads at enqueue time.

Timings use the event loop's monotonic clock only (never the wall
clock), and the backoff schedule is a fixed deterministic ramp — links
carry no randomness of their own.

Beyond the six link counters, each link records transport telemetry the
node folds into its registry: bytes written (``bytes_sent``), the
deepest the send queue ever got (``queue_depth_peak``), and per-frame
queue-wait times (``queue_wait``, a fixed-bucket histogram of seconds
from enqueue to first write attempt — exported as the
``net.live.queue_wait.seconds`` histogram).
"""

from __future__ import annotations

import asyncio
import struct
from typing import Any, Awaitable, Callable, Optional

from ...obs.metrics import Histogram
from . import wire

__all__ = ["LinkStats", "PeerLink"]

#: (reader, writer) pair as returned by asyncio.open_connection.
Dialer = Callable[[], Awaitable[tuple[Any, Any]]]


class LinkStats:
    """Counters and the queue-wait histogram one link maintains.

    The fields named in :data:`COUNTER_FIELDS` are plain monotonic
    counters — :meth:`as_dict` exposes exactly those, and the node sums
    them across links into ``net.live.*`` counters.  ``queue_depth_peak``
    and ``queue_wait`` are *not* counters (a peak maxes, histograms
    merge) and are folded explicitly.
    """

    COUNTER_FIELDS = (
        "frames_sent",
        "retransmits",
        "reconnects",
        "handshakes",
        "backpressure_waits",
        "chaos_closes",
        "bytes_sent",
    )

    __slots__ = COUNTER_FIELDS + ("queue_depth_peak", "queue_wait")

    def __init__(self) -> None:
        self.frames_sent = 0
        self.retransmits = 0
        self.reconnects = 0
        self.handshakes = 0
        self.backpressure_waits = 0
        self.chaos_closes = 0
        self.bytes_sent = 0
        self.queue_depth_peak = 0
        self.queue_wait = Histogram()

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.COUNTER_FIELDS}


class PeerLink:
    """Reliable, ordered, deduplicatable frame stream to one peer."""

    def __init__(
        self,
        self_id: int,
        peer_id: int,
        dial: Dialer,
        *,
        instance: str,
        queue_limit: int = 256,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        max_dial_failures: int = 120,
        drain_grace: float = 5.0,
        chaos_close_after: Optional[int] = None,
    ) -> None:
        self.self_id = int(self_id)
        self.peer_id = int(peer_id)
        self.dial = dial
        self.instance = str(instance)
        self.queue_limit = int(queue_limit)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.max_dial_failures = int(max_dial_failures)
        #: How long a *disconnected* writer keeps redialling after
        #: close() while frames are still undelivered.  Without the
        #: grace, a node exiting during a peer's reconnect window could
        #: abandon its queued DECIDED announcement and leave that peer
        #: waiting forever.
        self.drain_grace = float(drain_grace)
        #: After this many successfully written frames, the link aborts
        #: its own socket once — the fault-injection hook the reconnect
        #: tests (and the disconnect-survival acceptance run) flip on.
        self.chaos_close_after = chaos_close_after
        self.stats = LinkStats()
        #: The version this connection runs at, set by each handshake
        #: (stays at our newest until a peer negotiates it down).
        self.wire_version = wire.WIRE_VERSION
        self._queue: asyncio.Queue[Optional[tuple[tuple, float]]] = (
            asyncio.Queue(maxsize=self.queue_limit)
        )
        self._next_seq = 0
        self._writer_task: Optional[asyncio.Task[None]] = None
        self._failure: Optional[BaseException] = None
        self._closed = False
        self._closing = asyncio.Event()
        self._close_deadline: Optional[float] = None

    # ----------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Spawn the writer task (idempotent)."""
        if self._writer_task is None:
            self._writer_task = asyncio.get_running_loop().create_task(
                self._writer_loop(), name=f"peerlink-{self.self_id}->{self.peer_id}"
            )

    async def close(self) -> None:
        """Flush nothing further; stop the writer after the queue drains.

        A *connected* writer drains the queue before exiting.  A writer
        stuck in the dial/backoff path with nothing left to deliver
        returns immediately: the peer it is redialling has typically
        exited for good (the cluster is past its decision), so waiting
        out the full reconnect ramp would stall teardown for minutes.
        If frames *are* still undelivered — e.g. a DECIDED announcement
        queued while the connection was down — the writer keeps
        redialling for ``drain_grace`` seconds before giving up, so the
        last frames of a run are not silently dropped.
        """
        if self._closed:
            return
        self._closed = True
        self._closing.set()
        await self._queue.put(None)
        if self._writer_task is not None:
            try:
                await self._writer_task
            except asyncio.CancelledError:
                pass

    def abort(self) -> None:
        """Tear the link down immediately (run teardown path)."""
        self._closed = True
        if self._writer_task is not None:
            self._writer_task.cancel()

    @property
    def failed(self) -> Optional[BaseException]:
        """The permanent failure that killed this link, if any."""
        return self._failure

    # ------------------------------------------------------------- sending
    def next_seq(self) -> int:
        """Allocate the next per-link sequence number."""
        seq = self._next_seq
        self._next_seq += 1
        return seq

    async def send_message(self, msg: Any, stamp: Optional[tuple] = None) -> None:
        """Queue one protocol message, optionally with its causal stamp
        (dropped automatically on connections negotiated down to v1)."""
        await self._put(wire.message_record(msg, self.next_seq(), stamp))

    async def send_round(self, round: int, decided: bool) -> None:
        await self._put((wire.ROUND, self.next_seq(), int(round), bool(decided)))

    async def send_decided(self) -> None:
        await self._put((wire.DECIDED, self.next_seq(), self.self_id))

    async def _put(self, record: tuple) -> None:
        if self._failure is not None:
            raise wire.WireError(
                f"link to node {self.peer_id} failed permanently: "
                f"{self._failure}"
            ) from self._failure
        if self._queue.full():
            self.stats.backpressure_waits += 1
        await self._queue.put(
            (record, asyncio.get_running_loop().time())
        )
        depth = self._queue.qsize()
        if depth > self.stats.queue_depth_peak:
            self.stats.queue_depth_peak = depth

    # -------------------------------------------------------- writer task
    async def _writer_loop(self) -> None:
        loop = asyncio.get_running_loop()
        attempt = 0
        pending: Optional[tuple] = None
        frames_written = 0
        chaos_armed = self.chaos_close_after is not None
        while True:
            try:
                reader, writer = await self.dial()
            except (ConnectionError, OSError):
                attempt += 1
                if attempt > self.max_dial_failures:
                    self._failure = ConnectionError(
                        f"node {self.peer_id} unreachable after "
                        f"{attempt - 1} attempts"
                    )
                    return
                if await self._backoff_or_closing(attempt, pending):
                    return
                continue
            try:
                await self._handshake(reader, writer)
            except (wire.WireError, ConnectionError, OSError, EOFError) as exc:
                writer.close()
                if isinstance(exc, wire.WireError):
                    self._failure = exc  # wrong version/instance: permanent
                    return
                attempt += 1
                if attempt > self.max_dial_failures:
                    # A peer that accepts but never completes the
                    # handshake counts against the same budget as one
                    # that refuses outright.
                    self._failure = ConnectionError(
                        f"node {self.peer_id} never completed a handshake "
                        f"in {attempt - 1} attempts"
                    )
                    return
                if await self._backoff_or_closing(attempt, pending):
                    return
                continue
            if self.stats.handshakes:
                self.stats.reconnects += 1
            attempt = 0
            self.stats.handshakes += 1
            try:
                while True:
                    if pending is None:
                        item = await self._queue.get()
                        if item is None:
                            writer.close()
                            try:
                                await writer.wait_closed()
                            except (ConnectionError, OSError):
                                pass
                            return
                        pending, enqueued_at = item
                        self.stats.queue_wait.observe(
                            max(0.0, loop.time() - enqueued_at)
                        )
                    else:
                        # First iteration after a reconnect: the frame in
                        # flight when the connection died goes out again.
                        self.stats.retransmits += 1
                    if chaos_armed and frames_written >= int(
                        self.chaos_close_after or 0
                    ):
                        # Fault injection: drop the connection (graceful
                        # FIN, so drained frames still arrive) and force
                        # the reconnect path; `pending` rides over it.
                        chaos_armed = False
                        self.stats.chaos_closes += 1
                        writer.close()
                        raise ConnectionResetError("chaos: forced close")
                    frame = wire.encode_for_version(pending, self.wire_version)
                    writer.write(frame)
                    await writer.drain()
                    self.stats.frames_sent += 1
                    self.stats.bytes_sent += len(frame)
                    frames_written += 1
                    pending = None
            except (ConnectionError, OSError, EOFError):
                # Connection died mid-stream: whatever was being written
                # stays in `pending` and goes out first after reconnect.
                writer.close()
                attempt += 1
                if await self._backoff_or_closing(attempt, pending):
                    return

    async def _backoff_or_closing(
        self, attempt: int, pending: Optional[tuple]
    ) -> bool:
        """Back off before the next dial; True if the writer should stop.

        close() interrupts the ramp, but a closing writer that still
        holds undelivered frames (``pending`` or anything queued beyond
        the close() sentinel) keeps redialling until ``drain_grace``
        runs out — dropping the tail of a run (a DECIDED announcement,
        the last round marker) would strand peers that are still
        waiting on it.
        """
        delay = self._backoff(attempt)
        if not self._closing.is_set():
            try:
                await asyncio.wait_for(self._closing.wait(), timeout=delay)
                # close() arrived mid-backoff; fall through to the
                # drain-grace decision below.
            except asyncio.TimeoutError:
                return False
        if pending is None and self._queue.qsize() <= 1:
            # Nothing left but the close() sentinel: stop immediately.
            return True
        loop = asyncio.get_running_loop()
        if self._close_deadline is None:
            self._close_deadline = loop.time() + self.drain_grace
        remaining = self._close_deadline - loop.time()
        if remaining <= 0:
            return True
        await asyncio.sleep(min(delay, remaining))
        return False

    async def _handshake(self, reader: Any, writer: Any) -> None:
        writer.write(wire.encode_hello(self.self_id, self.instance))
        await writer.drain()
        head = await reader.readexactly(4)
        (length,) = struct.unpack("!I", head)
        if length > wire.MAX_FRAME_BYTES:
            raise wire.WireError(f"oversized HELLO frame ({length} bytes)")
        record = wire.decode_body(await reader.readexactly(length))
        if record[0] != wire.HELLO:
            raise wire.WireError(f"expected HELLO, got {record[0]!r}")
        wire.check_hello(
            record, instance=self.instance, expected_id=self.peer_id
        )
        self.wire_version = wire.negotiate(wire.hello_version(record))

    def _backoff(self, attempt: int) -> float:
        return min(self.backoff_base * (2.0 ** (attempt - 1)), self.backoff_cap)
