"""Host-speed reference: a fixed loop timed next to every timed run.

The benchmark runs on a few cores of a shared machine.  There, one
process repeating one deterministic consensus run sees its wall time
(and its CPU time) move between about 250 and 400 ms within tens of
seconds, as the load of the machine's other tenants changes.  Medians
over a whole invocation do not remove that: on async-rva the middle half
of ``run_ms.p50`` over five invocations of 30 s spread by 0.40 of its
median, and over ten invocations of 25 s by 0.25 to 0.28.  Scaled as
below, the same five seeds spread by 0.05.

So the timed loop measures this reference before the first run and
after each run, and scales run ``i``'s wall time by
``NOMINAL_S / mean(reference i, reference i + 1)``: the run's time on a
host as fast as the one ``NOMINAL_S`` was measured on.  A slower moment
slows the run and its two references alike, and the ratio keeps what the
program itself costs.  The reference is pure Python and imports nothing
from ``repro``, so no change to the program moves it.
The set-up probes, which run in child processes, are scaled the same
way by :func:`sample` taken before and after each probe.

The loop does what the simulator substrate does most: builds small
message objects, appends them to per-link queues, walks the links in
sorted order and hashes tuple payloads.
"""

from __future__ import annotations

import gc
import statistics
import time

__all__ = ["NOMINAL_S", "reference", "sample", "scales"]

#: About the median time of :func:`reference` between timed runs on a
#: 2-core 2.1 GHz VM (Python 3.11).  It sets the unit of the scaled
#: times, so that they read close to the times as measured; it does not
#: change their spread.
NOMINAL_S = 4.2e-3


class _Msg:
    __slots__ = ("src", "dst", "kind", "payload")

    def __init__(self, src: int, dst: int, kind: str, payload: tuple) -> None:
        self.src, self.dst, self.kind, self.payload = src, dst, kind, payload


def _loop() -> int:
    queues: dict[tuple[int, int], list[_Msg]] = {}
    acc = 0
    for rnd in range(60):
        for src in range(8):
            for dst in range(8):
                msg = _Msg(src, dst, ("echo", "ready")[rnd & 1],
                           (rnd, src, (0.5 * rnd, 1.5 * dst)))
                queues.setdefault((src, dst), []).append(msg)
        for link in sorted(queues):
            pending = queues[link]
            if pending:
                acc += hash(pending.pop(0).payload) & 7
    return acc


def reference() -> float:
    """Wall seconds of one pass of the reference loop.

    The collector is off during the pass, so that its time does not
    depend on how many objects the program keeps alive; the loop's own
    objects are freed by reference counting when it returns.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        _loop()
        return time.perf_counter() - start
    finally:
        gc.enable()


def sample() -> float:
    """Median of five reference passes, around a slower event."""
    return statistics.median(reference() for _ in range(5))


def scales(refs: list[float]) -> list[float]:
    """Scale of each run bracketed by ``refs[i]`` and ``refs[i + 1]``."""
    return [2 * NOMINAL_S / (a + b) for a, b in zip(refs, refs[1:])]
