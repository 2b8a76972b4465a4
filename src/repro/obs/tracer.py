"""The timing plane: spans (timed, nested) and events (point-in-time).

One call opens every timed region — ``trace_span(name, **tags)`` — and
closing a span does two things:

* folds its wall and CPU time into a per-**path** aggregate, where the
  path is the slash-joined chain of open span names
  (``core.run/sched.sync.run/sched.sync.round/geometry.delta_star``).
  :meth:`Tracer.snapshot` returns those aggregates as a
  ``repro.obs.perf/1`` document, a flame view with O(1) memory per path
  (each path keeps one fixed-bucket :class:`~repro.obs.metrics.Histogram`);
* when the tracer is built with ``records=True`` (the default), also
  keeps one :class:`SpanRecord` per span — the per-instance trace that
  ``repro trace``, DST replay and ``repro launch`` write to JSONL.
  ``repro bench`` and ``metrics serve --demo`` build ``Tracer(records=
  False)``, so a long run costs the same memory as a short one.

The design goal is *zero cost when off*: the default tracer is a shared
:data:`NULL_TRACER` whose :func:`trace_span` returns one preallocated
no-op context manager, so instrumented hot paths do no allocation and no
clock reads unless a real :class:`Tracer` has been installed.  Tracing
never changes a run: sweep decision digests are bit-identical tracer on
vs off (pinned by ``tests/obs/test_perf_identity.py``).

With a real tracer installed::

    from repro.obs import Tracer, use_tracer, trace_span

    tracer = Tracer()
    with use_tracer(tracer):
        with trace_span("sched.sync.round", round=3):
            ...
    tracer.spans        # -> [SpanRecord(...), ...]
    tracer.snapshot()   # -> {"schema": "repro.obs.perf/1", "phases": {...}}

Spans carry a monotonic-clock ``(t0, t1)`` interval, a ``span_id``, the
``parent_id`` of the enclosing span (None at the root), and free-form
``tags``.  Events are instantaneous records with a log level; the tracer's
``level`` filters them (``debug`` < ``info`` < ``warning``), which is what
the CLI's ``--quiet``/``--verbose`` flags control.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from .metrics import Histogram

__all__ = [
    "SpanRecord",
    "EventRecord",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "NULL_SPAN",
    "LEVELS",
    "PERF_SCHEMA",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "trace_span",
    "trace_event",
    "rollup_phases",
]

#: Schema of :meth:`Tracer.snapshot` documents.
PERF_SCHEMA = "repro.obs.perf/1"

#: Log levels in increasing severity; a tracer records events at or above
#: its own level.
LEVELS = {"debug": 10, "info": 20, "warning": 30}


@dataclass
class SpanRecord:
    """One completed (or still-open) timed span."""

    span_id: int
    parent_id: Optional[int]
    name: str
    t0: float
    t1: Optional[float] = None
    tags: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length in seconds (0.0 while still open)."""
        return (self.t1 - self.t0) if self.t1 is not None else 0.0


@dataclass(frozen=True)
class EventRecord:
    """One instantaneous event."""

    t: float
    name: str
    level: str
    fields: dict[str, Any]


class _PathAgg:
    """Aggregate of every span closed on one path: wall histogram + CPU."""

    __slots__ = ("name", "parent", "hist", "cpu_seconds")

    def __init__(self, name: str, parent: Optional[str]) -> None:
        self.name = name
        self.parent = parent
        self.hist = Histogram()
        self.cpu_seconds = 0.0


class _ActiveSpan:
    """Context manager binding one span to the tracer's open-span stack."""

    __slots__ = ("_tracer", "name", "path", "record", "_t0", "_c0")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        path: str,
        record: Optional[SpanRecord],
    ):
        self._tracer = tracer
        self.name = name
        self.path = path
        self.record = record

    def tag(self, **tags: Any) -> "_ActiveSpan":
        """Attach tags to the span after opening (e.g. computed results)."""
        if self.record is not None:
            self.record.tags.update(tags)
        return self

    def __enter__(self) -> "_ActiveSpan":
        self._tracer._stack.append(self)
        self._c0 = time.process_time()
        self._t0 = time.perf_counter()
        if self.record is not None:
            self.record.t0 = self._t0
        return self

    def __exit__(self, *exc: Any) -> bool:
        t1 = time.perf_counter()
        cpu = time.process_time() - self._c0
        tracer = self._tracer
        tracer._stack.pop()
        if self.record is not None:
            self.record.t1 = t1
        agg = tracer._aggs.get(self.path)
        if agg is None:
            parent = self.path[: -len(self.name) - 1] or None
            agg = tracer._aggs[self.path] = _PathAgg(self.name, parent)
        agg.hist.observe(t1 - self._t0)
        agg.cpu_seconds += cpu
        return False


class _NullSpan:
    """Shared no-op span: entering, exiting and tagging all do nothing."""

    __slots__ = ()

    def tag(self, **tags: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


#: Shared no-op span — safe to use directly in hot loops that branch on
#: ``get_tracer().enabled`` themselves to avoid building a kwargs dict.
NULL_SPAN = _NullSpan()
_NULL_SPAN = NULL_SPAN


class Tracer:
    """Aggregates span timings per path; keeps span and event records.

    Parameters
    ----------
    level:
        Minimum event level recorded (``"debug"``, ``"info"``,
        ``"warning"``).
    echo:
        When true, events at or above the level are also printed to
        ``stderr`` as they happen (the CLI's ``--verbose`` behaviour).
    records:
        When true, every span and event is kept in :attr:`spans` /
        :attr:`events`.  When false only the per-path aggregates of
        :meth:`snapshot` grow, and they are bounded by the number of
        distinct paths.
    """

    enabled = True

    def __init__(
        self, level: str = "info", echo: bool = False, records: bool = True
    ):
        if level not in LEVELS:
            raise ValueError(f"unknown level {level!r}; choices {sorted(LEVELS)}")
        self.level = level
        self.echo = bool(echo)
        self.records = bool(records)
        self.spans: list[SpanRecord] = []
        self.events: list[EventRecord] = []
        self._stack: list[_ActiveSpan] = []
        self._aggs: dict[str, _PathAgg] = {}
        self._next_id = 0

    def span(self, name: str, **tags: Any) -> _ActiveSpan:
        """Open a span under the innermost open one; use as a context
        manager."""
        stack = self._stack
        parent = stack[-1] if stack else None
        path = name if parent is None else parent.path + "/" + name
        record = None
        if self.records:
            record = SpanRecord(
                span_id=self._next_id,
                parent_id=parent.record.span_id if parent else None,
                name=name,
                t0=0.0,  # stamped on __enter__
                tags=dict(tags) if tags else {},
            )
            self._next_id += 1
            self.spans.append(record)
        return _ActiveSpan(self, name, path, record)

    def event(self, name: str, level: str = "info", **fields: Any) -> None:
        """Record an instantaneous event (dropped when below the level)."""
        if LEVELS.get(level, 20) < LEVELS[self.level]:
            return
        if self.records:
            self.events.append(EventRecord(
                t=time.perf_counter(), name=name, level=level, fields=fields
            ))
        if self.echo:  # pragma: no cover - console side effect
            import sys

            extras = " ".join(f"{k}={v}" for k, v in fields.items())
            print(f"[{level}] {name} {extras}".rstrip(), file=sys.stderr)

    def snapshot(self) -> dict[str, Any]:
        """Per-path aggregates of every closed span (JSON-serialisable)."""
        phases: dict[str, Any] = {}
        for path, agg in sorted(self._aggs.items()):
            entry = agg.hist.as_dict()
            entry["name"] = agg.name
            entry["parent"] = agg.parent
            entry["wall_seconds"] = agg.hist.total
            entry["cpu_seconds"] = agg.cpu_seconds
            phases[path] = entry
        return {"schema": PERF_SCHEMA, "phases": phases}

    def clear(self) -> None:
        self.spans.clear()
        self.events.clear()
        self._stack.clear()
        self._aggs.clear()
        self._next_id = 0


class NullTracer:
    """The disabled tracer: records nothing, allocates nothing."""

    enabled = False
    level = "warning"
    spans: tuple = ()
    events: tuple = ()

    def span(self, name: str, **tags: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, level: str = "info", **fields: Any) -> None:
        return None

    def snapshot(self) -> dict[str, Any]:
        return {"schema": PERF_SCHEMA, "phases": {}}


NULL_TRACER = NullTracer()

_tracer: Any = NULL_TRACER


def get_tracer() -> Any:
    """The currently installed tracer (NULL_TRACER by default)."""
    return _tracer


def set_tracer(tracer: Any) -> Any:
    """Install ``tracer`` globally; returns the previous one."""
    global _tracer
    prev = _tracer
    _tracer = tracer if tracer is not None else NULL_TRACER
    return prev


@contextmanager
def use_tracer(tracer: Any) -> Iterator[Any]:
    """Install ``tracer`` for the ``with`` body, then restore."""
    prev = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(prev)


def trace_span(name: str, **tags: Any) -> "_ActiveSpan | _NullSpan":
    """Open a span on the installed tracer (shared no-op when disabled)."""
    t = _tracer
    if not t.enabled:
        return _NULL_SPAN
    return t.span(name, **tags)


def trace_event(name: str, level: str = "info", **fields: Any) -> None:
    """Record an event on the installed tracer (no-op when disabled)."""
    t = _tracer
    if t.enabled:
        t.event(name, level=level, **fields)


def rollup_phases(snapshot: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """Aggregate a :meth:`Tracer.snapshot` per leaf span *name*.

    The snapshot keys aggregates by their full path, so
    ``geometry.delta_star`` under the sync scheduler and under
    ``averaging.select`` are separate flame nodes.  This folds those
    paths into one row per name —
    ``{"count", "wall_seconds", "cpu_seconds", "self_seconds", "paths"}``
    — where ``self_seconds`` subtracts the wall time of each node's
    direct children (time attributed here and nowhere deeper).
    """
    phases: dict[str, Any] = snapshot.get("phases", {})
    child_wall: dict[str, float] = {}
    for entry in phases.values():
        parent = entry.get("parent")
        if parent is not None:
            child_wall[parent] = (
                child_wall.get(parent, 0.0) + float(entry["wall_seconds"])
            )
    out: dict[str, dict[str, Any]] = {}
    for path, entry in phases.items():
        name = entry["name"]
        row = out.get(name)
        if row is None:
            row = out[name] = {
                "count": 0,
                "wall_seconds": 0.0,
                "cpu_seconds": 0.0,
                "self_seconds": 0.0,
                "paths": 0,
            }
        row["count"] += int(entry["count"])
        row["wall_seconds"] += float(entry["wall_seconds"])
        row["cpu_seconds"] += float(entry["cpu_seconds"])
        row["self_seconds"] += max(
            0.0, float(entry["wall_seconds"]) - child_wall.get(path, 0.0)
        )
        row["paths"] += 1
    return dict(sorted(out.items(), key=lambda kv: -kv[1]["wall_seconds"]))
