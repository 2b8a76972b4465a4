"""Process-local metrics: counters, gauges, and latency histograms.

A :class:`MetricsRegistry` is a flat namespace of named metrics.  Each
scheduler run owns one registry (surfaced as ``RunResult.metrics``), and
installs it as the *ambient* registry for the duration of the run so that
deep layers — broadcast state machines, the geometry kernels — can record
without any plumbing::

    from repro.obs import metrics
    metrics.inc("bcast.bracha.echo")          # ambient registry
    metrics.observe("geometry.delta_star.seconds", dt)

Outside any run the ambient registry is a process-global one, so
standalone kernel calls (CLI, notebooks) still accumulate somewhere
inspectable.

Naming convention (see ``docs/observability.md``): dotted lowercase paths,
``<layer>.<component>.<what>`` — e.g. ``net.messages_sent``,
``sched.sync.rounds``, ``geometry.delta_star.seconds``.  Histogram names
end in ``.seconds``: every histogram shares one bucket ladder from 1µs
to ~67s.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Iterator, Mapping, Optional

__all__ = [
    "BUCKET_BOUNDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "active_registry",
    "current_registry",
    "global_registry",
    "use_registry",
    "inc",
    "observe",
    "set_gauge",
]


class Counter:
    """Monotonically increasing count (int or float)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def as_dict(self) -> dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-written value, tracking the extremes seen."""

    __slots__ = ("value", "max", "min", "updates")

    def __init__(self) -> None:
        self.value: float = 0.0
        self.max: float = -math.inf
        self.min: float = math.inf
        self.updates: int = 0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max:
            self.max = value
        if value < self.min:
            self.min = value
        self.updates += 1

    def as_dict(self) -> dict[str, Any]:
        if not self.updates:
            return {"type": "gauge", "value": None, "max": None, "min": None,
                    "updates": 0}
        return {"type": "gauge", "value": self.value, "max": self.max,
                "min": self.min, "updates": self.updates}


#: Geometric bucket ladder: 1µs · 2^i for i in 0..26 (≈1µs .. ≈67s).
#: Samples above the last bound land in the overflow bucket.
BUCKET_BOUNDS: tuple[float, ...] = tuple(1e-6 * 2.0**i for i in range(27))


class Histogram:
    """Latency histogram over the fixed geometric :data:`BUCKET_BOUNDS`.

    O(1) memory however many samples it sees: exact ``count``, ``total``,
    ``min`` and ``max`` plus one count per bucket, so quantiles are
    bucket-resolution estimates.  Two histograms merge exactly by adding
    bucket counts (:meth:`merge`).  The per-bucket counts are
    *non-cumulative*; renderers that need Prometheus-style cumulative
    ``le`` counts accumulate at render time.
    """

    __slots__ = ("counts", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.counts = [0] * (len(BUCKET_BOUNDS) + 1)  # +1 = overflow
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.counts[bisect_left(BUCKET_BOUNDS, value)] += 1

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s samples into this histogram (exact)."""
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "Histogram":
        """Rebuild a histogram from its :meth:`as_dict` document."""
        h = cls()
        if not record.get("count"):
            return h
        for bound, c in record["buckets"]:
            i = (
                len(BUCKET_BOUNDS) if bound == "inf"
                else bisect_left(BUCKET_BOUNDS, float(bound))
            )
            h.counts[i] += int(c)
        h.count = int(record["count"])
        h.total = float(record["total"])
        h.min = float(record["min"])
        h.max = float(record["max"])
        return h

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution estimate of the ``q``-quantile (0 <= q <= 1).

        Returns the upper bound of the bucket holding the q-th sample,
        clamped to the exact observed ``[min, max]`` (so overflow samples
        never report an infinite latency).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            raise ValueError("quantile of an empty histogram")
        rank = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank and c:
                if i == len(BUCKET_BOUNDS):
                    return self.max
                return max(self.min, min(BUCKET_BOUNDS[i], self.max))
        return self.max

    def bucket_pairs(self) -> list[tuple[float, int]]:
        """Non-empty ``(upper_bound_seconds, count)`` pairs; the overflow
        bucket reports ``inf`` as its bound."""
        return [
            (BUCKET_BOUNDS[i] if i < len(BUCKET_BOUNDS) else math.inf, c)
            for i, c in enumerate(self.counts)
            if c
        ]

    def as_dict(self) -> dict[str, Any]:
        if not self.count:
            return {"count": 0}
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            # JSON has no inf: encode the overflow bound as the string "inf"
            "buckets": [
                ["inf" if b == math.inf else b, c]
                for b, c in self.bucket_pairs()
            ],
        }


class MetricsRegistry:
    """Flat namespace of named counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------ accessors
    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter()
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge()
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram()
        return h

    # ------------------------------------------------------------ recording
    def inc(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # ----------------------------------------------------------- inspection
    def counter_value(self, name: str, default: int = 0) -> int:
        c = self._counters.get(name)
        return c.value if c is not None else default

    def names(self) -> list[str]:
        return sorted({*self._counters, *self._gauges, *self._histograms})

    def snapshot(self) -> dict[str, Any]:
        """Plain-data view of every metric (JSON-serialisable)."""
        out: dict[str, Any] = {}
        for name, c in self._counters.items():
            out[name] = c.as_dict()
        for name, g in self._gauges.items():
            out[name] = g.as_dict()
        for name, h in self._histograms.items():
            out[name] = {"type": "histogram", **h.as_dict()}
        return dict(sorted(out.items()))

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
        )


# ---------------------------------------------------------------------------
# ambient registry (single-threaded simulator: a simple stack suffices)
# ---------------------------------------------------------------------------

_GLOBAL = MetricsRegistry()
_STACK: list[MetricsRegistry] = [_GLOBAL]


def global_registry() -> MetricsRegistry:
    """The process-wide fallback registry."""
    return _GLOBAL


def current_registry() -> MetricsRegistry:
    """The innermost active registry (the global one outside any run)."""
    return _STACK[-1]


def active_registry() -> Optional[MetricsRegistry]:
    """The innermost *explicitly installed* registry, or None.

    Unlike :func:`current_registry` this never falls back to the global
    registry; schedulers use it so that a run started inside a
    ``use_registry`` scope (the ``repro trace`` CLI) records into that
    scope's registry, while standalone runs get a private one.
    """
    return _STACK[-1] if len(_STACK) > 1 else None


@contextmanager
def use_registry(registry: Optional[MetricsRegistry]) -> Iterator[MetricsRegistry]:
    """Install ``registry`` as the ambient registry for the ``with`` body."""
    reg = registry if registry is not None else MetricsRegistry()
    _STACK.append(reg)
    try:
        yield reg
    finally:
        _STACK.pop()


def inc(name: str, amount: int = 1) -> None:
    """Increment a counter on the ambient registry."""
    _STACK[-1].counter(name).inc(amount)


def observe(name: str, value: float) -> None:
    """Record a histogram sample on the ambient registry."""
    _STACK[-1].histogram(name).observe(value)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge on the ambient registry."""
    _STACK[-1].gauge(name).set(value)
