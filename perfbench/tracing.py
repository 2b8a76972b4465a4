"""Outside-in layer tracer for the benchmark.

The tracer wraps the public functions of each layer of ``repro`` from
here, the benchmark's own code: no file under ``src/`` knows it exists.
A layer is named after the module that implements it (``geometry``,
``system.network``, ...).  Wrapping replaces every reference that a
``repro`` module holds to the original object (module globals imported
by name included), and class methods on the class itself; everything is
restored on exit.

Each call of a wrapped function is a span.  Spans nest on one stack, so
each span's parent is the span below it, and a layer's *self time* is
its spans' durations minus the durations of their child spans.  Spans
are folded into per-layer totals as they close rather than kept as a
list: one async-rva run opens some 70,000 of them, and keeping them
would add allocation cost to the overhead the benchmark reports.

Only synchronous functions are wrapped.  The live backend's coroutines
suspend at ``await`` and would interleave on the stack; their time lands
in the self time of ``system.transport.live``, the span that encloses
the whole event loop, except for the time the loop's selector blocks,
which is its own layer (``system.transport.live.idle``).
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

__all__ = ["COUNTERS", "LAYERS", "Tracer", "layer_metrics"]


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``attr`` is ``name`` or ``Class.method``."""

    layer: str
    module: str
    attr: str
    counter: Optional[str] = None
    generator: bool = False
    #: Which modules' references to a module-level function are
    #: replaced (prefix of the module name).
    scope: str = "repro."


def _targets(layer: str, module: str, *attrs: str, **kw: Any) -> list[Target]:
    return [Target(layer, module, attr, **kw) for attr in attrs]


_GEOMETRY_LP_MODULES = (
    "repro.geometry.distance",
    "repro.geometry.intersections",
    "repro.geometry.minimax",
    "repro.geometry.polytope",
)

#: Every wrapped callable, grouped by layer.  Counters named here are
#: bumped on each call of that target; every layer also gets
#: ``<layer>.calls``, the number of entries into it from outside it.
TARGETS: list[Target] = [
    *_targets("exec", "repro.exec.engine", "run_trial"),
    *_targets("core.runner", "repro.core.runner", "run"),
    *_targets("core.averaging", "repro.core.averaging",
              "VerifiedAveragingProcess.on_start",
              "VerifiedAveragingProcess.on_message"),
    *_targets("core.broadcast_all", "repro.core.broadcast_all",
              "BroadcastAllProcess.on_round"),
    *_targets("core.problems", "repro.core.problems", "ProblemSpec.check"),
    *_targets("geometry", "repro.geometry.minimax", "delta_star"),
    *_targets("geometry", "repro.geometry.intersections", "gamma_point",
              "gamma_delta_p_point", "intersection_point"),
    *_targets("geometry", "repro.geometry.distance", "distance_to_hull"),
    *_targets("geometry", "repro.geometry.tverberg", "tverberg_partition"),
    *_targets("geometry", "repro.geometry.hull", "affine_basis"),
    *[Target("geometry.lp", module, "linprog", counter="geometry.lp_solves",
             scope=module)
      for module in _GEOMETRY_LP_MODULES],
    *_targets("system.broadcast", "repro.system.broadcast.interface",
              "make_broadcast"),
    *_targets("system.broadcast", "repro.system.broadcast.bracha",
              "BrachaState.start"),
    Target("system.broadcast", "repro.system.broadcast.bracha",
           "BrachaState.on_message", counter="system.broadcast.handled"),
    *_targets("system.broadcast", "repro.system.broadcast.om",
              "EIGState.messages_for_round"),
    Target("system.broadcast", "repro.system.broadcast.om",
           "EIGState.receive", counter="system.broadcast.handled"),
    Target("system.broadcast", "repro.system.broadcast.om",
           "EIGState.decide", counter="system.broadcast.deliveries"),
    *_targets("system.broadcast", "repro.system.broadcast.dolev_strong",
              "DolevStrongState.messages_for_round"),
    Target("system.broadcast", "repro.system.broadcast.dolev_strong",
           "DolevStrongState.receive", counter="system.broadcast.handled"),
    Target("system.broadcast", "repro.system.broadcast.dolev_strong",
           "DolevStrongState.decide", counter="system.broadcast.deliveries"),
    Target("system.messages", "repro.system.messages", "canonical_bytes",
           counter="system.messages.canon_calls"),
    Target("system.messages", "repro.system.messages", "defensive_copy",
           counter="system.messages.copy_calls"),
    Target("system.messages", "repro.system.messages", "estimate_bytes",
           counter="system.messages.estimate_calls"),
    *_targets("system.network", "repro.system.network", "Network.submit",
              "Network.pop", "Network.peek", "Network.pending_links",
              "Network.pending_count", "NetworkStats.record_send",
              "NetworkStats.record_delivery", "NetworkStats.as_dict"),
    Target("system.network", "repro.system.network", "Network.drain_all",
           generator=True),
    *_targets("system.scheduler", "repro.system.transport.sim",
              "SimTransport.run_sync", "SimTransport.run_async"),
    *_targets("system.scheduler", "repro.system.scheduler",
              "RandomPolicy.choose", "FifoPolicy.choose",
              "DelayPolicy.choose"),
    *_targets("system.adversary", "repro.system.adversary",
              "Adversary.transform_outbox"),
    *_targets("system.transport.live", "repro.system.transport.live",
              "LiveTransport.run_sync", "LiveTransport.run_async"),
    *_targets("system.transport.live.idle", "selectors",
              "DefaultSelector.select"),
    Target("system.transport.wire", "repro.system.transport.wire",
           "encode_record", counter="system.transport.wire.frames"),
    Target("system.transport.wire", "repro.system.transport.wire",
           "decode_body", counter="system.transport.wire.frames"),
    *_targets("system.transport.wire", "repro.system.transport.wire",
              "encode_hello", "encode_message", "encode_round",
              "encode_decided", "encode_for_version", "message_record",
              "decode_message", "message_stamp"),
    *_targets("obs.metrics", "repro.obs.metrics", "inc", "observe",
              "set_gauge", "MetricsRegistry.inc", "MetricsRegistry.observe",
              "MetricsRegistry.set_gauge", "Counter.inc", "Gauge.set",
              "Histogram.observe"),
]

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(t.layer for t in TARGETS))
COUNTERS: tuple[str, ...] = tuple(sorted(
    {t.counter for t in TARGETS if t.counter}
    | {"geometry.lp_iterations", "system.broadcast.deliveries",
       "system.scheduler.steps"}
))


class Tracer:
    """Context manager: wraps every :data:`TARGETS` entry while active.

    :attr:`self_s` and :attr:`inclusive_s` hold seconds per layer
    (inclusive time counts only a layer's outermost spans, so a layer
    calling itself is not counted twice), :attr:`calls` the entries into
    each layer from outside it, and :attr:`counts` the :data:`COUNTERS`.
    """

    def __init__(self) -> None:
        # Per layer: [self seconds, inclusive seconds, calls, depth].
        # Plain lists keep the wrapper, whose cost the benchmark reports
        # as tracing overhead, to a few bytecodes per span.
        self._layers = {layer: [0.0, 0.0, 0, 0] for layer in LAYERS}
        self._counters = {name: [0] for name in COUNTERS}
        #: Child seconds accumulated by each open span; the entry below
        #: a span's own is its parent's.
        self._stack: list[float] = []
        self._undo: list[Callable[[], None]] = []

    @property
    def self_s(self) -> dict[str, float]:
        return {layer: s[0] for layer, s in self._layers.items()}

    @property
    def inclusive_s(self) -> dict[str, float]:
        return {layer: s[1] for layer, s in self._layers.items()}

    @property
    def calls(self) -> dict[str, int]:
        return {layer: s[2] for layer, s in self._layers.items()}

    @property
    def counts(self) -> dict[str, int]:
        return {name: c[0] for name, c in self._counters.items()}

    # ----------------------------------------------------------- spans
    def _wrap(self, fn: Callable[..., Any], target: Target) -> Callable[..., Any]:
        state = self._layers[target.layer]
        counter = self._counters[target.counter] if target.counter else None
        stack = self._stack
        perf = time.perf_counter

        if target.generator:
            def wrapped_gen(*args: Any, **kwargs: Any) -> Any:
                gen = fn(*args, **kwargs)
                while True:
                    if not state[3]:
                        state[2] += 1
                    state[3] += 1
                    stack.append(0.0)
                    t0 = perf()
                    try:
                        item, done = next(gen), False
                    except StopIteration:
                        done = True
                    dt = perf() - t0
                    state[3] -= 1
                    state[0] += dt - stack.pop()
                    if not state[3]:
                        state[1] += dt
                    if stack:
                        stack[-1] += dt
                    if done:
                        return
                    yield item
            return wrapped_gen

        active = [False]

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            # A function recursing into itself (estimate_bytes) is one
            # span and one count, not one per level.
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            if not state[3]:
                state[2] += 1
            state[3] += 1
            if counter is not None:
                counter[0] += 1
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                state[3] -= 1
                state[0] += dt - stack.pop()
                if not state[3]:
                    state[1] += dt
                if stack:
                    stack[-1] += dt
                active[0] = False
        return wrapped

    # --------------------------------------------------------- patching
    def _count_bracha(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        deliveries = self._counters["system.broadcast.deliveries"]

        def on_message(state: Any, *args: Any, **kwargs: Any) -> Any:
            before = state.delivered
            out = fn(state, *args, **kwargs)
            if state.delivered and not before:
                deliveries[0] += 1
            return out
        return on_message

    def _count_steps(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        steps = self._counters["system.scheduler.steps"]

        def run(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            # Async runs: delivery steps; sync runs: rounds.
            steps[0] += int(result.rounds)
            return result
        return run

    def _count_lp_iterations(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        iterations = self._counters["geometry.lp_iterations"]

        def linprog(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            iterations[0] += int(getattr(result, "nit", 0))
            return result
        return linprog

    def _shim(self, target: Target, fn: Callable[..., Any]) -> Callable[..., Any]:
        if target.attr == "linprog":
            return self._count_lp_iterations(fn)
        if target.attr == "BrachaState.on_message":
            return self._count_bracha(fn)
        if target.attr.startswith("SimTransport.run_"):
            return self._count_steps(fn)
        return fn

    def _patch(self, target: Target) -> None:
        module = importlib.import_module(target.module)
        if "." in target.attr:
            cls_name, meth = target.attr.split(".")
            cls = getattr(module, cls_name)
            original = getattr(cls, meth)
            own = meth in cls.__dict__
            saved = cls.__dict__.get(meth)
            setattr(cls, meth, self._wrap(self._shim(target, original), target))

            def undo() -> None:
                if own:
                    setattr(cls, meth, saved)
                else:
                    delattr(cls, meth)
            self._undo.append(undo)
            return
        original = getattr(module, target.attr)
        wrapper = self._wrap(self._shim(target, original), target)
        for name, mod in list(sys.modules.items()):
            if mod is None or not name.startswith(target.scope):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append(
                        lambda m=mod, k=key: setattr(m, k, original)
                    )

    def __enter__(self) -> "Tracer":
        try:
            for target in TARGETS:
                self._patch(target)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc: Any) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._undo:
            self._undo.pop()()


#: Layers reported as ``<layer>.self_ms``; the other two layers get
#: names of their own (``geometry.lp_ms``, ``system.transport.live.idle_ms``).
SELF_MS_LAYERS = (
    "exec", "core.runner", "core.averaging", "core.broadcast_all",
    "core.problems", "geometry", "system.broadcast", "system.messages",
    "system.network", "system.scheduler", "system.adversary",
    "system.transport.live", "system.transport.wire", "obs.metrics",
)
LIVE_COUNTERS = ("retransmits", "reconnects", "backpressure_waits")


def layer_metrics(tracer: Tracer, traced: list[Any], plain: list[Any],
                  cache_hits: int, cache_lookups: int) -> dict[str, Any]:
    """Per-layer metrics of a traced pass, per run where they are sums.

    ``traced`` and ``plain`` are the run records of the traced pass and
    of the untraced pass over the same seeds; the cache figures are
    ``cache_stats()`` deltas over the traced pass.
    """
    runs = len(traced)
    wall = sum(r.wall for r in traced)
    self_s, counts = tracer.self_s, tracer.counts

    def per_run(value: float, unit: str, scale: float = 1.0) -> dict[str, Any]:
        return {"value": scale * value / runs, "unit": unit}

    def ratio(num: float, den: float) -> dict[str, Any]:
        return {"value": num / den if den else 0.0, "unit": "ratio"}

    m = {f"{layer}.self_ms": per_run(self_s[layer], "ms", 1e3)
         for layer in SELF_MS_LAYERS}
    m["core.problems.ms"] = per_run(tracer.inclusive_s["core.problems"],
                                    "ms", 1e3)
    for layer in ("core.problems", "geometry", "system.broadcast",
                  "obs.metrics"):
        m[f"{layer}.calls"] = per_run(tracer.calls[layer], "count")
    m["geometry.lp_solves"] = per_run(counts["geometry.lp_solves"], "count")
    m["geometry.lp_iterations"] = per_run(counts["geometry.lp_iterations"],
                                          "count")
    m["geometry.lp_ms"] = per_run(self_s["geometry.lp"], "ms", 1e3)
    m["geometry.cache.hit_ratio"] = ratio(cache_hits, cache_lookups)
    m["system.broadcast.deliver_ratio"] = ratio(
        counts["system.broadcast.deliveries"],
        counts["system.broadcast.handled"])
    for name in ("canon_calls", "copy_calls", "estimate_calls"):
        key = f"system.messages.{name}"
        m[key] = per_run(counts[key], "count")
    m["system.network.msgs"] = per_run(sum(r.messages for r in traced),
                                       "count")
    m["system.network.bytes"] = per_run(sum(r.bytes for r in traced), "B")
    m["system.scheduler.steps"] = per_run(counts["system.scheduler.steps"],
                                          "count")
    m["system.transport.live.idle_ms"] = per_run(
        self_s["system.transport.live.idle"], "ms", 1e3)
    m["system.transport.wire.frames"] = per_run(
        counts["system.transport.wire.frames"], "count")
    for name in LIVE_COUNTERS:
        m[f"system.transport.peer.{name}"] = per_run(
            sum(r.live_counters.get(name, 0) for r in traced), "count")
    # The entry points' own time is what no deeper layer accounts for.
    m["trace.attributed_share"] = ratio(
        wall - self_s["exec"] - self_s["core.runner"], wall)
    m["trace.overhead_ratio"] = ratio(wall, sum(r.wall for r in plain))
    return m
