"""Human-readable views of exported traces and phase profiles.

Two record families render here:

* **trace records** — the dict form produced by :func:`repro.obs.export
  .trace_to_records` / :func:`repro.obs.export.read_jsonl`, so these
  work identically on an in-memory tracer and on a JSONL file read back
  from disk (:func:`render_summary`);
* **phase snapshots** — the per-path aggregates returned by
  :meth:`repro.obs.tracer.Tracer.snapshot` (and embedded in
  ``BENCH_perf.json`` under ``"phases"``): :func:`render_hot_phases` is
  the top-N where-did-the-time-go table, :func:`render_phase_flame` the
  indented path tree.

::

    from repro.obs import Tracer, read_jsonl, use_tracer
    from repro.analysis.profiling import render_phase_flame, render_summary

    print(render_summary(read_jsonl("trace.jsonl")))
    tracer = Tracer()
    with use_tracer(tracer):
        ...
    print(render_phase_flame(tracer.snapshot()))
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

from ..obs.tracer import rollup_phases
from .tables import format_table

__all__ = [
    "SpanStats",
    "summarize_spans",
    "render_summary",
    "render_hot_phases",
    "render_phase_flame",
    "metrics_record",
]


@dataclass(frozen=True)
class SpanStats:
    """Aggregate timing of all spans sharing one name."""

    name: str
    count: int
    total: float
    mean: float
    max: float


def _spans(records: Sequence[dict[str, Any]]) -> list[dict[str, Any]]:
    return [r for r in records if r.get("type") == "span"]


def _duration(span: dict[str, Any]) -> float:
    t1 = span.get("t1")
    return (t1 - span["t0"]) if t1 is not None else 0.0


def metrics_record(records: Sequence[dict[str, Any]]) -> Optional[dict[str, Any]]:
    """The metrics snapshot embedded in a trace, if any."""
    for rec in records:
        if rec.get("type") == "metrics":
            return rec["metrics"]
    return None


def summarize_spans(records: Sequence[dict[str, Any]]) -> list[SpanStats]:
    """Per-name aggregate timing, sorted by total time (descending)."""
    grouped: dict[str, list[float]] = defaultdict(list)
    for span in _spans(records):
        grouped[span["name"]].append(_duration(span))
    out = [
        SpanStats(
            name=name,
            count=len(ds),
            total=sum(ds),
            mean=sum(ds) / len(ds),
            max=max(ds),
        )
        for name, ds in grouped.items()
    ]
    return sorted(out, key=lambda s: (-s.total, s.name))


def render_summary(records: Sequence[dict[str, Any]]) -> str:
    """Text table: span timing aggregates plus headline metrics."""
    stats = summarize_spans(records)
    lines = []
    if stats:
        rows = [
            [s.name, s.count, f"{s.total:.6f}", f"{s.mean:.6f}", f"{s.max:.6f}"]
            for s in stats
        ]
        lines.append(
            format_table(
                ["span", "count", "total(s)", "mean(s)", "max(s)"],
                rows,
                title="span summary",
            )
        )
    else:
        lines.append("span summary: (no spans recorded)")
    metrics = metrics_record(records)
    if metrics:
        rows = []
        for name, m in metrics.items():
            if m.get("type") == "counter":
                rows.append([name, "counter", m["value"]])
            elif m.get("type") == "gauge":
                rows.append([name, "gauge", f"last={m['value']} max={m['max']}"])
            else:
                if m.get("count"):
                    rows.append(
                        [name, "histogram",
                         f"n={m['count']} mean={m['mean']:.6g} p99={m['p99']:.6g}"]
                    )
                else:
                    rows.append([name, "histogram", "n=0"])
        lines.append(format_table(["metric", "kind", "value"], rows,
                                  title="metrics"))
    return "\n\n".join(lines)


# ---------------------------------------------------------------------------
# phase-profile renderers (Tracer.snapshot / BENCH_perf documents)
# ---------------------------------------------------------------------------


def render_hot_phases(
    snapshot: Mapping[str, Any], *, top: int = 10
) -> str:
    """Top-N phases by *self* time: wall attributed to a phase name and
    not to any deeper phase — the honest where-did-the-time-go table."""
    rollup = rollup_phases(dict(snapshot))
    if not rollup:
        return "hot phases: (no phases recorded)"
    grand_total = sum(r["self_seconds"] for r in rollup.values()) or 1.0
    ranked = sorted(rollup.items(), key=lambda kv: -kv[1]["self_seconds"])
    rows = [
        [
            name,
            row["count"],
            f"{row['self_seconds']:.6f}",
            f"{100.0 * row['self_seconds'] / grand_total:.1f}%",
            f"{row['wall_seconds']:.6f}",
            f"{row['cpu_seconds']:.6f}",
        ]
        for name, row in ranked[:top]
    ]
    table = format_table(
        ["phase", "count", "self(s)", "self%", "total(s)", "cpu(s)"],
        rows,
        title=f"hot phases (top {min(top, len(ranked))} of {len(ranked)})",
    )
    cache: Mapping[str, Any] = snapshot.get("cache", {})
    if not cache:
        return table
    cache_rows = []
    for kernel, entry in sorted(cache.items()):
        lookups = entry["hits"] + entry["misses"]
        rate = entry["hits"] / lookups if lookups else 0.0
        cache_rows.append(
            [kernel, entry["hits"], entry["misses"], f"{100.0 * rate:.1f}%"]
        )
    return table + "\n\n" + format_table(
        ["kernel", "hits", "misses", "hit rate"],
        cache_rows,
        title="geometry cache",
    )


def render_phase_flame(snapshot: Mapping[str, Any]) -> str:
    """Indented span-path tree with wall time and counts at each node.

    Each line is an *aggregate* over every traversal of that path, so a
    million async steps stay one line.
    """
    phases: Mapping[str, Any] = snapshot.get("phases", {})
    if not phases:
        return "(no phases recorded)"
    children: dict[Optional[str], list[str]] = defaultdict(list)
    for path, entry in phases.items():
        children[entry.get("parent")].append(path)
    for sibs in children.values():
        sibs.sort(key=lambda p: -float(phases[p]["wall_seconds"]))

    lines: list[str] = []

    def emit(path: str, depth: int) -> None:
        entry = phases[path]
        indent = "  " * depth
        lines.append(
            f"{indent}{entry['name']}  {entry['wall_seconds']:.6f}s"
            f"  x{entry['count']}"
        )
        for kid in children.get(path, []):
            emit(kid, depth + 1)

    for root in children.get(None, []):
        emit(root, 0)
    return "\n".join(lines)
