"""Fleet observability: stitch per-node trails, run probes post-hoc.

A live cluster (``python -m repro launch`` / ``python -m repro node``)
writes one schema-2 JSONL trail per node.  Each trail's causal records
come from that node's own :class:`~repro.obs.causal.CausalCollector`, so
event ids are *node-local* and a deliver of a remote message has
``cause=None`` — the matching send lives in another file.  This module
rebuilds the cluster-wide happens-before DAG:

1. **Load** every trail (:func:`load_trails`), identifying each node
   from its ``transport.node.*`` events (fallbacks: the header run-id
   suffix, then the majority causal pid).
2. **Dedup** remote deliveries: the transport already drops retransmits
   by wire sequence number, but stitching tolerates trails from older
   or foreign writers by dropping any repeated ``(node, origin)`` pair.
3. **Merge** all events in Lamport order — ``(lamport, node,
   local_eid)`` is a valid topological order of the union because
   Lamport timestamps strictly increase along each node's program order
   and every deliver's timestamp exceeds its send's — then renumber
   eids densely and remap local ``cause`` references.
4. **Stitch** the cross-process edges: a remote deliver carries
   ``fields["origin"] = [origin_node, origin_eid]``
   (:meth:`~repro.obs.causal.CausalCollector.on_deliver_remote`); its
   ``cause`` becomes the merged eid of that send.  Delivers whose
   origin send is missing are counted as *orphans* (an incomplete
   collection — some node's trail is absent or truncated).

The merged records feed the ordinary
:class:`~repro.analysis.timeline.CausalGraph`, so ``repro fleet
explain`` renders cross-node decision cones with the same code path as
the in-process ``repro explain``.  Wall clocks never order anything:
each trail's header ``wall_time`` is reported as skew evidence only.

Post-hoc probes (:func:`fleet_probes`) re-run the paper's invariant
checks over the stitched evidence: validity-envelope and
agreement-convergence via :meth:`~repro.obs.probes.Probe.check_decisions`
on the decision vectors each node logged, and broadcast integrity as a
structural equivocation check over the merged graph (two sends of one
``(pid, tag, round)`` instance to different receivers must carry the
same payload digest).  Honest inputs are re-derived from the topology
parameters each node logs — the same ``default_rng(seed)`` derivation
the cluster itself used — so a trail directory is self-contained
evidence: no RunSpec, no repo state, just the files.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from ..analysis.timeline import CausalGraph
from .export import read_jsonl
from .metrics import Histogram
from .probes import ProbeReport, build_probes

__all__ = [
    "FLEET_PROBE_NAMES",
    "NodeTrail",
    "StitchReport",
    "aggregate_metrics",
    "discover_trails",
    "fleet_probes",
    "load_trail",
    "load_trails",
    "stitch",
]

#: Probes `fleet_probes` evaluates (the full shipped set).
FLEET_PROBE_NAMES = ("validity", "agreement", "broadcast")

_RUN_ID_NODE = re.compile(r"-n(\d+)$")


@dataclass
class NodeTrail:
    """One node's parsed JSONL trail."""

    path: str
    node_id: int
    run_id: Optional[str]
    wall_time: Optional[float]
    causal: list[dict[str, Any]]
    events: list[dict[str, Any]]
    metrics: dict[str, Any] = field(default_factory=dict)

    def event_fields(self, name: str) -> Optional[dict[str, Any]]:
        """Fields of the first ``name`` trace event, if recorded."""
        for ev in self.events:
            if ev.get("name") == name:
                return dict(ev.get("fields") or {})
        return None


def _infer_node_id(
    run_id: Optional[str],
    events: Sequence[dict[str, Any]],
    causal: Sequence[dict[str, Any]],
) -> Optional[int]:
    for ev in events:
        if str(ev.get("name", "")).startswith("transport.node."):
            fields = ev.get("fields") or {}
            if "pid" in fields:
                return int(fields["pid"])
    if run_id is not None:
        match = _RUN_ID_NODE.search(run_id)
        if match:
            return int(match.group(1))
    counts: dict[int, int] = {}
    for rec in causal:
        counts[int(rec["pid"])] = counts.get(int(rec["pid"]), 0) + 1
    if counts:
        return max(sorted(counts), key=lambda pid: counts[pid])
    return None


def load_trail(path: str) -> NodeTrail:
    """Parse one JSONL trail into a :class:`NodeTrail`."""
    records = read_jsonl(path)
    run_id: Optional[str] = None
    wall_time: Optional[float] = None
    causal: list[dict[str, Any]] = []
    events: list[dict[str, Any]] = []
    metrics: dict[str, Any] = {}
    for rec in records:
        kind = rec.get("type")
        if kind == "header":
            run_id = rec.get("run_id")
            wall_time = rec.get("wall_time")
        elif kind == "causal":
            causal.append(rec)
        elif kind == "event":
            events.append(rec)
        elif kind == "metrics":
            metrics = rec.get("metrics") or {}
    node_id = _infer_node_id(run_id, events, causal)
    if node_id is None:
        raise ValueError(
            f"{path}: cannot identify the node (no transport.node.* "
            "event, no -n<pid> run-id suffix, no causal records)"
        )
    return NodeTrail(
        path=str(path), node_id=int(node_id), run_id=run_id,
        wall_time=wall_time, causal=causal, events=events, metrics=metrics,
    )


def discover_trails(directory: str) -> list[str]:
    """The ``*.jsonl`` files under one directory, sorted by name."""
    from pathlib import Path

    return sorted(str(p) for p in Path(directory).glob("*.jsonl"))


def load_trails(paths: Sequence[str]) -> list[NodeTrail]:
    """Load trails and order them by node id (duplicates are an error)."""
    trails = [load_trail(p) for p in paths]
    seen: dict[int, str] = {}
    for trail in trails:
        if trail.node_id in seen:
            raise ValueError(
                f"two trails claim node {trail.node_id}: "
                f"{seen[trail.node_id]} and {trail.path}"
            )
        seen[trail.node_id] = trail.path
    return sorted(trails, key=lambda t: t.node_id)


@dataclass(frozen=True)
class StitchReport:
    """What the merge did — the completeness evidence for a fleet graph."""

    nodes: tuple[int, ...]
    events: int
    sends: int
    delivers: int
    stitched_edges: int
    orphan_delivers: int
    duplicate_delivers_dropped: int
    run_ids: tuple[Optional[str], ...]
    #: max - min of the trails' header wall-clock anchors, seconds.
    wall_time_skew: Optional[float]

    @property
    def complete(self) -> bool:
        """True when every remote deliver found its send."""
        return self.orphan_delivers == 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "nodes": list(self.nodes),
            "events": self.events,
            "sends": self.sends,
            "delivers": self.delivers,
            "stitched_edges": self.stitched_edges,
            "orphan_delivers": self.orphan_delivers,
            "duplicate_delivers_dropped": self.duplicate_delivers_dropped,
            "complete": self.complete,
            "run_ids": list(self.run_ids),
            "wall_time_skew": self.wall_time_skew,
        }


def stitch(trails: Sequence[NodeTrail]) -> tuple[CausalGraph, StitchReport]:
    """Merge per-node trails into one cluster-wide :class:`CausalGraph`.

    Returns the graph (dense re-numbered eids, remapped ``cause`` edges,
    cross-node send→deliver edges stitched via the ``origin`` stamps)
    plus a :class:`StitchReport` describing the merge.
    """
    dropped_dupes = 0
    merged: list[tuple[tuple[int, int, int], int, int, dict[str, Any]]] = []
    for trail in trails:
        seen_origins: set[tuple[int, int]] = set()
        for rec in trail.causal:
            origin = (rec.get("fields") or {}).get("origin")
            if origin is not None:
                key = (int(origin[0]), int(origin[1]))
                if key in seen_origins:
                    dropped_dupes += 1  # retransmit from an older writer
                    continue
                seen_origins.add(key)
            local_eid = int(rec["eid"])
            sort_key = (int(rec["lamport"]), trail.node_id, local_eid)
            merged.append((sort_key, trail.node_id, local_eid, dict(rec)))
    merged.sort(key=lambda item: item[0])

    renumber: dict[tuple[int, int], int] = {}
    for new_eid, (_, node, local_eid, _) in enumerate(merged):
        renumber[(node, local_eid)] = new_eid

    records: list[dict[str, Any]] = []
    sends = delivers = stitched = orphans = 0
    for new_eid, (_, node, local_eid, rec) in enumerate(merged):
        rec["eid"] = new_eid
        if rec.get("cause") is not None:
            rec["cause"] = renumber[(node, int(rec["cause"]))]
        kind = rec.get("kind")
        if kind == "send":
            sends += 1
        elif kind == "deliver":
            delivers += 1
            origin = (rec.get("fields") or {}).get("origin")
            if origin is not None:
                send_eid = renumber.get((int(origin[0]), int(origin[1])))
                if send_eid is None:
                    orphans += 1  # sender's trail missing or truncated
                else:
                    rec["cause"] = send_eid
                    stitched += 1
        records.append(rec)

    report = StitchReport(
        nodes=tuple(t.node_id for t in trails),
        events=len(records),
        sends=sends,
        delivers=delivers,
        stitched_edges=stitched,
        orphan_delivers=orphans,
        duplicate_delivers_dropped=dropped_dupes,
        run_ids=tuple(t.run_id for t in trails),
        wall_time_skew=_wall_skew(trails),
    )
    return CausalGraph(records), report


def _wall_skew(trails: Sequence[NodeTrail]) -> Optional[float]:
    anchors = [t.wall_time for t in trails if t.wall_time is not None]
    if len(anchors) < 2:
        return None
    return float(max(anchors) - min(anchors))


# ---------------------------------------------------------------------------
# post-hoc probes
# ---------------------------------------------------------------------------


def _topology_params(trails: Sequence[NodeTrail]) -> dict[str, Any]:
    """The cluster parameters, from any trail's topology event."""
    for trail in trails:
        fields = trail.event_fields("transport.node.topology")
        if fields:
            return fields
    raise ValueError(
        "no trail carries a transport.node.topology event — trails "
        "predate fleet tracing, or tracing was off"
    )


def _decisions(trails: Sequence[NodeTrail]) -> dict[int, np.ndarray]:
    out: dict[int, np.ndarray] = {}
    for trail in trails:
        fields = trail.event_fields("transport.node.decision")
        if fields and fields.get("decided") and fields.get("decision") is not None:
            out[trail.node_id] = np.atleast_1d(
                np.asarray(fields["decision"], dtype=float)
            )
    return out


def _honest_inputs(params: Mapping[str, Any]) -> np.ndarray:
    """Re-derive the cluster's inputs — live runs are honest, so *all*
    inputs are honest inputs (`RunSpec.resolved_inputs`, verbatim)."""
    rng = np.random.default_rng(int(params["seed"]))
    return rng.normal(
        scale=float(params["input_scale"]),
        size=(int(params["n"]), int(params["d"])),
    )


def _max_delta_used(trails: Sequence[NodeTrail]) -> float:
    delta = 0.0
    for trail in trails:
        fields = trail.event_fields("transport.node.decision") or {}
        used = fields.get("delta_used")
        if used is not None:
            delta = max(delta, float(used))
    return delta


def _check_broadcast_integrity(graph: CausalGraph, probe: Any) -> None:
    """Structural equivocation check over the merged graph.

    Every send carries a payload digest (stamped by the live transport).
    Two sends of the same ``(pid, tag, round)`` instance to *different*
    receivers with different digests would mean one logical broadcast
    showed two faces — exactly what reliable broadcast forbids.
    Sequential re-sends to the *same* receiver are not equivocation.
    """
    groups: dict[tuple[int, str, Any], dict[str, Any]] = {}
    for ev in graph.events:
        if ev.get("kind") != "send":
            continue
        fields = ev.get("fields") or {}
        digest = fields.get("digest")
        if digest is None or ev.get("tag") is None:
            continue
        key = (int(ev["pid"]), str(ev["tag"]), fields.get("round"))
        group = groups.setdefault(key, {})
        dst = ev.get("dst")
        if dst in group:
            continue  # same receiver again: sequencing, not equivocation
        group[dst] = (digest, int(ev["eid"]))
    for key in sorted(groups, key=repr):
        group = groups[key]
        if len(group) < 2:
            continue
        probe.checks += 1
        digests = {digest for digest, _ in group.values()}
        if len(digests) > 1:
            pid, tag, round_ = key
            probe.record(
                round_ if isinstance(round_, int) else None,
                f"send instance (pid {pid}, tag {tag!r}) carried "
                f"{len(digests)} distinct payload digests across receivers",
                pids=(pid,),
            )


def fleet_probes(
    trails: Sequence[NodeTrail],
    graph: Optional[CausalGraph] = None,
    *,
    names: Sequence[str] = FLEET_PROBE_NAMES,
    inject: Optional[str] = None,
) -> tuple[list[ProbeReport], dict[str, Any]]:
    """Run the invariant probes post-hoc over stitched fleet evidence.

    Returns ``(reports, context)`` where ``context`` records what the
    probes were checked against (decisions, derived parameters, any
    injection).  ``inject`` names an entry of
    :data:`repro.dst.explore.INJECTIONS`, applied to the logged
    decisions — for demonstrating that the probes would catch a
    violating cluster, not for honest validation.
    """
    from ..core.problems import check_headroom
    from ..dst.explore import apply_injection

    params = _topology_params(trails)
    algorithm = str(params["algorithm"])
    decisions = _decisions(trails)
    if inject is not None:
        decisions = apply_injection(
            inject, decisions, float(params["input_scale"]), int(params["d"])
        )
    honest = _honest_inputs(params)

    approximate = algorithm in ("averaging", "iterative")
    # check_decisions applies an explicit delta verbatim, so grant the
    # same solver-tolerance headroom the online probe computes itself.
    delta = check_headroom(_max_delta_used(trails))
    probes = build_probes(
        names,
        algorithm=algorithm,
        p=params.get("p", 2),
        k=int(params.get("k", 1)),
        epsilon=float(params["epsilon"]) if approximate else None,
        delta=None if algorithm == "krelaxed" else delta,
    )
    for probe in probes:
        if probe.name == "broadcast":
            if graph is not None:
                _check_broadcast_integrity(graph, probe)
        else:
            probe.check_decisions(decisions, honest)
    context = {
        "algorithm": algorithm,
        "n": int(params["n"]),
        "d": int(params["d"]),
        "f": int(params["f"]),
        "seed": int(params["seed"]),
        "decided_nodes": sorted(decisions),
        "delta": delta,
        "epsilon": float(params["epsilon"]) if approximate else None,
        "inject": inject,
    }
    return [probe.report() for probe in probes], context


# ---------------------------------------------------------------------------
# fleet metrics aggregation
# ---------------------------------------------------------------------------


def aggregate_metrics(trails: Sequence[NodeTrail]) -> dict[str, Any]:
    """Merge the trails' metrics snapshots into one fleet snapshot.

    Counters sum; gauges keep the extreme envelope (``max`` of maxes,
    ``min`` of mins, last value = max across nodes — peaks, not means);
    histograms merge by adding bucket counts, so the fleet quantiles are
    those of one histogram fed every node's samples.
    """
    out: dict[str, Any] = {}
    histograms: dict[str, Histogram] = {}
    for trail in trails:
        for name, record in trail.metrics.items():
            kind = record.get("type")
            if kind == "counter":
                prev = out.setdefault(name, {"type": "counter", "value": 0})
                prev["value"] += int(record["value"])
            elif kind == "gauge":
                if not record.get("updates"):
                    continue
                prev = out.setdefault(name, {
                    "type": "gauge", "value": None, "max": -np.inf,
                    "min": np.inf, "updates": 0,
                })
                prev["updates"] += int(record["updates"])
                prev["max"] = max(prev["max"], float(record["max"]))
                prev["min"] = min(prev["min"], float(record["min"]))
                value = float(record["value"])
                prev["value"] = (
                    value if prev["value"] is None
                    else max(prev["value"], value)
                )
            elif kind == "histogram":
                histograms.setdefault(name, Histogram()).merge(
                    Histogram.from_dict(record)
                )
    for name, hist in histograms.items():
        out[name] = {"type": "histogram", **hist.as_dict()}
    return dict(sorted(out.items()))
