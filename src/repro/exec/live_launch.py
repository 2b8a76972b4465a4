"""Subprocess-per-node deployment of the live transport.

The in-process :class:`~repro.system.transport.live.LiveTransport` runs a
whole cluster on one event loop — good for tests, useless for demonstrating
that the protocol stack really is transport-independent.  This module is
the other half of ROADMAP item 1: every node is its **own OS process**
(``python -m repro node``), finding its peers through a shared *topology
file*, and a launcher (``python -m repro launch``) that spawns a local
cluster and collects the decisions.

Topology file (JSON, schema ``repro.transport.topology/1``)::

    {
      "schema": "repro.transport.topology/1",
      "instance": "launch-averaging-tcp-n4-s0",
      "algorithm": "averaging",      # any repro.core.ALGORITHMS entry
      "n": 4, "d": 2, "f": 1,
      "kind": "tcp",                 # or "uds"
      "seed": 0,                     # master seed (inputs, ctx rngs, keys)
      "broadcast": "eig",            # sync algorithms' primitive
      "p": 2.0, "k": 1, "delta": 0.0, "epsilon": 0.05,
      "mode": "optimal", "alpha": 0.5,
      "rounds": 17,                  # resolved at build time (see below)
      "input_scale": 3.0,
      "max_rounds": 64, "max_steps": 2000000,
      "nodes": [{"id": 0, "kind": "tcp", "host": "127.0.0.1",
                 "port": 40001, "path": ""}, ...]
    }

Everything a node needs is derived deterministically from the document:

* **Inputs** — ``default_rng(seed).normal(scale=input_scale, size=(n, d))``,
  the exact :meth:`~repro.core.runspec.RunSpec.resolved_inputs` derivation,
  so a live cluster computes on the same inputs a ``RunSpec`` with the same
  seed would.
* **Signature keys** (``broadcast="dolev-strong"``) — every node builds
  ``SignatureScheme(n, default_rng(seed))``; the scheme is deterministic in
  the rng, so n separate processes derive identical key tables without any
  key-distribution step.
* **Averaging round budget** — termination needs every node to run the
  same number of rounds; the contraction-bound estimate depends only on
  the (seed-derived) inputs, so it is resolved once at *build* time and
  written into the document rather than recomputed per node.

Live deployments execute **honest** runs only (the document has no
adversary vocabulary); Byzantine behaviour needs the deterministic
simulator (``transport="sim"``).

TCP ports are allocated by binding port 0 and releasing the socket just
before the node binds it again — racy in principle, fine in practice for
loopback CI clusters (and UDS paths have no such race).
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from ..core.runspec import ALGORITHMS
from ..system.transport.live import LiveNode, NodeAddress
from .grid import min_trial_size

__all__ = [
    "TOPOLOGY_SCHEMA",
    "allocate_addresses",
    "build_process",
    "build_topology",
    "launch_local",
    "load_topology",
    "run_node",
    "write_topology",
]

TOPOLOGY_SCHEMA = "repro.transport.topology/1"

#: Document keys every topology file must carry (beyond the schema tag).
_REQUIRED_KEYS = (
    "instance", "algorithm", "n", "d", "f", "kind", "seed", "broadcast",
    "p", "k", "delta", "epsilon", "mode", "alpha", "rounds", "input_scale",
    "max_rounds", "max_steps", "nodes",
)


# ---------------------------------------------------------------------------
# topology documents
# ---------------------------------------------------------------------------


def _derived_inputs(doc: dict[str, Any]) -> np.ndarray:
    """The cluster's input matrix — RunSpec.resolved_inputs, verbatim."""
    rng = np.random.default_rng(int(doc["seed"]))
    return rng.normal(
        scale=float(doc["input_scale"]), size=(int(doc["n"]), int(doc["d"]))
    )


def build_topology(
    algorithm: str,
    n: int,
    d: int,
    f: int,
    nodes: list[NodeAddress],
    *,
    kind: str = "tcp",
    seed: int = 0,
    broadcast: str = "eig",
    p: float = 2.0,
    k: int = 1,
    delta: float = 0.0,
    epsilon: float = 5e-2,
    mode: str = "optimal",
    alpha: float = 0.5,
    rounds: Optional[int] = None,
    input_scale: float = 3.0,
    max_rounds: int = 64,
    max_steps: int = 2_000_000,
    instance: Optional[str] = None,
) -> dict[str, Any]:
    """Assemble (and validate) a topology document for one cluster."""
    if algorithm not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; choices {ALGORITHMS}"
        )
    if kind not in ("tcp", "uds"):
        raise ValueError(f"unknown transport kind {kind!r} (tcp or uds)")
    if algorithm == "scalar" and d != 1:
        raise ValueError(f"scalar consensus requires d=1, got d={d}")
    floor = min_trial_size(algorithm, d, f, k)
    if n < floor:
        raise ValueError(
            f"{algorithm} with d={d}, f={f} needs n >= {floor}, got {n}"
        )
    if len(nodes) != n:
        raise ValueError(f"need {n} node addresses, got {len(nodes)}")
    if sorted(a.node_id for a in nodes) != list(range(n)):
        raise ValueError("node ids must be exactly 0..n-1")
    doc: dict[str, Any] = {
        "schema": TOPOLOGY_SCHEMA,
        "instance": instance
        or f"launch-{algorithm}-{kind}-n{n}-s{seed}",
        "algorithm": algorithm,
        "n": int(n),
        "d": int(d),
        "f": int(f),
        "kind": kind,
        "seed": int(seed),
        "broadcast": broadcast,
        "p": float(p),
        "k": int(k),
        "delta": float(delta),
        "epsilon": float(epsilon),
        "mode": mode,
        "alpha": float(alpha),
        "rounds": rounds,
        "input_scale": float(input_scale),
        "max_rounds": int(max_rounds),
        "max_steps": int(max_steps),
        "nodes": [a.as_dict() for a in sorted(nodes, key=lambda a: a.node_id)],
    }
    if doc["rounds"] is None:
        if algorithm == "averaging":
            # Same estimate the runner's averaging builder uses, resolved
            # once here so every node terminates after the identical
            # round count.
            from ..core.averaging import rounds_for_epsilon

            inputs = _derived_inputs(doc)
            spread = float(np.max(inputs.max(axis=0) - inputs.min(axis=0)))
            doc["rounds"] = rounds_for_epsilon(
                3.0 * max(spread, float(epsilon)), n, f, float(epsilon)
            )
        elif algorithm == "iterative":
            doc["rounds"] = 30
    if algorithm == "iterative":
        doc["max_rounds"] = int(doc["rounds"]) + 2
    return doc


def write_topology(path: str, doc: dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_topology(path: str) -> dict[str, Any]:
    """Read and structurally validate a topology file."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("schema") != TOPOLOGY_SCHEMA:
        raise ValueError(
            f"{path!r} is not a {TOPOLOGY_SCHEMA} document "
            f"(schema={doc.get('schema') if isinstance(doc, dict) else None!r})"
        )
    missing = [key for key in _REQUIRED_KEYS if key not in doc]
    if missing:
        raise ValueError(f"{path!r} is missing topology keys: {missing}")
    if doc["algorithm"] not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {doc['algorithm']!r} in {path!r}")
    n = int(doc["n"])
    addresses = [NodeAddress.from_dict(entry) for entry in doc["nodes"]]
    if sorted(a.node_id for a in addresses) != list(range(n)):
        raise ValueError(f"{path!r}: node ids must be exactly 0..{n - 1}")
    if doc["algorithm"] in ("averaging", "iterative") and doc["rounds"] is None:
        raise ValueError(
            f"{path!r}: {doc['algorithm']} topologies must carry a "
            "resolved 'rounds' (build_topology resolves it)"
        )
    return doc


def allocate_addresses(
    n: int, kind: str, *, host: str = "127.0.0.1", base_dir: str = ""
) -> list[NodeAddress]:
    """Concrete listen addresses for a local ``n``-node cluster.

    TCP ports come from the bind-0/close dance; UDS sockets live under
    ``base_dir`` (which must already exist).
    """
    if kind == "tcp":
        socks: list[socket.socket] = []
        try:
            for _ in range(n):
                s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                s.bind((host, 0))
                socks.append(s)
            ports = [s.getsockname()[1] for s in socks]
        finally:
            for s in socks:
                s.close()
        return [
            NodeAddress(pid, "tcp", host=host, port=ports[pid])
            for pid in range(n)
        ]
    if kind == "uds":
        if not base_dir:
            raise ValueError("uds address allocation needs a base_dir")
        return [
            NodeAddress(pid, "uds", path=os.path.join(base_dir, f"n{pid}.sock"))
            for pid in range(n)
        ]
    raise ValueError(f"unknown transport kind {kind!r} (tcp or uds)")


# ---------------------------------------------------------------------------
# one node
# ---------------------------------------------------------------------------


def build_process(doc: dict[str, Any], pid: int) -> Any:
    """Materialise node ``pid``'s protocol process from the document.

    Deterministic in the document alone: n separate OS processes calling
    this with the same file agree on inputs, signature keys, and round
    budgets without exchanging a byte.
    """
    algorithm = doc["algorithm"]
    n, d, f = int(doc["n"]), int(doc["d"]), int(doc["f"])
    if not 0 <= pid < n:
        raise ValueError(f"pid {pid} outside 0..{n - 1}")
    inputs = _derived_inputs(doc)
    broadcast = str(doc["broadcast"])
    scheme = None
    if broadcast == "dolev-strong":
        from ..system.crypto import SignatureScheme

        # Deterministic in the seed: every node derives the same keys.
        scheme = SignatureScheme(n, np.random.default_rng(int(doc["seed"])))
    if algorithm == "exact":
        from ..core.exact_bvc import ExactBVCProcess

        return ExactBVCProcess(
            n, f, pid, inputs[pid], broadcast=broadcast, scheme=scheme
        )
    if algorithm == "algo":
        from ..core.algo_sync import AlgoProcess

        return AlgoProcess(
            n, f, pid, inputs[pid], p=doc["p"],
            broadcast=broadcast, scheme=scheme,
        )
    if algorithm == "krelaxed":
        from ..core.krelaxed import KRelaxedProcess

        return KRelaxedProcess(
            n, f, pid, inputs[pid], k=int(doc["k"]),
            broadcast=broadcast, scheme=scheme,
        )
    if algorithm == "scalar":
        from ..core.scalar import ScalarConsensusProcess

        return ScalarConsensusProcess(
            n, f, pid, inputs[pid], broadcast=broadcast, scheme=scheme
        )
    if algorithm == "iterative":
        from ..core.iterative import IterativeBVCProcess
        from ..system.topology import complete_topology

        return IterativeBVCProcess(
            n, f, pid, inputs[pid], topology=complete_topology(n),
            num_rounds=int(doc["rounds"]), alpha=float(doc["alpha"]),
        )
    assert algorithm == "averaging"
    from ..core.averaging import VerifiedAveragingProcess

    return VerifiedAveragingProcess(
        n, f, pid, inputs[pid], num_rounds=int(doc["rounds"]),
        mode=str(doc["mode"]), delta=float(doc["delta"]), p=doc["p"],
    )


def run_node(
    doc: dict[str, Any],
    pid: int,
    *,
    metrics_port: Optional[int] = None,
    linger: float = 0.0,
    trace_path: Optional[str] = None,
    emit: Optional[Callable[[dict[str, Any]], None]] = None,
) -> dict[str, Any]:
    """Run one cluster node to completion; returns its decision record.

    ``metrics_port`` serves live Prometheus text at ``/metrics`` for the
    whole run (plus ``linger`` extra seconds afterwards, so a scraper can
    still reach a node whose run finished first).  ``emit`` is called
    with the decision record *before* the linger window — the launcher
    reads decisions from stdout while slower nodes keep running.

    ``trace_path`` exports the node's trail as JSONL *with causal
    tracing on*: a per-process :class:`~repro.obs.causal.CausalCollector`
    stamps every send/deliver (the stamps ride the version-2 wire frames
    to peers), and the trail carries ``transport.node.topology`` /
    ``transport.node.decision`` events so a directory of trails is
    self-contained input for :mod:`repro.obs.fleet` stitching and
    post-hoc probes.
    """
    import asyncio

    from ..obs.causal import CausalCollector, use_causal_collector
    from ..obs.export import write_jsonl
    from ..obs.prom import serve_metrics
    from ..obs.tracer import Tracer, use_tracer

    addresses = {
        int(entry["id"]): NodeAddress.from_dict(entry)
        for entry in doc["nodes"]
    }
    process = build_process(doc, pid)
    node = LiveNode(
        pid, int(doc["n"]), int(doc["f"]), process, addresses[pid],
        instance=str(doc["instance"]), seed=int(doc["seed"]),
        max_rounds=int(doc["max_rounds"]), max_steps=int(doc["max_steps"]),
    )

    server = None
    if metrics_port is not None:
        # Re-snapshotted per scrape: _result() folds the node's current
        # NetworkStats and per-link counters into a fresh registry.
        from ..obs.prom import render_exposition

        def source() -> str:
            return render_exposition(node._result().metrics.snapshot())

        server = serve_metrics(source, port=metrics_port)
        server.start_background()

    async def drive() -> Any:
        await node.start_server()
        node.connect_peers(addresses)
        try:
            return await node.run()
        finally:
            await node.shutdown()

    tracer = Tracer(level="info")
    collector = CausalCollector(int(doc["n"])) if trace_path else None
    tracer.event(
        "transport.node.topology",
        pid=pid, instance=doc["instance"], algorithm=doc["algorithm"],
        n=int(doc["n"]), d=int(doc["d"]), f=int(doc["f"]),
        seed=int(doc["seed"]), input_scale=float(doc["input_scale"]),
        epsilon=float(doc["epsilon"]), p=doc["p"], k=int(doc["k"]),
        delta=float(doc["delta"]), kind=doc["kind"],
    )
    try:
        with use_tracer(tracer), use_causal_collector(collector):
            with tracer.span(
                "transport.node", pid=pid, instance=doc["instance"]
            ):
                result = asyncio.run(drive())
    finally:
        record = _node_record(doc, pid, node)
        if trace_path:
            decision = record["decision"]
            delta_used = getattr(node.process, "delta_used", None)
            tracer.event(
                "transport.node.decision",
                pid=pid, decided=record["decided"], decision=decision,
                rounds=record["rounds"], completed=record["completed"],
                delta_used=None if delta_used is None else float(delta_used),
            )
            write_jsonl(trace_path, tracer, node._result().metrics,
                        collector=collector,
                        run_id=f"{doc['instance']}-n{pid}")
        if emit is not None:
            emit(record)
        if server is not None and linger > 0:
            time.sleep(linger)
        if server is not None:
            server.shutdown()
    record["rounds"] = int(result.rounds)
    return record


def _node_record(doc: dict[str, Any], pid: int, node: LiveNode) -> dict[str, Any]:
    """The one-line JSON decision record ``repro node`` prints."""
    decided = node.ctx.decided
    decision = node.ctx.decision
    if decision is not None and hasattr(decision, "tolist"):
        decision = decision.tolist()
    elif isinstance(decision, tuple):
        decision = list(decision)
    live = {
        name: int(metric["value"])
        for name, metric in node._result().metrics.snapshot().items()
        if name.startswith("net.live.") and metric.get("type") == "counter"
    }
    return {
        "schema": "repro.transport.decision/1",
        "instance": doc["instance"],
        "algorithm": doc["algorithm"],
        "node": pid,
        "decided": bool(decided),
        "decision": decision if decided else None,
        "rounds": int(node.rounds_done),
        "completed": bool(node.completed),
        "messages_sent": int(node.stats.messages_sent),
        "messages_delivered": int(node.stats.messages_delivered),
        "live": live,
    }


# ---------------------------------------------------------------------------
# the local launcher
# ---------------------------------------------------------------------------


def _spread(decisions: list[np.ndarray]) -> float:
    """Largest pairwise Euclidean distance between decisions."""
    worst = 0.0
    for i in range(len(decisions)):
        for j in range(i + 1, len(decisions)):
            worst = max(
                worst, float(np.linalg.norm(decisions[i] - decisions[j]))
            )
    return worst


def launch_local(
    algorithm: str,
    n: int,
    d: int,
    f: int,
    *,
    kind: str = "tcp",
    seed: int = 0,
    broadcast: str = "eig",
    p: float = 2.0,
    k: int = 1,
    epsilon: float = 5e-2,
    rounds: Optional[int] = None,
    mode: str = "optimal",
    workdir: Optional[str] = None,
    timeout: float = 120.0,
    metrics_port: Optional[int] = None,
    linger: float = 0.0,
    trace_dir: Optional[str] = None,
    python: str = sys.executable,
) -> dict[str, Any]:
    """Spawn an ``n``-subprocess cluster; collect and judge the decisions.

    Returns a launch report.  ``ok`` holds when every node decided and
    completed, the decisions agree — bitwise (to solver tolerance) for
    the exact algorithms, within ``epsilon`` for the approximate ones —
    and, when trails were collected, the stitched fleet evidence is
    complete and every post-hoc probe is clean.

    ``metrics_port`` is a *base* port: node ``pid`` serves ``/metrics``
    on ``metrics_port + pid`` (every node, not just node 0), and the
    report records each node's scrape address under
    ``metrics_addresses``.  ``trace_dir`` collects one causal-traced
    JSONL trail per node and folds a ``fleet`` block (stitch report +
    probe verdicts) into the launch report.
    """
    owned_tmp: Optional[tempfile.TemporaryDirectory] = None
    if workdir is None:
        owned_tmp = tempfile.TemporaryDirectory(prefix="repro-launch-")
        workdir = owned_tmp.name
    try:
        addresses = allocate_addresses(n, kind, base_dir=workdir)
        doc = build_topology(
            algorithm, n, d, f, addresses, kind=kind, seed=seed,
            broadcast=broadcast, p=p, k=k, epsilon=epsilon, rounds=rounds,
            mode=mode,
        )
        topology_path = os.path.join(workdir, "topology.json")
        write_topology(topology_path, doc)

        src_root = str(Path(__file__).resolve().parents[2])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        metrics_addresses: dict[str, str] = {}
        procs: list[subprocess.Popen[str]] = []
        for pid in range(n):
            cmd = [python, "-m", "repro", "node",
                   "--topology", topology_path, "--id", str(pid)]
            if metrics_port is not None:
                cmd += ["--metrics-port", str(metrics_port + pid)]
                if linger > 0:
                    cmd += ["--linger", str(linger)]
                metrics_addresses[str(pid)] = (
                    f"http://127.0.0.1:{metrics_port + pid}/metrics"
                )
            if trace_dir:
                os.makedirs(trace_dir, exist_ok=True)
                cmd += ["--trace",
                        os.path.join(trace_dir, f"node-{pid}.jsonl")]
            procs.append(subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, env=env,
            ))

        deadline = time.monotonic() + timeout
        records: list[Optional[dict[str, Any]]] = [None] * n
        errors: list[str] = []
        try:
            for pid, proc in enumerate(procs):
                remaining = max(0.1, deadline - time.monotonic())
                try:
                    out, err = proc.communicate(timeout=remaining)
                except subprocess.TimeoutExpired:
                    errors.append(f"node {pid}: timed out after {timeout}s")
                    continue
                line = next(
                    (ln for ln in reversed(out.splitlines()) if ln.strip()),
                    "",
                )
                try:
                    records[pid] = json.loads(line)
                except ValueError:
                    tail = (err or out or "").strip().splitlines()
                    errors.append(
                        f"node {pid}: no decision line (exit "
                        f"{proc.returncode}): {tail[-1] if tail else '?'}"
                    )
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
            for proc in procs:
                if proc.poll() is None:
                    proc.wait()

        good = [r for r in records if r is not None]
        decided = [r for r in good if r.get("decided")]
        decisions = [
            np.atleast_1d(np.asarray(r["decision"], dtype=float))
            for r in decided
        ]
        spread = _spread(decisions) if len(decisions) >= 2 else 0.0
        exactish = algorithm in ("exact", "algo", "krelaxed", "scalar")
        tolerance = 1e-9 if exactish else float(epsilon)
        fleet_block = _fleet_block(trace_dir) if trace_dir else None
        ok = (
            not errors
            and len(decided) == n
            and all(r.get("completed") for r in good)
            and spread <= tolerance
            and (fleet_block is None or fleet_block.get("ok", False))
        )
        return {
            "schema": "repro.transport.launch-report/1",
            "instance": doc["instance"],
            "algorithm": algorithm,
            "kind": kind,
            "n": n,
            "d": d,
            "f": f,
            "seed": seed,
            "ok": bool(ok),
            "decided_nodes": len(decided),
            "agreement_spread": spread,
            "agreement_tolerance": tolerance,
            "errors": errors,
            "metrics_addresses": metrics_addresses,
            "fleet": fleet_block,
            "nodes": records,
            "topology": doc,
        }
    finally:
        if owned_tmp is not None:
            owned_tmp.cleanup()


def _fleet_block(trace_dir: str) -> dict[str, Any]:
    """Stitch the collected trails and run the post-hoc probes.

    ``ok`` holds when the merged graph is complete (every remote deliver
    found its send) and no probe recorded a violation.  A stitching or
    probe failure is reported, never raised — the launch report must
    still be written so the cluster outcome stays inspectable.
    """
    from ..obs.fleet import (
        discover_trails,
        fleet_probes,
        load_trails,
        stitch,
    )

    try:
        trails = load_trails(discover_trails(trace_dir))
        graph, stitch_report = stitch(trails)
        reports, context = fleet_probes(trails, graph)
        probes_ok = all(report.ok for report in reports)
        return {
            "ok": bool(stitch_report.complete and probes_ok),
            "stitch": stitch_report.to_dict(),
            "probes": [report.to_dict() for report in reports],
            "probes_ok": probes_ok,
            "context": context,
        }
    except (OSError, ValueError) as exc:
        return {"ok": False, "error": str(exc)}
