"""Subprocess-per-node deployment of the live transport.

The in-process :class:`~repro.system.transport.live.LiveTransport` runs a
whole cluster on one event loop — good for tests, useless for demonstrating
that the protocol stack really is transport-independent.  This module
runs every node as its **own OS process** (``python -m repro node``),
finding its peers through a shared *topology file*, and a launcher
(``python -m repro launch``) that spawns a local cluster and judges the
decisions.

A live cluster runs one :class:`~repro.core.runspec.RunSpec`, built and
checked by the same code as a simulated run.  Topology file (JSON,
schema ``repro.transport.topology/2``)::

    {
      "schema": "repro.transport.topology/2",
      "instance": "launch-averaging-tcp-n4-s0",
      "spec": {"algorithm": "averaging", "n": 4, "d": 2, "f": 1,
               "transport": "live-tcp", "seed": 0, "epsilon": 0.05,
               ...},                 # every scalar RunSpec field
      "nodes": [{"id": 0, "kind": "tcp", "host": "127.0.0.1",
                 "port": 40001, "path": ""}, ...]
    }

:func:`load_topology` rebuilds the spec with ``RunSpec(**doc["spec"])``,
so the spec's own validation applies.  Each node then builds the whole
cluster's processes with the runner's per-algorithm builder and keeps
its own, ``procs[pid]``.  Everything else follows from the spec:

* **Inputs** — :meth:`~repro.core.runspec.RunSpec.resolved_inputs`, so a
  live cluster computes on the inputs a simulated run with the same
  seed would.
* **Signature keys** (``broadcast="dolev-strong"``) — the builder's
  ``SignatureScheme(n, default_rng(seed))`` is deterministic in the
  seed, so n separate processes derive identical key tables without any
  key-distribution step.
* **Round budgets** — the averaging contraction-bound estimate depends
  only on the seed-derived inputs, so every node derives the same count.

The launcher judges the collected decisions with
:func:`repro.core.runner.check_run`, the problem rule and
``ProblemSpec.check`` every simulated run goes through: L_inf
(ε-)agreement plus validity against the inputs.

Live deployments execute **honest** runs only: a spec carrying an
adversary, policy, topology, explicit inputs, probes or metrics is
refused.  Byzantine behaviour needs the deterministic simulator
(``transport="sim"``).

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
from dataclasses import fields
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from ..core.runner import _ALGORITHMS, check_run
from ..core.runspec import RunSpec
from ..system.adversary import Adversary
from ..system.transport.live import LiveNode, NodeAddress
from .grid import min_trial_size

__all__ = [
    "TOPOLOGY_SCHEMA",
    "allocate_addresses",
    "build_topology",
    "launch_local",
    "load_topology",
    "run_node",
    "write_topology",
]

TOPOLOGY_SCHEMA = "repro.transport.topology/2"

#: RunSpec fields with no place in a live cluster; the others are the
#: scalar fields a topology document carries.
_SIM_ONLY_FIELDS = ("inputs", "adversary", "topology", "policy", "probes", "metrics")


# ---------------------------------------------------------------------------
# topology documents
# ---------------------------------------------------------------------------


def _live_kind(spec: RunSpec) -> str:
    """The socket kind of a live spec (``tcp``/``uds``); rejects any spec
    a live cluster cannot run."""
    if not spec.transport.startswith("live-"):
        raise ValueError(
            f"a live cluster needs transport live-tcp or live-uds, "
            f"got {spec.transport!r}"
        )
    for name in _SIM_ONLY_FIELDS:
        value = getattr(spec, name)
        if value is not None and not (name == "probes" and value == ()):
            raise ValueError(f"a live cluster spec cannot carry {name}")
    assert spec.n is not None and spec.d is not None
    floor = min_trial_size(spec.algorithm, spec.d, spec.f, spec.k)
    if spec.n < floor:
        raise ValueError(
            f"{spec.algorithm} with d={spec.d}, f={spec.f} needs "
            f"n >= {floor}, got {spec.n}"
        )
    return spec.transport[len("live-"):]


def build_topology(
    spec: RunSpec, nodes: list[NodeAddress], instance: Optional[str] = None
) -> dict[str, Any]:
    """Assemble (and validate) the topology document of one cluster."""
    kind = _live_kind(spec)
    assert spec.n is not None
    if len(nodes) != spec.n:
        raise ValueError(f"need {spec.n} node addresses, got {len(nodes)}")
    if sorted(a.node_id for a in nodes) != list(range(spec.n)):
        raise ValueError(f"node ids must be exactly 0..{spec.n - 1}")
    return {
        "schema": TOPOLOGY_SCHEMA,
        "instance": instance
        or f"launch-{spec.algorithm}-{kind}-n{spec.n}-s{spec.seed}",
        "spec": {
            fld.name: getattr(spec, fld.name)
            for fld in fields(spec)
            if fld.name not in _SIM_ONLY_FIELDS
        },
        "nodes": [a.as_dict() for a in sorted(nodes, key=lambda a: a.node_id)],
    }


def write_topology(path: str, doc: dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_topology(path: str) -> dict[str, Any]:
    """Read and validate a topology file."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("schema") != TOPOLOGY_SCHEMA:
        raise ValueError(
            f"{path!r} is not a {TOPOLOGY_SCHEMA} document "
            f"(schema={doc.get('schema') if isinstance(doc, dict) else None!r})"
        )
    try:
        spec = RunSpec(**doc["spec"])
        nodes = [NodeAddress.from_dict(entry) for entry in doc["nodes"]]
        build_topology(spec, nodes, doc["instance"])
    except KeyError as exc:
        raise ValueError(f"{path!r} is missing topology key {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"{path!r} has a malformed spec: {exc}") from exc
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


def _node_process(spec: RunSpec, pid: int) -> tuple[Any, dict[str, int]]:
    """Node ``pid``'s process and scheduler caps: ``procs[pid]`` and the
    caps of the runner's builder for ``spec``, run with the runner's rng
    (so the Dolev–Strong keys match a simulated run's)."""
    assert spec.n is not None
    if not 0 <= pid < spec.n:
        raise ValueError(f"pid {pid} outside 0..{spec.n - 1}")
    build = _ALGORITHMS[spec.algorithm][0]
    procs, schedule = build(
        spec, spec.resolved_inputs(), Adversary.none(),
        np.random.default_rng(spec.seed),
    )
    caps = {
        key: schedule[key] for key in ("max_rounds", "max_steps")
        if key in schedule
    }
    return procs[pid], caps


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

    The node's process is ``procs[pid]`` of the runner's builder for the
    document's spec — deterministic in the spec alone, so n separate OS
    processes agree on inputs, signature keys and round budgets without
    exchanging a byte.

    ``metrics_port`` serves live Prometheus text at ``/metrics`` for the
    whole run (plus ``linger`` extra seconds afterwards, so a scraper can
    still reach a node whose run finished first).  ``emit`` is called
    with the decision record *before* the linger window — the launcher
    reads decisions from stdout while slower nodes keep running.

    ``trace_path`` exports the node's trail as JSONL *with causal
    tracing on*: a per-process :class:`~repro.obs.causal.CausalCollector`
    stamps every send/deliver (the stamps ride the MSG frames to peers),
    and the trail carries ``transport.node.topology`` (with the spec) /
    ``transport.node.decision`` events so a directory of trails is
    self-contained input for :mod:`repro.obs.fleet` stitching and
    post-hoc probes.
    """
    import asyncio

    from ..obs.causal import CausalCollector, use_causal_collector
    from ..obs.export import write_jsonl
    from ..obs.prom import serve_metrics
    from ..obs.tracer import Tracer, use_tracer

    spec = RunSpec(**doc["spec"])
    assert spec.n is not None
    addresses = {
        int(entry["id"]): NodeAddress.from_dict(entry)
        for entry in doc["nodes"]
    }
    process, caps = _node_process(spec, pid)
    instance = str(doc["instance"])
    node = LiveNode(
        pid, spec.n, spec.f, process, addresses[pid],
        instance=instance, seed=spec.seed, **caps,
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
    collector = CausalCollector(spec.n) if trace_path else None
    tracer.event(
        "transport.node.topology",
        pid=pid, instance=instance, spec=doc["spec"],
    )
    try:
        with use_tracer(tracer), use_causal_collector(collector):
            with tracer.span("transport.node", pid=pid, instance=instance):
                result = asyncio.run(drive())
    finally:
        record = _node_record(spec, instance, pid, node)
        if trace_path:
            tracer.event(
                "transport.node.decision",
                pid=pid, decided=record["decided"],
                decision=record["decision"], rounds=record["rounds"],
                completed=record["completed"],
                delta_used=record["delta_used"],
            )
            write_jsonl(trace_path, tracer, node._result().metrics,
                        collector=collector, run_id=f"{instance}-n{pid}")
        if emit is not None:
            emit(record)
        if server is not None and linger > 0:
            time.sleep(linger)
        if server is not None:
            server.shutdown()
    record["rounds"] = int(result.rounds)
    return record


def _node_record(
    spec: RunSpec, instance: str, pid: int, node: LiveNode
) -> dict[str, Any]:
    """The one-line JSON decision record ``repro node`` prints."""
    decided = node.ctx.decided
    decision = node.ctx.decision
    if decision is not None and hasattr(decision, "tolist"):
        decision = decision.tolist()
    elif isinstance(decision, tuple):
        decision = list(decision)
    delta_used = getattr(node.process, "delta_used", None)
    live = {
        name: int(metric["value"])
        for name, metric in node._result().metrics.snapshot().items()
        if name.startswith("net.live.") and metric.get("type") == "counter"
    }
    return {
        "schema": "repro.transport.decision/1",
        "instance": instance,
        "algorithm": spec.algorithm,
        "node": pid,
        "decided": bool(decided),
        "decision": decision if decided else None,
        "delta_used": None if delta_used is None else float(delta_used),
        "rounds": int(node.rounds_done),
        "completed": bool(node.completed),
        "messages_sent": int(node.stats.messages_sent),
        "messages_delivered": int(node.stats.messages_delivered),
        "live": live,
    }


# ---------------------------------------------------------------------------
# the local launcher
# ---------------------------------------------------------------------------


def _judge_records(
    spec: RunSpec, records: list[Optional[dict[str, Any]]], errors: list[str]
) -> dict[str, Any]:
    """The launch verdict over the nodes' decision records.

    Live runs are honest, so every input is a correct input and every
    node a correct process; :func:`~repro.core.runner.check_run` judges
    the decisions exactly as it judges a simulated run.
    """
    good = [r for r in records if r is not None]
    decided = [r for r in good if r.get("decided")]
    decisions = {
        int(r["node"]): np.atleast_1d(np.asarray(r["decision"], dtype=float))
        for r in decided
    }
    terminated = (
        not errors
        and len(decided) == spec.n
        and all(r.get("completed") for r in good)
    )
    report, problem, _, delta_used = check_run(
        spec, spec.resolved_inputs(), decisions,
        [r.get("delta_used") for r in good], terminated=terminated,
    )
    return {
        "ok": report.ok,
        "decided_nodes": len(decided),
        "agreement_ok": report.agreement_ok,
        "validity_ok": report.validity_ok,
        "termination_ok": report.termination_ok,
        "agreement_spread": report.agreement_diameter,
        "agreement_tolerance": problem.agreement_tolerance,
        "violations": {str(pid): v for pid, v in report.violations.items()},
        "delta_used": delta_used,
    }


def launch_local(
    spec: RunSpec,
    *,
    workdir: Optional[str] = None,
    timeout: float = 120.0,
    metrics_port: Optional[int] = None,
    linger: float = 0.0,
    trace_dir: Optional[str] = None,
    python: str = sys.executable,
) -> dict[str, Any]:
    """Spawn an ``spec.n``-subprocess cluster; collect and judge the
    decisions.

    Returns a launch report.  ``ok`` holds when every node decided and
    completed, :func:`~repro.core.runner.check_run` accepts the
    decisions (agreement and validity under the algorithm's problem
    spec), and, when trails were collected, the stitched fleet evidence
    is complete and every post-hoc probe is clean.

    ``metrics_port`` is a *base* port: node ``pid`` serves ``/metrics``
    on ``metrics_port + pid`` (every node, not just node 0), and the
    report records each node's scrape address under
    ``metrics_addresses``.  ``trace_dir`` collects one causal-traced
    JSONL trail per node and folds a ``fleet`` block (stitch report +
    probe verdicts) into the launch report.
    """
    kind = _live_kind(spec)
    assert spec.n is not None
    n = spec.n
    # A spec the builder refuses (say, a broadcast the algorithm lacks)
    # fails here, once, instead of in n node processes.
    _node_process(spec, 0)
    owned_tmp: Optional[tempfile.TemporaryDirectory] = None
    if workdir is None:
        owned_tmp = tempfile.TemporaryDirectory(prefix="repro-launch-")
        workdir = owned_tmp.name
    try:
        doc = build_topology(
            spec, allocate_addresses(n, kind, base_dir=workdir)
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

        verdict = _judge_records(spec, records, errors)
        fleet_block = _fleet_block(trace_dir) if trace_dir else None
        if fleet_block is not None and not fleet_block.get("ok", False):
            verdict["ok"] = False
        return {
            "schema": "repro.transport.launch-report/1",
            "instance": doc["instance"],
            "algorithm": spec.algorithm,
            "kind": kind,
            "n": n,
            "d": spec.d,
            "f": spec.f,
            "seed": spec.seed,
            **verdict,
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
