"""Sim-vs-live conformance: the same specs decide on both backends.

Honest runs of the four headline algorithms execute over real loopback
sockets (``transport="live-uds"``, plus one TCP case) with the validity
envelope probe attached, and must reach decisions the probe accepts.
``SimTransport`` must stay bit-identical to the committed sweep digest.
Live runs are real concurrency — the assertions here are about protocol
outcomes (agreement, validity, termination), never about schedules.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core import RunSpec, run
from repro.core.exact_bvc import ExactBVCProcess
from repro.core.runner import _ALGORITHMS
from repro.exec import (
    SweepGrid,
    build_topology,
    launch_local,
    load_topology,
    run_grid,
    write_topology,
)
from repro.exec.live_launch import _node_process, allocate_addresses
from repro.system.adversary import Adversary, SilentStrategy
from repro.system.topology import ring_lattice_topology
from repro.system.transport.base import (
    TransportError,
    get_transport,
    transport_names,
)
from repro.system.transport.live import LiveTransport, node_seeds

REPO = Path(__file__).resolve().parents[3]


class TestRegistry:
    def test_shipped_backends(self):
        assert transport_names() == ("live-tcp", "live-uds", "sim")

    def test_unknown_name_is_value_error_with_choices(self):
        with pytest.raises(ValueError, match="choices"):
            get_transport("carrier-pigeon")

    def test_determinism_flags(self):
        assert get_transport("sim").deterministic
        assert not get_transport("live-tcp").deterministic
        assert not get_transport("live-uds").deterministic

    def test_backend_names_self_identify(self):
        for name in transport_names():
            assert get_transport(name).name == name


#: (algorithm, spec knobs) — sizes span 4..7 nodes per the acceptance
#: criteria; exact uses d=2 so n=5 clears its (d+1)f+1 floor.
LIVE_CASES = [
    ("exact", dict(n=5, d=2, f=1)),
    ("algo", dict(n=4, d=3, f=1, p=2.0)),
    ("krelaxed", dict(n=6, d=4, f=1, k=1)),
    ("averaging", dict(n=7, d=2, f=2, epsilon=5e-2)),
]


class TestLiveConformance:
    @pytest.mark.parametrize(
        "algorithm,knobs", LIVE_CASES, ids=[c[0] for c in LIVE_CASES]
    )
    def test_honest_decision_over_uds(self, algorithm, knobs):
        outcome = run(
            RunSpec(
                algorithm=algorithm,
                seed=7,
                transport="live-uds",
                probes=("validity",),
                **knobs,
            )
        )
        assert outcome.result.completed
        assert outcome.ok, outcome.report
        assert outcome.probe_violations == 0
        report = outcome.probe_reports[0]
        assert report.name == "validity" and report.checks > 0

    def test_honest_decision_over_tcp(self):
        outcome = run(
            RunSpec(
                algorithm="algo", n=4, d=2, f=1, seed=11,
                transport="live-tcp", probes=("validity",),
            )
        )
        assert outcome.result.completed and outcome.ok
        assert outcome.result.metrics.counter_value("net.live.handshakes") > 0

    def test_live_matches_sim_verdicts(self):
        # Live schedules differ from simulated ones, so decisions need
        # not match bit-for-bit — but both backends must satisfy the
        # same correctness envelope on the same inputs.
        spec = RunSpec(algorithm="exact", n=5, d=2, f=1, seed=3)
        sim = run(spec)
        live = run(
            RunSpec(algorithm="exact", n=5, d=2, f=1, seed=3,
                    transport="live-uds")
        )
        assert sim.ok and live.ok
        np.testing.assert_array_equal(sim.honest_inputs, live.honest_inputs)

    def test_disconnect_survival(self):
        # Force node 0 to drop its link to node 1 mid-run; the run must
        # still decide, riding the reconnect + retransmission path.
        transport = LiveTransport(
            kind="uds", chaos_drop_link=(0, 1), chaos_drop_after=2
        )
        n, f, d = 5, 1, 2
        inputs = np.random.default_rng(5).normal(size=(n, d))
        processes = [
            ExactBVCProcess(n, f, pid, inputs[pid]) for pid in range(n)
        ]
        result = transport.run_sync(processes, f, seed=5)
        assert result.completed
        decisions = list(result.decisions.values())
        assert len(decisions) == n
        for vec in decisions[1:]:
            np.testing.assert_array_equal(vec, decisions[0])
        assert result.metrics.counter_value("net.live.chaos_closes") == 1
        assert result.metrics.counter_value("net.live.reconnects") >= 1


class TestLiveRejections:
    def test_adversary_requires_simulator(self):
        with pytest.raises(TransportError, match="honest"):
            run(
                RunSpec(
                    algorithm="algo", n=4, d=2, f=1,
                    adversary=Adversary(faulty=[3], strategy=SilentStrategy()),
                    transport="live-uds",
                )
            )

    def test_incomplete_topology_requires_simulator(self):
        n, f = 6, 1
        inputs = np.zeros((n, 2))
        processes = [
            ExactBVCProcess(n, f, pid, inputs[pid]) for pid in range(n)
        ]
        with pytest.raises(TransportError, match="complete graph"):
            LiveTransport(kind="uds").run_sync(
                processes, f, topology=ring_lattice_topology(n, 1)
            )

    def test_delivery_policy_requires_simulator(self):
        from repro.system.scheduler import FifoPolicy

        with pytest.raises(TransportError, match="simulator"):
            LiveTransport(kind="uds").run_async([], 0, policy=FifoPolicy())


class TestSimDigest:
    def test_sim_transport_reproduces_committed_sweep_digest(self):
        # The whole sweep engine now routes through SimTransport; the
        # decision digest pinned by BENCH_sweep.json must be unchanged.
        doc = json.loads((REPO / "BENCH_sweep.json").read_text())
        grid = doc["grid"]
        result = run_grid(
            SweepGrid(
                algorithms=tuple(grid["algorithms"]),
                dimensions=tuple(grid["dimensions"]),
                faults=tuple(grid["faults"]),
                sizes=tuple(grid["sizes"]),
                adversaries=tuple(grid["adversaries"]),
                reps=int(grid["reps"]),
                base_seed=int(grid["base_seed"]),
                p=float(grid["p"]),
                k=int(grid["k"]),
                epsilon=float(grid["epsilon"]),
                input_scale=float(grid["input_scale"]),
            )
        )
        assert result.decisions_digest() == doc["decisions_digest"]["serial"]

    def test_sim_runs_are_repeatable(self):
        spec = RunSpec(algorithm="krelaxed", n=6, d=3, f=1, seed=9)
        a, b = run(spec), run(spec)
        for pid in a.decisions:
            np.testing.assert_array_equal(a.decisions[pid], b.decisions[pid])


class TestNodeSeeds:
    def test_every_node_derives_the_same_table(self):
        assert node_seeds(42, 5) == node_seeds(42, 5)
        assert node_seeds(42, 5) != node_seeds(43, 5)
        assert len(set(node_seeds(0, 7))) == 7


def live_spec(algorithm: str, n: int, d: int, f: int, **knobs) -> RunSpec:
    return RunSpec(
        algorithm=algorithm, n=n, d=d, f=f, transport="live-uds", **knobs
    )


def same_state(a, b, depth: int = 0) -> bool:
    """Attribute-by-attribute equality of two freshly built objects."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(
            same_state(x, y, depth + 1) for x, y in zip(a, b)
        )
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(
            same_state(a[k], b[k], depth + 1) for k in a
        )
    if hasattr(a, "__dict__") and depth < 6:
        return same_state(vars(a), vars(b), depth + 1)
    return a == b


#: One live spec per algorithm (n at each algorithm's floor or above).
BUILD_CASES = [
    ("exact", dict(n=5, d=2, f=1, broadcast="dolev-strong")),
    ("algo", dict(n=4, d=2, f=1, broadcast="dolev-strong")),
    ("krelaxed", dict(n=4, d=3, f=1, k=1)),
    ("scalar", dict(n=4, d=1, f=1)),
    ("iterative", dict(n=5, d=2, f=1)),
    ("averaging", dict(n=4, d=2, f=1, epsilon=5e-2)),
]


class TestTopologyFiles:
    def _nodes(self, tmp_path, n):
        return allocate_addresses(n, "uds", base_dir=str(tmp_path))

    def test_round_trip(self, tmp_path):
        spec = live_spec("averaging", 4, 2, 1, seed=3)
        doc = build_topology(spec, self._nodes(tmp_path, 4))
        assert doc["schema"] == "repro.transport.topology/2"
        assert doc["spec"]["transport"] == "live-uds"
        path = tmp_path / "topology.json"
        write_topology(path, doc)
        assert load_topology(path) == doc
        assert RunSpec(**doc["spec"]).describe() == spec.describe()

    @pytest.mark.parametrize(
        "algorithm,knobs", BUILD_CASES, ids=[c[0] for c in BUILD_CASES]
    )
    def test_node_process_is_the_runner_builders(
        self, tmp_path, algorithm, knobs
    ):
        # Every node builds its process from the reloaded document with
        # the runner's own builder: inputs, round budgets and the
        # Dolev–Strong key table match a simulated run of the same spec.
        spec = live_spec(algorithm, seed=5, **knobs)
        doc = build_topology(spec, self._nodes(tmp_path, spec.n))
        path = tmp_path / "topology.json"
        write_topology(path, doc)
        loaded = RunSpec(**load_topology(path)["spec"])
        sim = replace(spec, transport="sim")
        build = _ALGORITHMS[algorithm][0]
        procs, schedule = build(
            sim, sim.resolved_inputs(), Adversary.none(),
            np.random.default_rng(sim.seed),
        )
        for pid in range(spec.n):
            process, caps = _node_process(loaded, pid)
            assert same_state(process, procs[pid]), (algorithm, pid)
            assert caps == {
                k: v for k, v in schedule.items()
                if k in ("max_rounds", "max_steps")
            }
        if knobs.get("broadcast") == "dolev-strong":
            schemes = {
                id(inst.scheme) for inst in process.instances.values()
            }
            assert len(schemes) == 1
            (inst, *_) = process.instances.values()
            (ref, *_) = procs[0].instances.values()
            assert inst.scheme._secrets == ref.scheme._secrets

    def test_build_validation(self, tmp_path):
        nodes = self._nodes(tmp_path, 4)
        with pytest.raises(ValueError, match="unknown algorithm"):
            live_spec("nope", 4, 2, 1)
        with pytest.raises(ValueError, match="live-tcp or live-uds"):
            build_topology(RunSpec(algorithm="algo", n=4, d=2, f=1), nodes)
        with pytest.raises(ValueError, match="scalar"):
            live_spec("scalar", 4, 2, 1)
        with pytest.raises(ValueError, match="n >="):
            build_topology(live_spec("exact", 4, 3, 1), nodes)
        with pytest.raises(ValueError, match="node addresses"):
            build_topology(live_spec("algo", 4, 2, 1), nodes[:3])

    @pytest.mark.parametrize(
        "field,value",
        [
            ("adversary", Adversary(faulty=[3])),
            ("policy", "fifo"),
            ("topology", "ring"),
            ("inputs", np.zeros((4, 2))),
            ("probes", ("validity",)),
            ("metrics", "registry"),
        ],
    )
    def test_sim_only_fields_rejected(self, tmp_path, field, value):
        spec = replace(live_spec("algo", 4, 2, 1), **{field: value})
        if field == "inputs":
            spec = live_spec("algo", 4, 2, 1).with_inputs(value)
        with pytest.raises(ValueError, match=field):
            build_topology(spec, self._nodes(tmp_path, 4))

    def test_load_rejects_tampered_docs(self, tmp_path):
        doc = build_topology(
            live_spec("algo", 4, 2, 1), self._nodes(tmp_path, 4)
        )
        path = tmp_path / "topology.json"

        bad = dict(doc, schema="repro.transport.topology/1")
        write_topology(path, doc)  # sanity: the good doc loads
        load_topology(path)
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match="schema"):
            load_topology(path)

        missing = {k: v for k, v in doc.items() if k != "nodes"}
        path.write_text(json.dumps(missing))
        with pytest.raises(ValueError, match="nodes"):
            load_topology(path)

        no_algorithm = dict(doc, spec={
            k: v for k, v in doc["spec"].items() if k != "algorithm"
        })
        path.write_text(json.dumps(no_algorithm))
        with pytest.raises(ValueError, match="algorithm"):
            load_topology(path)

        bad_address = dict(doc, nodes=doc["nodes"][:3])
        path.write_text(json.dumps(bad_address))
        with pytest.raises(ValueError, match="node addresses"):
            load_topology(path)

    def test_tcp_addresses_are_distinct(self):
        addrs = allocate_addresses(5, "tcp")
        ports = [a.port for a in addrs]
        assert len(set(ports)) == 5 and all(p > 0 for p in ports)


class TestLaunchVerdict:
    def test_agreeing_decisions_outside_the_hull_fail(self, tmp_path):
        # Nodes that agree on a point far outside the inputs' hull must
        # fail validity: agreement alone is not a verdict.
        fake = tmp_path / "fake-python"
        fake.write_text(
            f"#!{sys.executable}\n"
            "import json, sys\n"
            "pid = int(sys.argv[sys.argv.index('--id') + 1])\n"
            "print(json.dumps({'node': pid, 'decided': True,\n"
            "                  'completed': True, 'rounds': 1,\n"
            "                  'decision': [100.0, 100.0]}))\n"
        )
        fake.chmod(0o755)
        (tmp_path / "cluster").mkdir()
        report = launch_local(
            live_spec("exact", 5, 2, 1), workdir=str(tmp_path / "cluster"),
            python=str(fake),
        )
        assert report["decided_nodes"] == 5
        assert report["agreement_ok"] and report["agreement_spread"] == 0.0
        assert not report["validity_ok"]
        assert sorted(report["violations"]) == ["0", "1", "2", "3", "4"]
        assert report["ok"] is False

    def test_non_live_transport_rejected(self):
        with pytest.raises(ValueError, match="live-tcp or live-uds"):
            launch_local(RunSpec(algorithm="exact", n=5, d=2, f=1))
