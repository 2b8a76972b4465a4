"""Tests of the benchmark's own instruments.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import selectors
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

#: Per-layer metrics that time the run (or the tracer) rather than
#: count its work.
TIMINGS = ("ms",)
NOT_COUNTS = ("trace.attributed_share", "trace.overhead_ratio")


def _traced(workload: wl.Workload, base: int) -> tuple[dict, tracing.Tracer]:
    seeds = [wl.derive_seed(workload.name, "test", base, i)
             for i in range(workload.cycle)]
    metrics, _, traced, tracer = wl.traced_pass(workload, seeds)
    assert all(r.error is None for r in traced)
    return metrics, tracer


def _counts(metrics: dict) -> dict:
    return {name: m["value"] for name, m in metrics.items()
            if m["unit"] not in TIMINGS and name not in NOT_COUNTS}


@pytest.mark.parametrize("name", ["async-rva", "sync-geom"])
def test_work_counts_repeat_for_a_seed_and_change_with_it(name):
    workload = wl.WORKLOADS[name]
    first, tracer = _traced(workload, 1)
    again, _ = _traced(workload, 1)
    other, _ = _traced(workload, 2)
    assert _counts(first) == _counts(again)
    assert _counts(first) != _counts(other)
    # Self times partition the root spans: nothing is counted twice or lost.
    total = sum(tracer.self_s.values())
    assert total == pytest.approx(tracer.inclusive_s["exec"], rel=1e-9)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert {k: m["unit"] for k, m in first.items()} == declared


def test_tracer_restores_every_wrapped_callable():
    import repro.exec
    import repro.geometry.minimax as minimax
    from repro.system.network import Network

    def current() -> tuple:
        return (repro.exec.run_trial, repro.exec.engine.run_trial,
                minimax.linprog, minimax.delta_star, Network.submit,
                selectors.DefaultSelector.select)

    before = current()
    with tracing.Tracer():
        assert all(a is not b for a, b in zip(current(), before))
    assert all(a is b for a, b in zip(current(), before))


def test_host_speed_scale_uses_the_references_around_each_run():
    nominal = hostspeed.NOMINAL_S
    assert hostspeed.scales([2 * nominal, 2 * nominal, nominal]) == [
        pytest.approx(0.5), pytest.approx(2 / 3)]
    assert hostspeed.reference() > 0
