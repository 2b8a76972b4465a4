"""The benchmark's workloads: what runs, on which seeds, and its checks.

Each workload is a sequence of consensus runs issued closed-loop by one
client: the next run starts when the previous one returns.  Run ``i`` of
a workload gets its own seed, derived from the workload seed, a phase
label and ``i``, so no two runs share inputs.  That matters because the
geometry cache keys on exact input bytes: a repeated seed would be
served from the cache.  The phases (``timed``, ``setup``, ``check``)
derive disjoint seeds, so warm-up and check runs never warm the cache
for a timed run.

Simulator workloads go through ``repro.exec.run_trial``, the live one
through ``repro.core.run``; both are looked up on their modules at call
time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Optional

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import repro  # noqa: E402
import repro.core as rcore  # noqa: E402
import repro.exec as rexec  # noqa: E402
from repro.core.runspec import RunSpec  # noqa: E402
from repro.geometry.cache import cache_stats, clear_cache  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from tracing import LIVE_COUNTERS, Tracer, layer_metrics  # noqa: E402

if not Path(repro.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"repro imported from {repro.__file__}, not from {SRC}")

__all__ = ["RunRecord", "WORKLOADS", "Workload", "derive_seed", "digest",
           "execute", "known_defect", "load_expected", "traced_pass"]

#: Adversaries from ``repro.exec.ADVERSARIES``, cycled in this order.
ADVERSARY_CYCLE = ("none", "silent", "mutate", "equivocate")


def derive_seed(workload: str, phase: str, base: int, index: int) -> int:
    """Seed of run ``index`` of ``workload`` in ``phase``."""
    key = f"perfbench|{workload}|{phase}|{base}|{index}"
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "little")


@dataclass
class RunRecord:
    """What one consensus run produced, in plain data."""

    label: str
    seed: int
    ok: bool
    verdict: tuple[bool, bool, bool]
    decisions: tuple[tuple[int, tuple[str, ...]], ...]
    messages: int
    bytes: int
    wall: float
    live_counters: dict[str, int]
    error: Optional[str] = None

    def identity(self) -> str:
        """Decisions as ``float.hex`` plus verdicts, for the digest."""
        verdict = "".join("1" if v else "0" for v in self.verdict)
        return f"{self.label}|{verdict}|{json.dumps(self.decisions)}"


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``(index, seed) -> spec``: a TrialSpec (sim) or RunSpec (live).
    spec: Callable[[int, int], Any]
    sim: bool
    #: Runs per cycle of the workload's spec pattern.
    cycle: int
    #: Runs of the fixed check set, which also warms the process up; its
    #: decisions digest is recorded for the simulator workloads.
    check_runs: int
    #: Timed runs per measured second, sized so that the timed loop takes
    #: about ``--seconds`` on a 2-core 2.1 GHz VM.  The count is fixed by
    #: ``--seconds`` rather than by the clock, so that a seed always gives
    #: the same runs, and so the same ``attempted`` and ``failed``.
    timed_runs_per_s: float
    #: Traced-mode runs per measured second, sized so that the untraced
    #: and traced passes together take about ``--seconds`` on that VM.
    trace_runs_per_s: float

    def timed_runs(self, seconds: float, minimum: int) -> int:
        runs = max(minimum, seconds * self.timed_runs_per_s)
        return -(-round(runs) // self.cycle) * self.cycle

    def trace_runs(self, seconds: float) -> int:
        cycles = max(1, round(seconds * self.trace_runs_per_s / self.cycle))
        return cycles * self.cycle


def _rva(index: int, seed: int) -> Any:
    return rexec.TrialSpec(
        index=index, algorithm="averaging", n=8, d=2, f=1,
        adversary=ADVERSARY_CYCLE[index % 4], rep=index, seed=seed,
        epsilon=0.05,
    )


def _geom(index: int, seed: int) -> Any:
    return rexec.TrialSpec(
        index=index, algorithm=("algo", "exact")[index % 2], n=10, d=4, f=1,
        adversary=ADVERSARY_CYCLE[(index // 2) % 4], rep=index, seed=seed,
        epsilon=0.05,
    )


def _live(index: int, seed: int) -> Any:
    return RunSpec(algorithm="averaging", n=4, d=2, f=1, epsilon=0.05,
                   transport="live-uds", seed=seed)


#: Why each workload exists is recorded in BENCHMARK.json and, at more
#: length, in expected.json.
WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload("async-rva", _rva, sim=True, cycle=4, check_runs=4,
                 timed_runs_per_s=3.0, trace_runs_per_s=1.4),
        Workload("sync-geom", _geom, sim=True, cycle=8, check_runs=8,
                 timed_runs_per_s=15.0, trace_runs_per_s=6.4),
        Workload("live-uds", _live, sim=False, cycle=1, check_runs=1,
                 timed_runs_per_s=6.5, trace_runs_per_s=3.0),
    )
}


def execute(workload: Workload, index: int, seed: int) -> RunRecord:
    """Run one consensus execution; failures come back as records."""
    spec = workload.spec(index, seed)
    label = (f"{spec.algorithm}/{spec.adversary}" if workload.sim
             else spec.algorithm)
    start = time.perf_counter()
    try:
        if workload.sim:
            trial = rexec.run_trial(spec)
            wall = time.perf_counter() - start
            return RunRecord(
                label, seed, trial.ok,
                (trial.agreement_ok, trial.validity_ok, trial.termination_ok),
                trial.decisions, trial.messages, trial.bytes_estimate, wall,
                {},
            )
        registry = MetricsRegistry()
        outcome = rcore.run(replace(spec, metrics=registry))
        wall = time.perf_counter() - start
    except Exception as exc:  # a raising run is counted, not fatal
        wall = time.perf_counter() - start
        return RunRecord(label, seed, False, (False, False, False), (), 0, 0,
                         wall, {}, error=f"{type(exc).__name__}: {exc}")
    report = outcome.report
    stats = outcome.result.stats
    return RunRecord(
        label, seed, outcome.ok,
        (report.agreement_ok, report.validity_ok, report.termination_ok),
        rexec.decisions_to_hex(outcome.decisions),
        int(stats.messages_sent), int(stats.bytes_estimate), wall,
        {name: registry.counter_value(f"net.live.{name}")
         for name in LIVE_COUNTERS},
    )


def digest(records: list[RunRecord]) -> str:
    """SHA-256 over every record's decisions and verdicts, in run order."""
    h = hashlib.sha256()
    for record in records:
        h.update(record.identity().encode())
        h.update(b"\n")
    return h.hexdigest()


def load_expected() -> dict[str, Any]:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def known_defect(workload: Workload, index: int, record: RunRecord,
                 defects: list[dict[str, Any]]) -> Optional[str]:
    """Id of the recorded defect that explains a failed run, if any.

    The run is repeated through ``repro.core.run`` (simulator runs are
    deterministic) to read the oracle's violation distances, which the
    trial record does not carry.
    """
    if not workload.sim or record.error is not None:
        return None
    spec = workload.spec(index, record.seed)
    for defect in defects:
        if defect["workload"] != workload.name:
            continue
        if spec.algorithm != defect["algorithm"]:
            continue
        outcome = rcore.run(rexec.build_runspec(spec))
        report = outcome.report
        if not (report.agreement_ok and report.termination_ok
                and not report.validity_ok):
            continue
        if "delta_used" in defect and outcome.delta_used != defect["delta_used"]:
            continue
        worst = max(report.violations.values())
        if defect["tolerance"] < worst <= defect["max_violation"]:
            return str(defect["id"])
    return None


def traced_pass(workload: Workload, seeds: list[int]) -> tuple[
        dict[str, Any], list[RunRecord], list[RunRecord], Tracer]:
    """Run ``seeds`` untraced, then traced; both from a cleared cache.

    Returns the per-layer metrics, the untraced and traced records, and
    the tracer.
    """
    clear_cache()
    plain = [execute(workload, i, s) for i, s in enumerate(seeds)]
    clear_cache()
    before = cache_stats()
    with Tracer() as tracer:
        traced = [execute(workload, i, s) for i, s in enumerate(seeds)]
    after = cache_stats()
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    metrics = layer_metrics(tracer, traced, plain, hits, lookups)
    return metrics, plain, traced, tracer
