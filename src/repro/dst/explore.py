"""Seed-driven scenario explorer: sample, run, check, record.

Every trial derives one :class:`Scenario` from the master seed, runs it
through the full protocol stack (``repro.core.run``), evaluates the
**checker registry** (agreement / validity / termination by default —
pluggable via :func:`register_checker`), and — when an invariant breaks —
records a :class:`Violation` carrying a compact replay token and a
ready-to-paste replay command.  Because a scenario is plain data, a
violation found here is already a regression test: shrink it
(:mod:`repro.dst.shrink`) and commit it to ``tests/corpus/``
(:mod:`repro.dst.corpus`).

Bug *injections* (:data:`INJECTIONS`) are deliberately broken
post-processing steps — they perturb the decision map after the run, the
way an implementation bug in a decision rule would — used to exercise and
demo the fuzz → shrink → replay loop against a stack whose real
algorithms (correctly) refuse to produce counterexamples.  The checkers
judge the perturbed map with the same :class:`~repro.core.problems.ProblemSpec`
and tolerance the run itself was checked with
(:meth:`~repro.core.runner.ConsensusOutcome.recheck`).  The live fleet
probes (``repro fleet probes --inject``) reuse the same table.
"""

from __future__ import annotations

import math
import multiprocessing
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from ..core.runner import ConsensusOutcome, run
from ..core.runspec import RunSpec
from ..obs.probes import Probe, ProbeReport, build_probes
from .scenarios import (
    FaultClause,
    Scenario,
    ScheduleWindow,
    build_adversary,
    build_policy,
    min_system_size,
)

__all__ = [
    "ALGORITHM_NAMES",
    "AVERAGING_EPSILON",
    "CHECKERS",
    "INJECTIONS",
    "ExplorationResult",
    "Violation",
    "apply_injection",
    "explore",
    "register_checker",
    "run_scenario",
    "sample_scenario",
]

#: The four consensus algorithms under test.
ALGORITHM_NAMES = ("exact", "algo", "k1", "averaging")

#: ε-agreement target of the asynchronous algorithm in exploration: loose
#: enough that the default round estimate converges in a few rounds.
AVERAGING_EPSILON = 5e-2


def _run_for(
    scenario: Scenario, probes: Sequence[Probe] = ()
) -> ConsensusOutcome:
    inputs = scenario.inputs()
    adversary = build_adversary(scenario)
    if scenario.algorithm == "averaging":
        return run(RunSpec(
            algorithm="averaging",
            inputs=inputs,
            f=scenario.f,
            adversary=adversary,
            epsilon=AVERAGING_EPSILON,
            policy=build_policy(scenario),
            seed=scenario.seed,
            probes=tuple(probes),
        ))
    # The explorer's "k1" is k-relaxed consensus at k=1.
    algorithm = "krelaxed" if scenario.algorithm == "k1" else scenario.algorithm
    return run(RunSpec(
        algorithm=algorithm,
        inputs=inputs,
        f=scenario.f,
        adversary=adversary,
        seed=scenario.seed,
        probes=tuple(probes),
    ))


def _scenario_probes(scenario: Scenario, names: Sequence[str]) -> list[Probe]:
    """Build probe *objects* for a scenario (we keep the references so the
    post-injection decision map can be pushed back through them)."""
    algorithm = "krelaxed" if scenario.algorithm == "k1" else scenario.algorithm
    return build_probes(
        list(names),
        algorithm=algorithm,
        k=1,
        epsilon=AVERAGING_EPSILON if algorithm == "averaging" else None,
    )


# ---------------------------------------------------------------------------
# checker registry
# ---------------------------------------------------------------------------

#: A checker inspects one finished run and returns a human-readable
#: violation detail, or None when its invariant holds.  ``decisions`` is
#: the (possibly injection-perturbed) correct-process decision map the
#: invariants are evaluated on; the outcome handed to a checker carries
#: that map and its re-checked ``report``.
CheckerFn = Callable[
    [Scenario, ConsensusOutcome, Mapping[int, np.ndarray]], Optional[str]
]

CHECKERS: dict[str, CheckerFn] = {}


def register_checker(name: str) -> Callable[[CheckerFn], CheckerFn]:
    """Decorator: add an invariant checker under ``name``."""

    def deco(fn: CheckerFn) -> CheckerFn:
        CHECKERS[name] = fn
        return fn

    return deco


@register_checker("agreement")
def _check_agreement(
    scenario: Scenario,
    outcome: ConsensusOutcome,
    decisions: Mapping[int, np.ndarray],
) -> Optional[str]:
    if outcome.report.agreement_ok:
        return None
    return (
        f"decision diameter {outcome.report.agreement_diameter:.6g} breaks "
        f"{type(outcome.problem).__name__} agreement"
    )


@register_checker("validity")
def _check_validity(
    scenario: Scenario,
    outcome: ConsensusOutcome,
    decisions: Mapping[int, np.ndarray],
) -> Optional[str]:
    if outcome.report.validity_ok:
        return None
    worst = max(outcome.report.violations.values(), default=0.0)
    return f"{len(outcome.report.violations)} decisions outside the valid set (worst {worst:.6g})"


@register_checker("termination")
def _check_termination(
    scenario: Scenario,
    outcome: ConsensusOutcome,
    decisions: Mapping[int, np.ndarray],
) -> Optional[str]:
    if outcome.report.termination_ok:
        return None
    return f"run ended after {outcome.result.rounds} rounds/steps without all correct decisions"


# ---------------------------------------------------------------------------
# bug injections (demo/test instrumentation)
# ---------------------------------------------------------------------------

#: fn(decisions, input_scale, d) -> perturbed decisions (a copy).
InjectionFn = Callable[
    [Mapping[int, np.ndarray], float, int], dict[int, np.ndarray]
]

#: name -> injection; shared by the explorer and the live fleet probes.
INJECTIONS: dict[str, InjectionFn] = {}


def _register_injection(name: str) -> Callable[[InjectionFn], InjectionFn]:
    def deco(fn: InjectionFn) -> InjectionFn:
        INJECTIONS[name] = fn
        return fn

    return deco


@_register_injection("split-brain")
def _inject_split_brain(
    decisions: Mapping[int, np.ndarray], input_scale: float, d: int
) -> dict[int, np.ndarray]:
    """One process 'decides' an offset value — a broken decision rule."""
    out = {pid: np.array(v, dtype=float, copy=True) for pid, v in decisions.items()}
    if out:
        pid = min(out)
        out[pid] = out[pid] + 10.0 * input_scale
    return out


@_register_injection("stale-echo")
def _inject_stale_echo(
    decisions: Mapping[int, np.ndarray], input_scale: float, d: int
) -> dict[int, np.ndarray]:
    """Two processes swap halves of their decisions — a buffer-reuse bug."""
    out = {pid: np.array(v, dtype=float, copy=True) for pid, v in decisions.items()}
    pids = sorted(out)
    if len(pids) >= 2:
        a, b = pids[0], pids[1]
        half = max(1, d // 2)
        out[a][:half], out[b][:half] = out[b][:half].copy(), out[a][:half].copy()
        out[a][:half] += input_scale
    return out


def apply_injection(
    name: str, decisions: Mapping[int, np.ndarray], input_scale: float, d: int
) -> dict[int, np.ndarray]:
    """Perturbed copy of ``decisions`` under the injection ``name``."""
    if name not in INJECTIONS:
        raise ValueError(
            f"unknown injection {name!r}; choices {sorted(INJECTIONS)}"
        )
    return INJECTIONS[name](decisions, input_scale, d)


# ---------------------------------------------------------------------------
# running + recording
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExplorationResult:
    """One executed scenario with its verdicts."""

    scenario: Scenario
    outcome: ConsensusOutcome
    #: checker name -> violation detail, for every checker that failed.
    violations: dict[str, str]
    #: online probe reports (empty unless ``run_scenario(..., probes=...)``),
    #: re-generated after any injection so injected decisions count.
    probe_reports: tuple[ProbeReport, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def probe_violations(self) -> int:
        """Total online probe violations (including post-injection checks)."""
        return sum(len(r.violations) for r in self.probe_reports)

    @property
    def invariant(self) -> Optional[str]:
        """First violated invariant in registry order (None when ok)."""
        for name in CHECKERS:
            if name in self.violations:
                return name
        return next(iter(self.violations), None)


@dataclass(frozen=True)
class Violation:
    """An invariant violation, replayable from its token alone."""

    scenario: Scenario
    invariant: str
    detail: str
    token: str
    agreement_ok: bool
    validity_ok: bool
    termination_ok: bool

    @property
    def replay_command(self) -> str:
        """Ready-to-paste CLI command reproducing this violation."""
        return f"python -m repro replay --token {self.token}"

    @property
    def shrink_command(self) -> str:
        return f"python -m repro shrink --token {self.token}"

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        s = self.scenario
        return (
            f"[{s.algorithm}] {self.invariant}: {self.detail} "
            f"(n={s.n} d={s.d} f={s.f} seed={s.seed} "
            f"faults={s.strategy_label()})\n  replay: {self.replay_command}"
        )


def run_scenario(
    scenario: Scenario,
    *,
    checkers: Optional[Mapping[str, CheckerFn]] = None,
    probes: Sequence[Union[str, Probe]] = (),
) -> ExplorationResult:
    """Execute one scenario and evaluate every registered invariant.

    ``probes`` enables online invariant probes for the run: names from
    :data:`repro.obs.probes.PROBE_NAMES` (or ``"all"``), or pre-built
    :class:`~repro.obs.probes.Probe` objects.  After any bug injection
    the perturbed decision map is pushed back through every probe
    (``check_decisions``), so an injected split-brain shows up as an
    online ``agreement`` probe violation, not only as a checker verdict.
    """
    scenario.validate()
    probe_objs: list[Probe] = []
    if probes:
        probe_objs = [p for p in probes if not isinstance(p, str)]
        probe_objs += _scenario_probes(
            scenario, [p for p in probes if isinstance(p, str)]
        )
    outcome = _run_for(scenario, probe_objs)
    judged = outcome
    if scenario.inject is not None:
        decisions = apply_injection(
            scenario.inject, outcome.decisions, scenario.input_scale,
            scenario.d,
        )
        judged = replace(
            outcome, decisions=decisions, report=outcome.recheck(decisions)
        )
        for probe in probe_objs:
            probe.check_decisions(
                decisions, outcome.honest_inputs,
                time=int(outcome.result.rounds),
            )
    active = dict(checkers) if checkers is not None else CHECKERS
    violations = {}
    for name, fn in active.items():
        detail = fn(scenario, judged, judged.decisions)
        if detail is not None:
            violations[name] = detail
    return ExplorationResult(
        scenario=scenario, outcome=outcome, violations=violations,
        probe_reports=tuple(probe.report() for probe in probe_objs),
    )


def violation_from(result: ExplorationResult) -> Violation:
    """Package a failed run as a :class:`Violation` (token included)."""
    from .corpus import encode_token  # local import: corpus imports explore

    assert result.violations, "no invariant violated"
    invariant = result.invariant
    report = result.outcome.report
    return Violation(
        scenario=result.scenario,
        invariant=invariant or "unknown",
        detail=result.violations.get(invariant or "", ""),
        token=encode_token(result.scenario),
        agreement_ok="agreement" not in result.violations and report.agreement_ok,
        validity_ok="validity" not in result.violations and report.validity_ok,
        termination_ok="termination" not in result.violations
        and report.termination_ok,
    )


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _sample_shape(rng: np.random.Generator, algorithm: str) -> tuple[int, int, int]:
    """Sample a legal (n, d, f), biased toward the resilience boundary."""
    f = 1
    if algorithm == "exact":
        d = int(rng.integers(1, 4))
    elif algorithm in ("algo", "averaging"):
        d = int(rng.integers(2, 5))
    else:  # k1
        d = int(rng.integers(1, 6))
    n = min_system_size(algorithm, d, f) + int(rng.integers(0, 2))
    return n, d, f


def _sample_faults(
    rng: np.random.Generator, n: int, f: int, horizon: int
) -> tuple[FaultClause, ...]:
    """Sample a fault script: corrupt set + windowed, possibly switching kinds."""
    count = int(rng.integers(0, f + 1))
    pids = sorted(rng.choice(n, size=count, replace=False).tolist())
    clauses: list[FaultClause] = []
    kinds = ("silent", "mutate", "equivocate", "duplicate", "drop", "honest")
    for pid in pids:
        segments = int(rng.integers(1, 3))
        start = 0
        for i in range(segments):
            kind = str(rng.choice(kinds))
            if kind == "drop":
                param = float(rng.uniform(0.2, 1.0))
            elif kind == "duplicate":
                param = float(rng.integers(2, 4))
            else:
                param = float(rng.uniform(0.5, 100.0))
            last = i == segments - 1
            end = None if last else int(start + rng.integers(1, max(2, horizon // 2)))
            clauses.append(
                FaultClause(pid=pid, kind=kind, start=start, end=end, param=param)
            )
            start = end if end is not None else start
    return tuple(clauses)


def _sample_schedule(
    rng: np.random.Generator, n: int
) -> tuple[ScheduleWindow, ...]:
    """Sample 0-2 delivery windows for an async run."""
    windows: list[ScheduleWindow] = []
    for _ in range(int(rng.integers(0, 3))):
        kind = str(rng.choice(("partition", "delay", "fifo", "reorder")))
        start = int(rng.integers(0, 200))
        end = start + int(rng.integers(20, 400))
        if kind == "partition":
            cut = int(rng.integers(1, n))
            perm = rng.permutation(n).tolist()
            groups = (tuple(sorted(perm[:cut])), tuple(sorted(perm[cut:])))
            windows.append(
                ScheduleWindow(kind=kind, start=start, end=end, groups=groups)
            )
        elif kind == "delay":
            k = int(rng.integers(1, max(2, n // 2)))
            victims = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
            windows.append(
                ScheduleWindow(kind=kind, start=start, end=end, victims=victims)
            )
        else:
            windows.append(ScheduleWindow(kind=kind, start=start, end=end))
    return tuple(windows)


def sample_scenario(
    rng: np.random.Generator,
    algorithm: str,
    *,
    seed: Optional[int] = None,
    input_scale: float = 3.0,
    inject: Optional[str] = None,
) -> Scenario:
    """Draw one random scenario for ``algorithm`` from ``rng``."""
    if algorithm not in ALGORITHM_NAMES:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; choices {sorted(ALGORITHM_NAMES)}"
        )
    n, d, f = _sample_shape(rng, algorithm)
    # Sync runs live for tens of rounds; async clocks tick per activation.
    horizon = 8 if algorithm != "averaging" else 40
    faults = _sample_faults(rng, n, f, horizon)
    schedule = _sample_schedule(rng, n) if algorithm == "averaging" else ()
    scen = Scenario(
        algorithm=algorithm,
        n=n,
        d=d,
        f=f,
        seed=int(seed if seed is not None else rng.integers(0, 2**31 - 1)),
        input_scale=input_scale,
        faults=faults,
        schedule=schedule,
        inject=inject,
    )
    scen.validate()
    return scen


#: Per-worker checker override, installed by the pool initializer (custom
#: checkers would otherwise have to ride along with every pickled trial).
_WORKER_CHECKERS: Optional[dict[str, CheckerFn]] = None


def _worker_init(checkers: Optional[dict[str, CheckerFn]]) -> None:
    global _WORKER_CHECKERS
    _WORKER_CHECKERS = checkers


def _explore_trial(
    item: tuple[int, Scenario],
) -> tuple[int, Optional[Violation]]:
    """Pool work unit: run one pre-sampled scenario, keep its index."""
    index, scenario = item
    result = run_scenario(scenario, checkers=_WORKER_CHECKERS)
    return index, (None if result.ok else violation_from(result))


def explore(
    algorithm: str,
    trials: int = 50,
    seed: int = 0,
    *,
    input_scale: float = 3.0,
    inject: Optional[str] = None,
    stop_on_first: bool = False,
    checkers: Optional[Mapping[str, CheckerFn]] = None,
    workers: int = 1,
) -> list[Violation]:
    """Run ``trials`` sampled scenarios; return every invariant violation.

    Deterministic in ``(algorithm, trials, seed, input_scale, inject)``:
    trial *t* always runs the same scenario, and each violation's token
    replays independently of the sweep that found it.  ``workers > 1``
    fans the trials over a process pool: the master RNG is consumed
    entirely by (serial) scenario sampling before any trial runs, and
    violations are re-ordered by trial index, so the violation list is
    identical to a serial sweep's regardless of worker count.  With
    ``stop_on_first`` a parallel sweep still runs every trial but
    returns only the first violation in trial order.

    Custom ``checkers`` reach pool workers through the pool initializer,
    which requires the ``fork`` start method: under ``spawn`` the
    initargs are pickled, and checker callables (lambdas, local
    functions) generally are not picklable.  On platforms without fork,
    ``workers > 1`` with custom checkers therefore falls back to the
    serial path with a :class:`RuntimeWarning` rather than crashing the
    pool.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    master = np.random.default_rng(seed)
    scenarios = [
        sample_scenario(master, algorithm, input_scale=input_scale,
                        inject=inject)
        for _ in range(trials)
    ]
    methods = multiprocessing.get_all_start_methods()
    serial = workers == 1 or trials == 1
    if not serial and checkers is not None and "fork" not in methods:
        warnings.warn(
            "parallel explore with custom checkers requires the 'fork' "
            "start method (spawn pickles pool initargs, and checker "
            "callables are generally not picklable); running serially",
            RuntimeWarning,
            stacklevel=2,
        )
        serial = True
    if serial:
        violations: list[Violation] = []
        for scenario in scenarios:
            result = run_scenario(scenario, checkers=checkers)
            if not result.ok:
                violations.append(violation_from(result))
                if stop_on_first:
                    break
        return violations
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    chunksize = max(1, math.ceil(trials / (workers * 4)))
    init_checkers = dict(checkers) if checkers is not None else None
    with ctx.Pool(processes=workers, initializer=_worker_init,
                  initargs=(init_checkers,)) as pool:
        pairs = list(pool.imap_unordered(
            _explore_trial, list(enumerate(scenarios)), chunksize=chunksize
        ))
    pairs.sort(key=lambda pair: pair[0])
    found = [violation for _, violation in pairs if violation is not None]
    return found[:1] if (stop_on_first and found) else found
