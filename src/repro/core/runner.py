"""The one entry point: build a system, run it, check it.

Describe the execution as a :class:`~repro.core.runspec.RunSpec` and
call :func:`run`::

    from repro.core import RunSpec, run
    out = run(RunSpec(algorithm="algo", inputs=inputs, f=1,
                      adversary=Adversary(faulty=[3])))

Every algorithm takes the same path: derive the inputs, build one
process per pid, run them on the selected transport, collect the
correct decisions, and check them exactly once against the algorithm's
problem spec.  An algorithm contributes only its process builder and
the rule that picks its :class:`~repro.core.problems.ProblemSpec` and
membership tolerance from the run (:data:`_ALGORITHMS`).  The result is
a :class:`ConsensusOutcome` bundling decisions, the checker's verdict,
and run statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional, Sequence, Union

import numpy as np

from ..obs.metrics import use_registry
from ..obs.probes import Probe, ProbeReport, build_probes
from ..obs.tracer import trace_span
from ..system.adversary import Adversary
from ..system.crypto import SignatureScheme
from ..system.process import AsyncProcess, SyncProcess
from ..system.scheduler import RunResult
from ..system.transport.base import get_transport
from .algo_sync import AlgoProcess
from .averaging import VerifiedAveragingProcess, rounds_for_epsilon
from .exact_bvc import ExactBVCProcess
from .krelaxed import KRelaxedProcess
from .problems import (
    MEMBERSHIP_TOL,
    ApproximateBVC,
    DeltaPApproximateBVC,
    DeltaPExactBVC,
    ExactBVC,
    KRelaxedExactBVC,
    ProblemSpec,
    ValidityReport,
    check_headroom,
)
from .runspec import ALGORITHMS, RunSpec
from .scalar import ScalarConsensusProcess

if TYPE_CHECKING:
    from ..obs.metrics import MetricsRegistry

__all__ = ["ConsensusOutcome", "RunSpec", "run"]

#: What a builder hands the shared path: one process per pid, plus the
#: scheduler keywords specific to the algorithm.
Build = tuple[Sequence[Union[SyncProcess, AsyncProcess]], dict[str, Any]]
#: (spec, inputs, adversary, rng) -> Build
Builder = Callable[[RunSpec, np.ndarray, Adversary, np.random.Generator], Build]
#: (spec, d, delta_used) -> (problem spec, membership tolerance)
ProblemFor = Callable[[RunSpec, int, Optional[float]], tuple[ProblemSpec, float]]


@dataclass
class ConsensusOutcome:
    """Everything a caller needs from one consensus execution."""

    decisions: dict[int, np.ndarray]
    report: ValidityReport
    result: RunResult
    honest_inputs: np.ndarray
    #: The spec and membership tolerance ``report`` was checked with.
    problem: ProblemSpec
    tol: float
    delta_used: Optional[float] = None

    @property
    def ok(self) -> bool:
        """Agreement + validity + termination all hold."""
        return self.report.ok

    def recheck(self, decisions: Mapping[int, np.ndarray]) -> ValidityReport:
        """Judge another decision map for this run — e.g. a perturbed copy
        of ``decisions`` — by the spec and tolerance ``report`` used."""
        return self.problem.check(
            self.honest_inputs, decisions,
            terminated=self.result.completed, tol=self.tol,
        )

    @property
    def metrics(self) -> "MetricsRegistry":
        """The run's :class:`~repro.obs.metrics.MetricsRegistry`
        (shortcut for ``result.metrics``)."""
        return self.result.metrics

    @property
    def probe_reports(self) -> tuple[ProbeReport, ...]:
        """Per-probe reports (shortcut for ``result.probes``)."""
        return self.result.probes

    @property
    def probe_violations(self) -> int:
        """Total online invariant violations across all probes."""
        return self.result.probe_violations


def _spec_probes(spec: RunSpec) -> list[Probe]:
    """Materialise ``spec.probes`` (names and/or objects) for one run."""
    if not spec.probes:
        return []
    names = [p for p in spec.probes if isinstance(p, str)]
    built = build_probes(
        names, algorithm=spec.algorithm, p=spec.p, k=spec.k,
        epsilon=spec.epsilon,
    )
    objects = [p for p in spec.probes if not isinstance(p, str)]
    return objects + built


def _broadcast_all(cls: Callable[..., SyncProcess], *knobs: str) -> Builder:
    """Builder for the synchronous broadcast-all algorithms.

    ``knobs`` name the :class:`RunSpec` fields passed through to ``cls``
    as keywords of the same name.
    """

    def build(
        spec: RunSpec, inputs: np.ndarray, adversary: Adversary,
        rng: np.random.Generator,
    ) -> Build:
        n = inputs.shape[0]
        scheme = (
            SignatureScheme(n, rng) if spec.broadcast == "dolev-strong" else None
        )
        extra = {knob: getattr(spec, knob) for knob in knobs}
        procs = [
            cls(n, spec.f, pid, inputs[pid], broadcast=spec.broadcast,
                scheme=scheme, **extra)
            for pid in range(n)
        ]
        sign = scheme.signer_for(set(adversary.faulty)) if scheme else None
        return procs, {"max_rounds": spec.max_rounds, "sign": sign}

    return build


def _iterative_rounds(spec: RunSpec) -> int:
    return spec.rounds if spec.rounds is not None else 30


def _build_iterative(
    spec: RunSpec, inputs: np.ndarray, adversary: Adversary,
    rng: np.random.Generator,
) -> Build:
    from ..system.topology import Topology, complete_topology
    from .iterative import IterativeBVCProcess

    n = inputs.shape[0]
    rounds = _iterative_rounds(spec)
    topo: Topology = (
        spec.topology if spec.topology is not None else complete_topology(n)
    )
    procs = [
        IterativeBVCProcess(
            n, spec.f, pid, inputs[pid],
            topology=topo, num_rounds=rounds, alpha=spec.alpha,
        )
        for pid in range(n)
    ]
    return procs, {"max_rounds": rounds + 2, "topology": topo}


def _build_averaging(
    spec: RunSpec, inputs: np.ndarray, adversary: Adversary,
    rng: np.random.Generator,
) -> Build:
    n = inputs.shape[0]
    rounds = spec.rounds
    if rounds is None:
        spread = float(np.max(inputs.max(axis=0) - inputs.min(axis=0)))
        # round-1 values can exceed the input hull by up to δ per side;
        # bound δ crudely by the spread itself.
        rounds = rounds_for_epsilon(
            3.0 * max(spread, spec.epsilon), n, spec.f, spec.epsilon
        )
    procs = [
        VerifiedAveragingProcess(
            n, spec.f, pid, inputs[pid],
            num_rounds=rounds, mode=spec.mode, delta=spec.delta, p=spec.p,
        )
        for pid in range(n)
    ]
    return procs, {"policy": spec.policy, "max_steps": spec.max_steps}


def _exact_problem(
    spec: RunSpec, d: int, delta_used: Optional[float]
) -> tuple[ProblemSpec, float]:
    return ExactBVC(d, spec.f), MEMBERSHIP_TOL


def _algo_problem(
    spec: RunSpec, d: int, delta_used: Optional[float]
) -> tuple[ProblemSpec, float]:
    if spec.check_delta is not None:
        delta = spec.check_delta
    else:
        delta = check_headroom(delta_used or 0.0)
    return DeltaPExactBVC(d, spec.f, delta=delta, p=spec.p), MEMBERSHIP_TOL


def _krelaxed_problem(
    spec: RunSpec, d: int, delta_used: Optional[float]
) -> tuple[ProblemSpec, float]:
    return KRelaxedExactBVC(d, spec.f, k=spec.k), MEMBERSHIP_TOL


def _iterative_problem(
    spec: RunSpec, d: int, delta_used: Optional[float]
) -> tuple[ProblemSpec, float]:
    # `rounds` LP steps each carry ~1e-8 feasibility slack; give the
    # membership check matching headroom.
    tol = max(1e-7, 2e-8 * _iterative_rounds(spec))
    return ApproximateBVC(d, spec.f, epsilon=spec.epsilon), tol


def _averaging_problem(
    spec: RunSpec, d: int, delta_used: Optional[float]
) -> tuple[ProblemSpec, float]:
    delta = check_headroom(delta_used) if delta_used is not None else spec.delta
    problem = DeltaPApproximateBVC(
        d, spec.f, delta=delta, p=spec.p, epsilon=spec.epsilon
    )
    return problem, MEMBERSHIP_TOL


#: algorithm name -> (process builder, problem spec + tolerance for a run)
_ALGORITHMS: dict[str, tuple[Builder, ProblemFor]] = {
    "exact": (_broadcast_all(ExactBVCProcess), _exact_problem),
    "algo": (_broadcast_all(AlgoProcess, "p"), _algo_problem),
    "krelaxed": (_broadcast_all(KRelaxedProcess, "k"), _krelaxed_problem),
    "scalar": (_broadcast_all(ScalarConsensusProcess), _exact_problem),
    "iterative": (_build_iterative, _iterative_problem),
    "averaging": (_build_averaging, _averaging_problem),
}

assert set(_ALGORITHMS) == set(ALGORITHMS)


def _execute(spec: RunSpec) -> ConsensusOutcome:
    build, problem_for = _ALGORITHMS[spec.algorithm]
    inputs = spec.resolved_inputs()
    n, d = inputs.shape
    adversary = spec.adversary or Adversary.none()
    honest = np.array(
        [inputs[p] for p in range(n) if not adversary.is_faulty(p)]
    )
    probes = _spec_probes(spec)
    rng = np.random.default_rng(spec.seed)
    procs, schedule = build(spec, inputs, adversary, rng)
    backend = get_transport(spec.transport)
    asynchronous = isinstance(procs[0], AsyncProcess)
    execute: Callable[..., RunResult] = (
        backend.run_async if asynchronous else backend.run_sync
    )
    result = execute(
        procs, spec.f, adversary=adversary, rng=rng, probes=probes,
        seed=spec.seed, **schedule,
    )
    decisions = {
        pid: np.asarray(v, dtype=float)
        for pid, v in result.correct_decisions.items()
    }
    used = [
        getattr(proc, "delta_used", None)
        for pid, proc in enumerate(procs)
        if pid not in adversary.faulty
    ]
    deltas = [delta for delta in used if delta is not None]
    # Synchronous processes all derive δ from the same agreed vectors,
    # so the first is taken; asynchronous ones each fold a running max.
    delta_used = (max(deltas) if asynchronous else deltas[0]) if deltas else None
    problem, tol = problem_for(spec, d, delta_used)
    report = problem.check(
        honest, decisions, terminated=result.completed, tol=tol
    )
    return ConsensusOutcome(
        decisions, report, result, honest, problem, tol, delta_used
    )


def run(spec: RunSpec) -> ConsensusOutcome:
    """Execute one :class:`~repro.core.runspec.RunSpec` end to end.

    Builds the processes for ``spec.algorithm``, runs them to completion,
    and checks the decisions once against the algorithm's problem spec.
    When ``spec.metrics`` is given it is installed as the
    ambient :class:`~repro.obs.metrics.MetricsRegistry` for the run.
    """
    if spec.metrics is not None:
        with use_registry(spec.metrics):
            with trace_span("core.run"):
                return _execute(spec)
    with trace_span("core.run"):
        return _execute(spec)
