"""Online invariant probes evaluated at round/step boundaries.

The paper's guarantees are run-time invariants, not just post-hoc
verdicts: every intermediate and decided value must stay inside the
relaxed hull of the correct inputs (validity, Xiang–Vaidya Theorems 6/15,
Vaidya–Garg validity for the exact baseline), per-round spread must
shrink monotonically for Relaxed Verified Averaging (the ``ρ = f/(n-f)``
contraction), and reliable broadcast must never let two correct processes
accept different values for one ``(sender, tag)`` instance (Bracha
agreement).  A :class:`Probe` watches one of these invariants *during*
the run: the schedulers evaluate the installed probes at every round
boundary (synchronous) or every ``probe_interval`` delivery steps
(asynchronous), so a violating execution is flagged at the moment it
diverges, with the offending round and processes attached.

Violations surface three ways at once:

* a warning-level trace event (``probe.<name>.violation``),
* a counter on the ambient registry (``probe.<name>.violations``),
* a structured :class:`ProbeReport` on ``RunResult.probes``.

Probes are read-only: they never touch the scheduler's RNG, the network,
or process state, so enabling them cannot change any decision — the
bit-identity contract is pinned by ``tests/obs/test_probe_identity.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from . import metrics as _obs
from .tracer import trace_event

if TYPE_CHECKING:  # pragma: no cover - typing only
    # Imported lazily at run time: geometry's kernels record onto
    # repro.obs.metrics, so a module-level import here would be circular.
    from ..geometry.relaxed import DeltaPHull, KRelaxedHull

__all__ = [
    "PROBE_NAMES",
    "Probe",
    "ProbeReport",
    "ProbeView",
    "ProbeViolation",
    "ValidityEnvelopeProbe",
    "AgreementConvergenceProbe",
    "BroadcastIntegrityProbe",
    "build_probes",
]

PNorm = Union[float, int]

#: Canonical probe names accepted by :func:`build_probes` and
#: ``RunSpec.probes`` (``"all"`` expands to the full set).
PROBE_NAMES = ("validity", "agreement", "broadcast")


@dataclass(frozen=True)
class ProbeViolation:
    """One observed invariant violation."""

    probe: str
    time: Optional[int]  # round (sync) or step (async) of the boundary
    detail: str
    pids: tuple[int, ...] = ()
    measure: Optional[float] = None  # quantitative excess, when meaningful


@dataclass(frozen=True)
class ProbeReport:
    """Structured outcome of one probe over one run."""

    name: str
    checks: int
    violations: tuple[ProbeViolation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "checks": self.checks,
            "ok": self.ok,
            "violations": [
                {
                    "time": v.time,
                    "detail": v.detail,
                    "pids": list(v.pids),
                    "measure": v.measure,
                }
                for v in self.violations
            ],
        }


class ProbeView:
    """Read-only window onto a live run, handed to every probe hook.

    Built once per run by the scheduler; exposes the per-process contexts
    and protocol objects so probes can inspect state without being able
    to perturb scheduling.
    """

    def __init__(
        self,
        n: int,
        f: int,
        contexts: Mapping[int, Any],
        processes: Mapping[int, Any],
        faulty: frozenset[int],
    ):
        self.n = n
        self.f = f
        self.contexts = contexts
        self.processes = processes
        self.faulty = faulty
        self.correct = tuple(p for p in range(n) if p not in faulty)
        self._honest: Optional[np.ndarray] = None

    def honest_inputs(self) -> Optional[np.ndarray]:
        """The ``(n - |faulty|, d)`` matrix of correct inputs, when the
        protocol objects expose ``input_value`` (all shipped ones do)."""
        if self._honest is None:
            rows = []
            for pid in self.correct:
                value = getattr(self.processes[pid], "input_value", None)
                if value is None:
                    return None
                rows.append(np.asarray(value, dtype=float).ravel())
            if not rows:
                return None
            self._honest = np.stack(rows)
        return self._honest

    def correct_decisions(self) -> dict[int, np.ndarray]:
        return {
            pid: np.asarray(self.contexts[pid].decision, dtype=float).ravel()
            for pid in self.correct
            if self.contexts[pid].decided
        }


class Probe:
    """Base class: accumulate checks/violations; subclasses add the hooks."""

    name = "probe"

    def __init__(self) -> None:
        self.violations: list[ProbeViolation] = []
        self.checks = 0

    def attach(self, view: ProbeView) -> None:
        """Called once at run start, before any boundary."""

    def on_boundary(self, view: ProbeView, time: int) -> None:
        """Called at every round (sync) / probe-interval step (async)."""

    def on_finish(self, view: ProbeView, time: int) -> None:
        """Called once after the run loop (defaults to a last boundary)."""
        self.on_boundary(view, time)

    def check_decisions(
        self,
        decisions: Mapping[int, np.ndarray],
        honest_inputs: Optional[np.ndarray],
        *,
        time: Optional[int] = None,
    ) -> None:
        """Re-evaluate the invariant against an explicit decision map.

        Post-run hook used by the DST explorer: fault *injections*
        perturb decisions after the run, and this is how the perturbed
        map is pushed back through the probe.
        """

    def record(
        self,
        time: Optional[int],
        detail: str,
        *,
        pids: Iterable[int] = (),
        measure: Optional[float] = None,
    ) -> None:
        violation = ProbeViolation(
            probe=self.name, time=time, detail=detail,
            pids=tuple(sorted(pids)), measure=measure,
        )
        self.violations.append(violation)
        trace_event(
            f"probe.{self.name}.violation", level="warning",
            time=time, detail=detail, pids=list(violation.pids),
            measure=measure,
        )
        _obs.inc(f"probe.{self.name}.violations")

    def report(self) -> ProbeReport:
        return ProbeReport(
            name=self.name, checks=self.checks,
            violations=tuple(self.violations),
        )


def _diameter(values: Sequence[np.ndarray]) -> float:
    """Max pairwise L_inf distance (matches ``core.problems``)."""
    worst = 0.0
    for i, a in enumerate(values):
        for b in values[i + 1:]:
            worst = max(worst, float(np.max(np.abs(a - b))))
    return worst


class ValidityEnvelopeProbe(Probe):
    """Intermediate and decided values stay in the relaxed hull of the
    correct inputs.

    The envelope is ``H_{(δ,p)}(honest inputs)`` with δ the running max of
    the processes' achieved ``delta_used`` (exact algorithms: δ = 0) plus
    the same solver-tolerance headroom the post-hoc checker grants, or —
    for k-relaxed consensus — the k-relaxed hull ``H_k``.  Checks are
    incremental: each ``(pid, round)`` intermediate value and each
    decision is measured once.
    """

    name = "validity"

    def __init__(
        self,
        *,
        p: PNorm = 2,
        delta: Optional[float] = None,
        k: Optional[int] = None,
        tol: float = 1e-6,
    ):
        super().__init__()
        self.p = p
        self.delta = delta  # None: dynamic (max achieved delta_used)
        self.k = k  # not None: k-relaxed envelope (delta ignored)
        self.tol = float(tol)
        self._hull: Optional["DeltaPHull"] = None
        self._khull: Optional["KRelaxedHull"] = None
        self._checked_values: set[tuple[int, int]] = set()
        self._checked_decisions: set[int] = set()
        self._last_delta = 0.0

    def _envelope_delta(self, view: ProbeView) -> float:
        from ..core.problems import check_headroom

        if self.delta is not None:
            delta = self.delta
        else:
            delta = 0.0
            for pid in view.correct:
                used = getattr(view.processes[pid], "delta_used", None)
                if used is not None:
                    delta = max(delta, float(used))
        # Same headroom the post-hoc checker applies: the selected point
        # sits exactly at distance δ* from some subset hull.
        self._last_delta = check_headroom(delta)
        return self._last_delta

    def _excess(self, value: np.ndarray, honest: np.ndarray, delta: float) -> float:
        from ..geometry.relaxed import DeltaPHull, KRelaxedHull

        if self.k is not None:
            if self._khull is None:
                self._khull = KRelaxedHull(honest, self.k)
            return float(self._khull.violation(value, math.inf))
        if self._hull is None:
            self._hull = DeltaPHull(honest, 0.0, self.p)
        return max(0.0, float(self._hull.distance_to_core(value)) - delta)

    def on_boundary(self, view: ProbeView, time: int) -> None:
        honest = view.honest_inputs()
        if honest is None:
            return
        delta = self._envelope_delta(view)
        for pid in view.correct:
            proc = view.processes[pid]
            my_values = getattr(proc, "my_values", None)
            if my_values is not None:
                for rnd in sorted(my_values):
                    if rnd < 1 or (pid, rnd) in self._checked_values:
                        continue
                    self._checked_values.add((pid, rnd))
                    self.checks += 1
                    excess = self._excess(
                        np.asarray(my_values[rnd], dtype=float).ravel(),
                        honest, delta,
                    )
                    if excess > self.tol:
                        self.record(
                            time,
                            f"round-{rnd} value of pid {pid} leaves the "
                            f"validity envelope by {excess:.3g}",
                            pids=(pid,), measure=excess,
                        )
            ctx = view.contexts[pid]
            if ctx.decided and pid not in self._checked_decisions:
                self._checked_decisions.add(pid)
                self.checks += 1
                excess = self._excess(
                    np.asarray(ctx.decision, dtype=float).ravel(), honest, delta
                )
                if excess > self.tol:
                    self.record(
                        time,
                        f"decision of pid {pid} leaves the validity "
                        f"envelope by {excess:.3g}",
                        pids=(pid,), measure=excess,
                    )

    def check_decisions(
        self,
        decisions: Mapping[int, np.ndarray],
        honest_inputs: Optional[np.ndarray],
        *,
        time: Optional[int] = None,
    ) -> None:
        if honest_inputs is None:
            return
        honest = np.atleast_2d(np.asarray(honest_inputs, dtype=float))
        delta = self._last_delta if self.delta is None else self.delta
        for pid in sorted(decisions):
            self.checks += 1
            excess = self._excess(
                np.asarray(decisions[pid], dtype=float).ravel(), honest, delta
            )
            if excess > self.tol:
                self.record(
                    time,
                    f"decision of pid {pid} leaves the validity envelope "
                    f"by {excess:.3g}",
                    pids=(pid,), measure=excess,
                )


class AgreementConvergenceProbe(Probe):
    """Agreement (exact or ε) on decisions, plus monotone per-round
    spread contraction for Relaxed Verified Averaging.

    For any two verified round-``t`` values (``t >= 2``) share at least
    ``n - 2f`` averaging terms, so the coordinate range of the union of
    verified round-``t`` values can never exceed the round ``t-1`` range
    — the probe asserts that at every boundary, on the growing verified
    sets.  Decisions must agree within ``epsilon`` (exact algorithms:
    bit-agreement up to ``tol``).
    """

    name = "agreement"

    def __init__(self, *, epsilon: Optional[float] = None, tol: float = 1e-7):
        super().__init__()
        self.epsilon = epsilon
        self.tol = float(tol)
        self._flagged_rounds: set[int] = set()
        self._flagged_deciders: frozenset[int] = frozenset()

    def _round_ranges(self, view: ProbeView) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Per round: coordinatewise (min, max) over the union of all
        correct processes' verified values."""
        ranges: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for pid in view.correct:
            verified = getattr(view.processes[pid], "verified", None)
            if not verified:
                continue
            for (_, rnd), value in verified.items():
                vec = np.asarray(value, dtype=float).ravel()
                if rnd in ranges:
                    lo, hi = ranges[rnd]
                    ranges[rnd] = (np.minimum(lo, vec), np.maximum(hi, vec))
                else:
                    ranges[rnd] = (vec.copy(), vec.copy())
        return ranges

    def on_boundary(self, view: ProbeView, time: int) -> None:
        ranges = self._round_ranges(view)
        for rnd in sorted(ranges):
            if rnd < 2 or rnd in self._flagged_rounds or rnd - 1 not in ranges:
                continue
            self.checks += 1
            lo_prev, hi_prev = ranges[rnd - 1]
            lo, hi = ranges[rnd]
            spread_prev = float(np.max(hi_prev - lo_prev))
            spread = float(np.max(hi - lo))
            if spread > spread_prev + self.tol:
                self._flagged_rounds.add(rnd)
                self.record(
                    time,
                    f"round-{rnd} verified spread {spread:.3g} exceeds "
                    f"round-{rnd - 1} spread {spread_prev:.3g} "
                    "(contraction violated)",
                    measure=spread - spread_prev,
                )

        decisions = view.correct_decisions()
        self._check_diameter(decisions, time)

    def _check_diameter(
        self, decisions: Mapping[int, np.ndarray], time: Optional[int]
    ) -> None:
        deciders = frozenset(decisions)
        if len(deciders) < 2 or deciders == self._flagged_deciders:
            return
        self.checks += 1
        diameter = _diameter([decisions[pid] for pid in sorted(decisions)])
        bound = (self.epsilon if self.epsilon is not None else 0.0) + self.tol
        if diameter > bound:
            self._flagged_deciders = deciders
            self.record(
                time,
                f"decision diameter {diameter:.3g} exceeds the "
                f"agreement bound {bound:.3g}",
                pids=deciders, measure=diameter - bound,
            )

    def check_decisions(
        self,
        decisions: Mapping[int, np.ndarray],
        honest_inputs: Optional[np.ndarray],
        *,
        time: Optional[int] = None,
    ) -> None:
        self._flagged_deciders = frozenset()
        self._check_diameter(
            {pid: np.asarray(v, dtype=float).ravel()
             for pid, v in decisions.items()},
            time,
        )


class BroadcastIntegrityProbe(Probe):
    """No two correct processes accept different values for one
    ``(sender, tag)`` broadcast instance.

    Watches the reliable-broadcast delivery maps of the asynchronous
    processes (``_delivered``: Bracha agreement) and the agreed multiset
    of the synchronous broadcast-all template (identical ``S`` at every
    correct process — EIG/Dolev–Strong correctness).
    """

    name = "broadcast"

    def __init__(self) -> None:
        super().__init__()
        self._flagged_keys: set[Any] = set()
        self._checked_pairs: set[tuple[Any, int, int]] = set()

    @staticmethod
    def _equal(a: Any, b: Any) -> bool:
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return bool(np.array_equal(np.asarray(a), np.asarray(b)))
        result = a == b
        return bool(np.all(result)) if isinstance(result, np.ndarray) else bool(result)

    def on_boundary(self, view: ProbeView, time: int) -> None:
        # Asynchronous reliable broadcast: per-(sender, round) deliveries.
        delivered: dict[Any, list[tuple[int, Any]]] = {}
        for pid in view.correct:
            accepted = getattr(view.processes[pid], "_delivered", None)
            if accepted:
                for key, value in accepted.items():
                    delivered.setdefault(key, []).append((pid, value))
        for key in sorted(delivered, key=repr):
            if key in self._flagged_keys:
                continue
            entries = delivered[key]
            first_pid, first_value = entries[0]
            for pid, value in entries[1:]:
                pair = (key, first_pid, pid)
                if pair in self._checked_pairs:
                    continue
                self._checked_pairs.add(pair)
                self.checks += 1
                if not self._equal(first_value, value):
                    self._flagged_keys.add(key)
                    self.record(
                        time,
                        f"correct pids {first_pid} and {pid} accepted "
                        f"different values for broadcast instance {key!r}",
                        pids=(first_pid, pid),
                    )
                    break

        # Synchronous broadcast-all: the agreed multiset must be identical.
        multisets = [
            (pid, getattr(view.processes[pid], "multiset", None))
            for pid in view.correct
        ]
        multisets = [(pid, S) for pid, S in multisets if S is not None]
        if len(multisets) >= 2 and "multiset" not in self._flagged_keys:
            first_pid, first_S = multisets[0]
            for pid, S in multisets[1:]:
                pair = ("multiset", first_pid, pid)
                if pair in self._checked_pairs:
                    continue
                self._checked_pairs.add(pair)
                self.checks += 1
                if not self._equal(first_S, S):
                    self._flagged_keys.add("multiset")
                    self.record(
                        time,
                        f"correct pids {first_pid} and {pid} agreed on "
                        "different broadcast multisets",
                        pids=(first_pid, pid),
                    )
                    break


def build_probes(
    names: Sequence[str],
    *,
    algorithm: Optional[str] = None,
    p: PNorm = 2,
    k: int = 1,
    epsilon: Optional[float] = None,
    delta: Optional[float] = None,
) -> list[Probe]:
    """Instantiate probes by name, configured for one algorithm.

    ``names`` entries are members of :data:`PROBE_NAMES` or ``"all"``.
    ``epsilon`` configures the agreement bound for the approximate
    algorithms (``averaging``/``iterative``); exact algorithms assert
    bit-agreement.  ``krelaxed`` swaps the validity envelope for ``H_k``.
    """
    expanded: list[str] = []
    for name in names:
        if name == "all":
            expanded.extend(PROBE_NAMES)
        elif name in PROBE_NAMES:
            expanded.append(name)
        else:
            raise ValueError(
                f"unknown probe {name!r}; choices {PROBE_NAMES + ('all',)}"
            )
    approximate = algorithm in ("averaging", "iterative")
    probes: list[Probe] = []
    for name in dict.fromkeys(expanded):  # dedupe, keep order
        if name == "validity":
            if algorithm == "krelaxed":
                probes.append(ValidityEnvelopeProbe(k=k))
            else:
                # Iterative LP steps each carry feasibility slack; give
                # the online check the post-hoc checker's headroom.
                tol = 1e-6 if algorithm != "iterative" else 1e-5
                probes.append(ValidityEnvelopeProbe(p=p, delta=delta, tol=tol))
        elif name == "agreement":
            probes.append(AgreementConvergenceProbe(
                epsilon=epsilon if approximate else None,
            ))
        else:
            probes.append(BroadcastIntegrityProbe())
    return probes
