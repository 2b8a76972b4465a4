"""Problem specifications and correctness checkers.

The paper defines six consensus problems (Definitions 7, 8, 10, 11 plus
the unrelaxed originals of §4).  Each is represented by a spec object that
knows how to *check* an outcome — agreement, the problem's validity
condition, termination — against the ground-truth honest inputs.  The
checkers are what every integration test and benchmark asserts on, so they
are written directly from the definitions:

* **Agreement** (exact problems): identical decision vectors at all
  non-faulty processes.
* **ε-Agreement** (approximate problems): for every coordinate ``l``, the
  ``l``-th elements of any two non-faulty decisions differ by at most
  ``ε`` (i.e. ``L_inf`` distance at most ``ε`` — footnotes 1–2 of the
  paper).
* **Validity** — membership of every non-faulty decision in ``H(N)``,
  ``H_k(N)`` or ``H_{(δ,p)}(N)`` where ``N`` is the multiset of non-faulty
  inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Union

import numpy as np

from ..geometry.distance import distance_to_hull
from ..geometry.norms import validate_p
from ..geometry.relaxed import DeltaPHull, KRelaxedHull

__all__ = [
    "ValidityReport",
    "ProblemSpec",
    "ExactBVC",
    "ApproximateBVC",
    "KRelaxedExactBVC",
    "KRelaxedApproximateBVC",
    "DeltaPExactBVC",
    "DeltaPApproximateBVC",
    "MEMBERSHIP_TOL",
    "agreement_diameter",
    "check_headroom",
]

PNorm = Union[float, int]

#: Default numerical slack of the validity membership test.
MEMBERSHIP_TOL = 1e-7


def check_headroom(delta: float) -> float:
    """``delta`` plus the solver-tolerance headroom for checking an
    achieved δ*.

    δ* is a strict minimum: a decision built from it sits exactly at
    distance δ* from some subset hull, so re-measured distances tip over
    an unpadded δ* by about 1e-7.
    """
    return delta * (1.0 + 1e-6) + 1e-9


def agreement_diameter(decisions: Mapping[int, np.ndarray]) -> float:
    """Largest L_inf distance between any two decision vectors.

    Zero means exact agreement; ``<= ε`` means ε-agreement under the
    paper's coordinate-wise definition.
    """
    vals = [np.asarray(v, dtype=float) for v in decisions.values()]
    if len(vals) <= 1:
        return 0.0
    arr = np.stack(vals)
    return float(np.max(np.abs(arr[:, None, :] - arr[None, :, :])))


@dataclass
class ValidityReport:
    """Checker verdict for one execution.

    ``violations`` maps pid -> quantitative violation (distance beyond the
    allowed set), for decisions that failed validity.
    """

    agreement_ok: bool
    validity_ok: bool
    termination_ok: bool
    agreement_diameter: float
    violations: dict[int, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """All three conditions hold."""
        return self.agreement_ok and self.validity_ok and self.termination_ok


@dataclass(frozen=True)
class ProblemSpec:
    """Base problem: ``d``-dimensional inputs, up to ``f`` Byzantine."""

    d: int
    f: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if self.f < 0:
            raise ValueError(f"f must be >= 0, got {self.f}")

    # -- per-problem hooks ---------------------------------------------------
    @property
    def agreement_tolerance(self) -> float:
        """Largest L_inf decision diameter agreement accepts."""
        return 1e-9

    def _agreement_ok(self, decisions: Mapping[int, np.ndarray]) -> tuple[bool, float]:
        diam = agreement_diameter(decisions)
        return diam <= self.agreement_tolerance, diam

    def _decision_violation(
        self, decision: np.ndarray, honest_inputs: np.ndarray
    ) -> float:
        """Distance by which a decision exceeds the allowed validity set."""
        raise NotImplementedError

    # -- entry point -----------------------------------------------------------
    def check(
        self,
        honest_inputs: np.ndarray,
        decisions: Mapping[int, np.ndarray],
        *,
        terminated: bool = True,
        tol: float = MEMBERSHIP_TOL,
    ) -> ValidityReport:
        """Validate an execution outcome.

        Parameters
        ----------
        honest_inputs:
            ``(m, d)`` inputs of the non-faulty processes (the multiset
            ``N``).
        decisions:
            pid -> decision vector, for the non-faulty processes.
        terminated:
            Whether every non-faulty process terminated (from the run
            result).
        tol:
            Numerical slack for membership tests.
        """
        honest_inputs = np.atleast_2d(np.asarray(honest_inputs, dtype=float))
        if honest_inputs.shape[1] != self.d:
            raise ValueError(
                f"inputs have dimension {honest_inputs.shape[1]}, spec says {self.d}"
            )
        decs = {pid: np.asarray(v, dtype=float).ravel() for pid, v in decisions.items()}
        for pid, v in decs.items():
            if v.size != self.d:
                raise ValueError(f"decision of {pid} has dimension {v.size}")
        agreement_ok, diam = self._agreement_ok(decs)
        violations = {}
        for pid, v in decs.items():
            viol = self._decision_violation(v, honest_inputs)
            if viol > tol:
                violations[pid] = viol
        return ValidityReport(
            agreement_ok=agreement_ok,
            validity_ok=not violations,
            termination_ok=bool(terminated) and len(decs) > 0,
            agreement_diameter=diam,
            violations=violations,
        )


@dataclass(frozen=True)
class ExactBVC(ProblemSpec):
    """Exact Byzantine vector consensus (§4): agreement + hull validity."""

    def _decision_violation(
        self, decision: np.ndarray, honest_inputs: np.ndarray
    ) -> float:
        return distance_to_hull(honest_inputs, decision, math.inf).distance


@dataclass(frozen=True)
class ApproximateBVC(ProblemSpec):
    """Approximate BVC (§4): ε-agreement + hull validity."""

    epsilon: float = 1e-3

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")

    @property
    def agreement_tolerance(self) -> float:
        return self.epsilon + 1e-12

    def _decision_violation(
        self, decision: np.ndarray, honest_inputs: np.ndarray
    ) -> float:
        return distance_to_hull(honest_inputs, decision, math.inf).distance


@dataclass(frozen=True)
class KRelaxedExactBVC(ProblemSpec):
    """k-relaxed exact BVC (Definition 7): decision in ``H_k(N)``."""

    k: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 1 <= self.k <= self.d:
            raise ValueError(f"need 1 <= k <= d={self.d}, got k={self.k}")

    def _decision_violation(
        self, decision: np.ndarray, honest_inputs: np.ndarray
    ) -> float:
        return KRelaxedHull(honest_inputs, self.k).violation(decision, math.inf)


@dataclass(frozen=True)
class KRelaxedApproximateBVC(KRelaxedExactBVC):
    """k-relaxed approximate BVC (Definition 8)."""

    epsilon: float = 1e-3

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")

    @property
    def agreement_tolerance(self) -> float:
        return self.epsilon + 1e-12


@dataclass(frozen=True)
class DeltaPExactBVC(ProblemSpec):
    """(δ,p)-relaxed exact BVC (Definition 10): decision within L_p
    distance δ of ``H(N)``.

    ``delta`` may be a constant, or — for the input-dependent setting of
    §9 — computed by the caller from the honest inputs before checking.
    """

    delta: float = 0.0
    p: float = 2.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.delta < 0:
            raise ValueError("delta must be >= 0")
        validate_p(self.p)

    def _decision_violation(
        self, decision: np.ndarray, honest_inputs: np.ndarray
    ) -> float:
        return DeltaPHull(honest_inputs, self.delta, self.p).violation(decision)


@dataclass(frozen=True)
class DeltaPApproximateBVC(DeltaPExactBVC):
    """(δ,p)-relaxed approximate BVC (Definition 11)."""

    epsilon: float = 1e-3

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")

    @property
    def agreement_tolerance(self) -> float:
        return self.epsilon + 1e-12
