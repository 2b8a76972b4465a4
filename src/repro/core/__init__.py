"""The paper's contribution: relaxed Byzantine vector consensus.

Problem specifications and checkers, the complete bound catalogue
(Theorems 1–6, Table 1, Conjectures 1–4), the synchronous algorithms
(exact BVC, ALGO, k-relaxed, scalar), the asynchronous Relaxed Verified
Averaging, the executable impossibility constructions, and the one
runner, ``run(RunSpec(...))``.
"""

from .algo_sync import AlgoProcess, algo_decision
from .averaging import (
    VerifiedAveragingProcess,
    contraction_factor,
    rounds_for_epsilon,
)
from .broadcast_all import BroadcastAllProcess, broadcast_tag
from .convex_consensus import (
    ConvexConsensusProcess,
    check_convex_consensus,
    convex_consensus_decision,
)
from .exact_bvc import ExactBVCProcess, exact_bvc_decision
from .iterative import IterativeBVCProcess, iterative_update
from .krelaxed import KRelaxedProcess, k_relaxed_decision
from .lemma10 import NaiveAveragingProcess, RingResult, lemma10_demo, run_ring
from .lower_bounds import (
    psi_i_separation,
    theorem3_inputs,
    theorem3_verdict,
    theorem4_inputs,
    theorem4_verdict,
    theorem5_inputs,
    theorem5_verdict,
    theorem6_inputs,
    theorem6_verdict,
)
from .problems import (
    ApproximateBVC,
    DeltaPApproximateBVC,
    DeltaPExactBVC,
    ExactBVC,
    KRelaxedApproximateBVC,
    KRelaxedExactBVC,
    ProblemSpec,
    ValidityReport,
    agreement_diameter,
)
from .runner import ConsensusOutcome, run
from .runspec import ALGORITHMS, RunSpec
from .scalar import (
    ScalarConsensusProcess,
    scalar_decision,
    scalar_decision_vector,
    trimmed_multiset,
)
from . import bounds

__all__ = [
    "ALGORITHMS",
    "AlgoProcess",
    "ApproximateBVC",
    "BroadcastAllProcess",
    "ConsensusOutcome",
    "ConvexConsensusProcess",
    "DeltaPApproximateBVC",
    "DeltaPExactBVC",
    "ExactBVC",
    "ExactBVCProcess",
    "IterativeBVCProcess",
    "KRelaxedApproximateBVC",
    "KRelaxedExactBVC",
    "KRelaxedProcess",
    "NaiveAveragingProcess",
    "ProblemSpec",
    "RingResult",
    "RunSpec",
    "ScalarConsensusProcess",
    "ValidityReport",
    "VerifiedAveragingProcess",
    "agreement_diameter",
    "algo_decision",
    "bounds",
    "broadcast_tag",
    "check_convex_consensus",
    "contraction_factor",
    "convex_consensus_decision",
    "exact_bvc_decision",
    "iterative_update",
    "k_relaxed_decision",
    "lemma10_demo",
    "psi_i_separation",
    "run",
    "run_ring",
    "rounds_for_epsilon",
    "scalar_decision",
    "scalar_decision_vector",
    "theorem3_inputs",
    "theorem3_verdict",
    "theorem4_inputs",
    "theorem4_verdict",
    "theorem5_inputs",
    "theorem5_verdict",
    "theorem6_inputs",
    "theorem6_verdict",
    "trimmed_multiset",
]
