"""Tests for the explorer: checker registry, injections, determinism."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.dst.explore import (
    ALGORITHM_NAMES,
    CHECKERS,
    INJECTIONS,
    explore,
    register_checker,
    run_scenario,
    sample_scenario,
    violation_from,
)
from repro.dst.corpus import decode_token, load_seed
from repro.dst.scenarios import Scenario, min_system_size

CORPUS_DIR = Path(__file__).resolve().parents[1] / "corpus"
#: The committed injected-bug demo (algo, n=4, d=1, split-brain).
CORPUS_SPLIT_BRAIN = load_seed(CORPUS_DIR / "demo-split-brain-shrunk.json").scenario


def honest_scenario(algorithm="algo", **kw):
    base = dict(algorithm=algorithm, n=4, d=2, f=1, seed=11)
    base.update(kw)
    return Scenario(**base)


class TestRunScenario:
    def test_honest_run_is_clean(self):
        result = run_scenario(honest_scenario())
        assert result.ok
        assert result.violations == {}
        assert result.invariant is None

    def test_validates_before_running(self):
        bad = Scenario(algorithm="exact", n=4, d=3, f=1, seed=0)
        with pytest.raises(ValueError, match="needs n >="):
            run_scenario(bad)

    def test_unknown_injection_rejected(self):
        s = honest_scenario(inject="heisenbug")
        with pytest.raises(ValueError, match="unknown injection"):
            run_scenario(s)

    def test_split_brain_injection_breaks_agreement(self):
        result = run_scenario(honest_scenario(inject="split-brain"))
        assert "agreement" in result.violations
        assert result.invariant == "agreement"

    @pytest.mark.parametrize("algorithm", ["exact", "algo", "k1", "averaging"])
    def test_split_brain_injection_breaks_validity_too(self, algorithm):
        # The injected decision sits 10 * input_scale outside the honest
        # hull, so re-checking the perturbed map through the run's own
        # ProblemSpec must flag validity as well as agreement.
        scenario = replace(
            CORPUS_SPLIT_BRAIN, algorithm=algorithm,
            n=min_system_size(algorithm, CORPUS_SPLIT_BRAIN.d, 1),
        )
        result = run_scenario(scenario)
        assert {"agreement", "validity"} <= set(result.violations)
        assert result.invariant == "agreement"

    def test_stale_echo_injection_breaks_agreement(self):
        result = run_scenario(honest_scenario(inject="stale-echo"))
        assert not result.ok

    def test_injection_does_not_touch_real_outcome(self):
        # Injections perturb the checked decision map, not the run: the
        # underlying ConsensusOutcome still reports the true (clean) run.
        result = run_scenario(honest_scenario(inject="split-brain"))
        assert result.outcome.report.ok

    def test_custom_checker_mapping_overrides_registry(self):
        # With only a trivially-true checker active, even the injected
        # bug goes unnoticed — the registry is genuinely pluggable.
        result = run_scenario(
            honest_scenario(inject="split-brain"),
            checkers={"noop": lambda s, o, dec: None},
        )
        assert result.ok

    def test_register_checker_roundtrip(self):
        @register_checker("always-fails")
        def _chk(scenario, outcome, decisions):
            return "synthetic"

        try:
            result = run_scenario(honest_scenario())
            assert result.violations == {"always-fails": "synthetic"}
            assert result.invariant == "always-fails"
        finally:
            del CHECKERS["always-fails"]


class TestViolation:
    def violation(self):
        result = run_scenario(honest_scenario(inject="split-brain"))
        return violation_from(result)

    def test_token_round_trips_scenario(self):
        v = self.violation()
        assert decode_token(v.token) == v.scenario

    def test_replay_command_embeds_token(self):
        v = self.violation()
        assert v.replay_command == f"python -m repro replay --token {v.token}"
        assert v.token in v.shrink_command

    def test_flags_reflect_violations(self):
        v = self.violation()
        assert v.invariant == "agreement"
        assert not v.agreement_ok
        assert v.termination_ok


class TestSampling:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            sample_scenario(np.random.default_rng(0), "paxos")

    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    def test_samples_are_valid(self, algorithm):
        rng = np.random.default_rng(42)
        for _ in range(25):
            s = sample_scenario(rng, algorithm)
            s.validate()  # must not raise
            assert s.algorithm == algorithm

    def test_schedule_only_for_averaging(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            assert sample_scenario(rng, "algo").schedule == ()
        saw_schedule = any(
            sample_scenario(rng, "averaging").schedule for _ in range(25)
        )
        assert saw_schedule


class TestExplore:
    def test_clean_on_honest_configs(self):
        # A miniature of the CI soak / acceptance sweep.
        assert explore("algo", trials=5, seed=7) == []

    def test_deterministic_in_seed(self):
        a = explore("k1", trials=4, seed=9, inject="split-brain")
        b = explore("k1", trials=4, seed=9, inject="split-brain")
        assert [v.token for v in a] == [v.token for v in b]
        assert len(a) == 4

    def test_stop_on_first(self):
        vs = explore("algo", trials=5, seed=3, inject="split-brain",
                     stop_on_first=True)
        assert len(vs) == 1

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError, match="trials"):
            explore("algo", trials=0)

    def test_violation_token_replays_standalone(self):
        v = explore("algo", trials=1, seed=3, inject="split-brain")[0]
        replayed = run_scenario(decode_token(v.token))
        assert v.invariant in replayed.violations

    def test_custom_checkers_without_fork_fall_back_to_serial(self, monkeypatch):
        """spawn pickles pool initargs, and checker lambdas don't pickle —
        so fork-less platforms must warn and run serially, not crash."""
        import importlib

        mod = importlib.import_module("repro.dst.explore")
        monkeypatch.setattr(mod.multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        checkers = {"always": lambda scenario, outcome, decisions: "synthetic"}
        with pytest.warns(RuntimeWarning, match="fork"):
            parallel = explore("algo", trials=3, seed=7, workers=2,
                               checkers=checkers)
        serial = explore("algo", trials=3, seed=7, workers=1,
                         checkers=checkers)
        assert len(serial) == 3
        assert [v.token for v in parallel] == [v.token for v in serial]


def test_injection_registry_names():
    assert {"split-brain", "stale-echo"} <= set(INJECTIONS)


class TestSoak:
    """Invariant sweeps over sampled adversarial scenarios (sized to stay
    test-suite friendly)."""

    def test_exact_bvc_never_breaks(self):
        violations = explore("exact", trials=25, seed=101)
        assert not violations, "\n".join(map(str, violations))

    def test_algo_never_breaks(self):
        violations = explore("algo", trials=25, seed=202)
        assert not violations, "\n".join(map(str, violations))

    def test_k1_never_breaks(self):
        violations = explore("k1", trials=25, seed=303)
        assert not violations, "\n".join(map(str, violations))

    def test_averaging_never_breaks(self):
        violations = explore("averaging", trials=10, seed=404)
        assert not violations, "\n".join(map(str, violations))
