"""Tests for the high-level runner API surface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.problems import ProblemSpec
from repro.core.runner import ConsensusOutcome, RunSpec, run
from repro.system.adversary import Adversary


class TestRunnerSurface:
    def test_outcome_fields(self, rng):
        inputs = rng.normal(size=(4, 2))
        out = run(RunSpec(algorithm="exact", inputs=inputs, f=1))
        assert isinstance(out, ConsensusOutcome)
        assert out.honest_inputs.shape == (4, 2)
        assert out.result.completed
        assert out.ok == out.report.ok

    def test_honest_inputs_exclude_faulty_rows(self, rng):
        inputs = rng.normal(size=(4, 2))
        out = run(RunSpec(algorithm="exact", inputs=inputs, f=1,
                          adversary=Adversary(faulty=[1])))
        assert out.honest_inputs.shape == (3, 2)
        np.testing.assert_array_equal(out.honest_inputs, inputs[[0, 2, 3]])

    def test_decisions_only_correct(self, rng):
        inputs = rng.normal(size=(4, 2))
        out = run(RunSpec(algorithm="exact", inputs=inputs, f=1,
                          adversary=Adversary(faulty=[0])))
        assert 0 not in out.decisions
        assert set(out.decisions) == {1, 2, 3}

    def test_algo_check_delta_override(self, rng):
        """check_delta lets callers verify against a bound of their
        choosing (e.g. the Table 1 value) rather than the achieved δ*."""
        inputs = rng.normal(size=(4, 3))
        out = run(RunSpec(algorithm="algo", inputs=inputs, f=1,
                          adversary=Adversary(faulty=[3]), check_delta=100.0))
        assert out.report.validity_ok
        tight = run(RunSpec(algorithm="algo", inputs=inputs, f=1,
                            adversary=Adversary(faulty=[3]), check_delta=0.0))
        # a zero-δ check fails whenever δ* > 0
        assert tight.report.validity_ok == (tight.delta_used <= 1e-7)

    def test_scalar_runner(self, rng):
        out = run(RunSpec(algorithm="scalar", inputs=rng.normal(size=(4, 1)),
                          f=1))
        assert out.ok

    def test_k_relaxed_runner_k1(self, rng):
        out = run(RunSpec(algorithm="krelaxed", inputs=rng.normal(size=(4, 4)),
                          f=1, k=1))
        assert out.ok

    def test_averaging_runner_defaults(self, rng):
        out = run(RunSpec(algorithm="averaging",
                          inputs=rng.normal(size=(4, 2)), f=1, epsilon=0.05,
                          seed=3))
        assert out.ok
        assert out.delta_used is not None

    def test_seed_controls_schedule(self, rng):
        inputs = rng.normal(size=(4, 2))
        a = run(RunSpec(algorithm="averaging", inputs=inputs, f=1,
                        epsilon=0.05, seed=1))
        b = run(RunSpec(algorithm="averaging", inputs=inputs, f=1,
                        epsilon=0.05, seed=1))
        assert a.result.rounds == b.result.rounds

    def test_f_zero_runs(self, rng):
        inputs = rng.normal(size=(3, 2))
        out = run(RunSpec(algorithm="exact", inputs=inputs, f=0))
        assert out.ok

    def test_adversary_none_default(self, rng):
        out = run(RunSpec(algorithm="exact", inputs=rng.normal(size=(4, 2)),
                          f=1, adversary=None))
        assert out.ok and len(out.decisions) == 4


#: One small run per algorithm, each legal for its resilience bound.
ONE_RUN_PER_ALGORITHM = {
    "exact": RunSpec(algorithm="exact", n=4, d=2, seed=1),
    "algo": RunSpec(algorithm="algo", n=4, d=2, seed=1),
    "krelaxed": RunSpec(algorithm="krelaxed", n=4, d=2, k=1, seed=1),
    "scalar": RunSpec(algorithm="scalar", n=4, d=1, seed=1),
    "iterative": RunSpec(algorithm="iterative", n=5, d=2, rounds=5,
                         epsilon=10.0, seed=1),
    "averaging": RunSpec(algorithm="averaging", n=4, d=2, epsilon=0.5,
                         seed=1),
}


class TestSingleCheck:
    @pytest.mark.parametrize("algorithm", sorted(ONE_RUN_PER_ALGORITHM))
    def test_problem_spec_checked_once_per_run(self, algorithm, monkeypatch):
        calls = []
        original = ProblemSpec.check

        def counting_check(self, *args, **kwargs):
            calls.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ProblemSpec, "check", counting_check)
        out = run(ONE_RUN_PER_ALGORITHM[algorithm])
        assert out.ok
        assert len(calls) == 1

    def test_recheck_reuses_the_run_spec_and_tolerance(self, rng):
        inputs = rng.normal(size=(4, 2))
        out = run(RunSpec(algorithm="algo", inputs=inputs, f=1,
                          adversary=Adversary(faulty=[3])))
        assert out.recheck(out.decisions) == out.report
        moved = {pid: v + 30.0 for pid, v in out.decisions.items()}
        report = out.recheck(moved)
        assert report.agreement_ok and not report.validity_ok
        assert set(report.violations) == set(out.decisions)
