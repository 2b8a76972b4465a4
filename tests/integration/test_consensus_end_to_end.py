"""Full-stack integration: every algorithm × a battery of adversaries,
through the simulator with real broadcast protocols."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import RunSpec, run
from repro.core.bounds import theorem9_bound
from repro.system.adversary import (
    Adversary,
    CrashStrategy,
    DuplicateStrategy,
    EquivocateStrategy,
    MutateStrategy,
    SilentStrategy,
)


def eig_value_lie(tag, payload, rng):
    """Mutate the value carried by an EIG relay (payload = (path, value))."""
    path, value = payload
    if value is None:
        return payload
    return (path, tuple(v + 10.0 for v in value))


def eig_value_equivocate(tag, payload, dst, rng):
    path, value = payload
    if value is None:
        return payload
    return (path, tuple(v + float(dst) for v in value))


ADVERSARIES = {
    "honest": lambda: None,  # faulty process follows protocol (proof adversary)
    "silent": SilentStrategy,
    "crash-r1": lambda: CrashStrategy(1),
    "crash-partial": lambda: CrashStrategy(0, partial_recipients={1}),
    "lie": lambda: MutateStrategy(eig_value_lie),
    "equivocate": lambda: EquivocateStrategy(eig_value_equivocate),
    "duplicate": lambda: DuplicateStrategy(3),
}


def make_adversary(kind: str, faulty: list[int]) -> Adversary:
    strat = ADVERSARIES[kind]()
    return Adversary(faulty=faulty) if strat is None else Adversary(
        faulty=faulty, strategy=strat
    )


class TestExactBVCIntegration:
    @pytest.mark.parametrize("kind", sorted(ADVERSARIES))
    def test_d2_f1_all_adversaries(self, kind, rng):
        inputs = rng.normal(size=(5, 2))  # n=5 >= max(4, 4)... (d+1)f+1=4
        out = run(RunSpec(algorithm="exact", inputs=inputs, f=1,
                          adversary=make_adversary(kind, [4])))
        assert out.ok, f"{kind}: {out.report}"

    def test_d3_f1(self, rng):
        inputs = rng.normal(size=(5, 3))  # exactly (d+1)f+1
        out = run(RunSpec(algorithm="exact", inputs=inputs, f=1,
                          adversary=make_adversary("lie", [0])))
        assert out.ok

    def test_failure_free(self, rng):
        inputs = rng.normal(size=(4, 2))
        out = run(RunSpec(algorithm="exact", inputs=inputs, f=1))
        assert out.ok

    def test_dolev_strong_transport(self, rng):
        inputs = rng.normal(size=(5, 2))
        out = run(RunSpec(algorithm="exact", inputs=inputs, f=1,
                          adversary=make_adversary("silent", [3]),
                          broadcast="dolev-strong"))
        assert out.ok

    def test_f2_om(self, rng):
        inputs = rng.normal(size=(7, 2))  # (d+1)f+1 = 7, 3f+1 = 7
        out = run(RunSpec(algorithm="krelaxed", inputs=inputs, f=2, k=1,
                          adversary=make_adversary("equivocate", [5, 6])))
        assert out.ok


class TestAlgoIntegration:
    @pytest.mark.parametrize("kind", sorted(ADVERSARIES))
    def test_below_classic_bound(self, kind, rng):
        """n = d+1 with d = 3: exact BVC impossible, ALGO succeeds with
        input-dependent δ."""
        inputs = rng.normal(size=(4, 3))
        out = run(RunSpec(algorithm="algo", inputs=inputs, f=1,
                          adversary=make_adversary(kind, [2])))
        assert out.ok, f"{kind}: {out.report}"
        assert out.delta_used is not None

    def test_delta_within_theorem9(self, rng):
        """δ* honours the Theorem 9 bound computed on honest inputs, even
        with the faulty input thrown far outside the honest hull (the
        regime the input-dependent bound exists for)."""
        d = 3
        for seed in range(5):
            r = np.random.default_rng(seed)
            honest = r.normal(size=(d, d))
            faulty_row = honest.mean(axis=0, keepdims=True) + 30.0
            inputs = np.vstack([honest, faulty_row])
            out = run(RunSpec(algorithm="algo", inputs=inputs, f=1,
                              adversary=Adversary(faulty=[d]), seed=seed))
            assert out.ok
            assert 0 < out.delta_used < theorem9_bound(out.honest_inputs, d + 1)

    def test_in_hull_fault_gives_zero_delta(self, rng):
        """Conversely: a faulty input inside the honest hull lies in every
        leave-one-out hull, so Γ is nonempty and δ* = 0."""
        d = 3
        honest = rng.normal(size=(d, d))
        faulty_row = honest.mean(axis=0, keepdims=True)
        inputs = np.vstack([honest, faulty_row])
        out = run(RunSpec(algorithm="algo", inputs=inputs, f=1,
                          adversary=Adversary(faulty=[d])))
        assert out.ok
        assert out.delta_used == pytest.approx(0.0, abs=1e-9)

    def test_agreement_is_exact(self, rng):
        inputs = rng.normal(size=(4, 3))
        out = run(RunSpec(algorithm="algo", inputs=inputs, f=1,
                          adversary=make_adversary("equivocate", [1])))
        assert out.report.agreement_diameter <= 1e-9

    def test_p_inf(self, rng):
        inputs = rng.normal(size=(4, 3))
        out = run(RunSpec(algorithm="algo", inputs=inputs, f=1, p=math.inf,
                          adversary=make_adversary("silent", [3])))
        assert out.ok

    def test_degenerate_inputs_delta_zero(self, rng):
        """Theorem 8: affinely dependent inputs ⇒ ALGO achieves δ = 0."""
        from repro.analysis.workloads import degenerate_inputs

        inputs = degenerate_inputs(rng, 4, 3, rank=2)
        out = run(RunSpec(algorithm="algo", inputs=inputs, f=1,
                          adversary=Adversary(faulty=[1])))
        assert out.ok
        assert out.delta_used == pytest.approx(0.0, abs=1e-7)


class TestKRelaxedIntegration:
    @pytest.mark.parametrize("kind", ["honest", "silent", "lie", "equivocate"])
    def test_k1_minimal_system(self, kind, rng):
        """k=1 at the 3f+1 floor, any d."""
        inputs = rng.normal(size=(4, 5))
        out = run(RunSpec(algorithm="krelaxed", inputs=inputs, f=1, k=1,
                          adversary=make_adversary(kind, [3])))
        assert out.ok, f"{kind}: {out.report}"

    def test_k2_at_its_bound(self, rng):
        inputs = rng.normal(size=(5, 3))  # wait: k=2, d=3 needs (d+1)f+1=5... wait 4f+1? no (d+1)f+1=4+1
        out = run(RunSpec(algorithm="krelaxed", inputs=inputs, f=1, k=2,
                          adversary=make_adversary("lie", [4])))
        assert out.ok

    def test_kd_equals_exact(self, rng):
        inputs = rng.normal(size=(5, 2))
        out_k = run(RunSpec(algorithm="krelaxed", inputs=inputs, f=1, k=2,
                            adversary=Adversary(faulty=[0])))
        out_e = run(RunSpec(algorithm="exact", inputs=inputs, f=1,
                            adversary=Adversary(faulty=[0])))
        np.testing.assert_allclose(
            out_k.decisions[1], out_e.decisions[1], atol=1e-9
        )


class TestScalarIntegration:
    @pytest.mark.parametrize("kind", ["honest", "silent", "lie", "crash-r1"])
    def test_minimal_system(self, kind, rng):
        inputs = rng.normal(size=(4, 1))
        out = run(RunSpec(algorithm="scalar", inputs=inputs, f=1,
                          adversary=make_adversary(kind, [2])))
        assert out.ok, f"{kind}: {out.report}"

    def test_extreme_faulty_value(self, rng):
        """A faulty process with an absurd input cannot drag the decision
        outside the honest range."""
        inputs = np.array([[0.0], [1.0], [2.0], [1e9]])
        out = run(RunSpec(algorithm="scalar", inputs=inputs, f=1,
                          adversary=Adversary(faulty=[3])))
        assert out.ok
        dec = next(iter(out.decisions.values()))
        assert 0.0 <= dec[0] <= 2.0


class TestDeterminismAndTranscripts:
    def test_same_seed_same_outcome(self, rng):
        inputs = rng.normal(size=(4, 3))
        o1 = run(RunSpec(algorithm="algo", inputs=inputs, f=1,
                         adversary=Adversary(faulty=[1]), seed=5))
        o2 = run(RunSpec(algorithm="algo", inputs=inputs, f=1,
                         adversary=Adversary(faulty=[1]), seed=5))
        for pid in o1.decisions:
            np.testing.assert_allclose(o1.decisions[pid], o2.decisions[pid])

    def test_message_stats_collected(self, rng):
        inputs = rng.normal(size=(4, 2))
        out = run(RunSpec(algorithm="exact", inputs=inputs, f=1))
        assert out.result.stats.messages_sent > 0
        assert out.result.stats.messages_delivered > 0

    def test_rounds_are_f_plus_2(self, rng):
        inputs = rng.normal(size=(4, 2))
        out = run(RunSpec(algorithm="exact", inputs=inputs, f=1))
        assert out.result.rounds == 3  # rounds 0..f sends, decide at f+1
