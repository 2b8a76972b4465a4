"""Tests for iterative Byzantine vector consensus on topologies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.iterative import IterativeBVCProcess, iterative_update
from repro.core.runner import RunSpec, run
from repro.system import Adversary, EquivocateStrategy, MutateStrategy, SilentStrategy
from repro.system.topology import (
    complete_topology,
    random_regular_topology,
    ring_lattice_topology,
    wheel_of_cliques_topology,
)


class TestIterativeUpdate:
    def test_moves_toward_gamma(self, rng):
        own = np.array([10.0, 10.0])
        nbrs = [np.zeros(2) for _ in range(4)]
        new = iterative_update(own, nbrs, f=1, alpha=0.5)
        assert np.linalg.norm(new) < np.linalg.norm(own)

    def test_alpha_one_jumps(self, rng):
        own = np.array([1.0, 1.0])
        nbrs = [np.zeros(2)] * 4
        new = iterative_update(own, nbrs, f=1, alpha=1.0)
        from repro.geometry.intersections import gamma_point

        M = np.vstack([own[None, :]] + [v[None, :] for v in nbrs])
        np.testing.assert_allclose(new, gamma_point(M, 1), atol=1e-9)

    def test_stalls_safely_when_gamma_empty(self):
        """Too few neighbours: Γ empty, value held (never an unsafe move)."""
        own = np.array([1.0, 2.0])
        nbrs = [np.array([0.0, 0.0]), np.array([3.0, 1.0])]  # |M|=3 < 4
        new = iterative_update(own, nbrs, f=1)
        np.testing.assert_array_equal(new, own)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            iterative_update(np.zeros(2), [np.zeros(2)] * 4, 1, alpha=0.0)

    def test_validity_invariant(self, rng):
        """The update never leaves the hull of {own} ∪ honest neighbours,
        whichever f of the neighbours are faulty."""
        from repro.geometry.distance import in_hull

        for seed in range(10):
            r = np.random.default_rng(seed)
            own = r.normal(size=2)
            honest = [r.normal(size=2) for _ in range(4)]
            evil = [r.normal(size=2) * 100]
            new = iterative_update(own, honest + evil, f=1, alpha=1.0)
            assert in_hull(np.vstack([own] + honest), new, tol=1e-6)


class TestIterativeProcess:
    def test_rejects_bad_rounds(self):
        with pytest.raises(ValueError):
            IterativeBVCProcess(
                4, 1, 0, np.zeros(2),
                topology=complete_topology(4), num_rounds=0,
            )

    def test_history_recorded(self, rng):
        inputs = rng.normal(size=(5, 2))
        out = run(RunSpec(algorithm="iterative", inputs=inputs, f=1, rounds=5,
                          epsilon=10.0))
        assert out.ok


class TestIterativeEndToEnd:
    def test_complete_graph_convergence(self, rng):
        inputs = rng.normal(size=(5, 2))
        out = run(RunSpec(algorithm="iterative", inputs=inputs, f=1, rounds=40,
                          epsilon=1e-3))
        assert out.ok
        assert out.report.agreement_diameter <= 1e-3

    def test_complete_graph_equivocator(self, rng):
        def equiv(tag, payload, dst, r):
            return tuple(v + dst * 3.0 for v in payload)

        inputs = rng.normal(size=(5, 2))
        out = run(RunSpec(algorithm="iterative", inputs=inputs, f=1, rounds=60,
                          epsilon=1e-2,
                          adversary=Adversary(
                              faulty=[4], strategy=EquivocateStrategy(equiv))))
        assert out.ok, out.report

    def test_silent_fault_on_wheel(self, rng):
        topo = wheel_of_cliques_topology(3, 4)
        inputs = rng.normal(size=(12, 2))
        out = run(RunSpec(algorithm="iterative", inputs=inputs, f=1,
                          topology=topo, rounds=60, epsilon=1e-2,
                          adversary=Adversary(faulty=[5], strategy=SilentStrategy())))
        assert out.ok

    def test_sparse_regular_graph_failure_free(self, rng):
        topo = random_regular_topology(9, 6, seed=2)
        inputs = rng.normal(size=(9, 3))
        out = run(RunSpec(algorithm="iterative", inputs=inputs, f=1,
                          topology=topo, rounds=60, epsilon=1e-2))
        assert out.ok

    def test_validity_always_holds_even_when_agreement_does_not(self, rng):
        """On an unsupported topology (Γ mostly empty) the processes
        stall rather than move unsafely: validity holds, agreement may
        not — safety over liveness."""
        topo = ring_lattice_topology(6, 1)
        inputs = rng.normal(size=(6, 2))
        out = run(RunSpec(algorithm="iterative", inputs=inputs, f=1,
                          topology=topo, rounds=15, epsilon=1e-2))
        assert out.report.validity_ok
        assert not topo.supports_iterative_bvc(2, 1)

    def test_lying_neighbour_cannot_break_validity(self, rng):
        def lie(tag, payload, r):
            return tuple(v * 50.0 + 7.0 for v in payload)

        inputs = rng.normal(size=(5, 2))
        out = run(RunSpec(algorithm="iterative", inputs=inputs, f=1, rounds=50,
                          epsilon=1e-2,
                          adversary=Adversary(
                              faulty=[0], strategy=MutateStrategy(lie))))
        assert out.report.validity_ok
        assert out.report.agreement_ok

    def test_alpha_one_faster(self, rng):
        inputs = rng.normal(size=(5, 2))
        slow = run(RunSpec(algorithm="iterative", inputs=inputs, f=1, rounds=8,
                           alpha=0.3, epsilon=1e9))
        fast = run(RunSpec(algorithm="iterative", inputs=inputs, f=1, rounds=8,
                           alpha=1.0, epsilon=1e9))
        assert (
            fast.report.agreement_diameter
            <= slow.report.agreement_diameter + 1e-12
        )
