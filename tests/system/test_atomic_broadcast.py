"""Tests for the reliable-broadcast-channel model (paper footnote 3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RunSpec, run
from repro.system import (
    ALL,
    Adversary,
    Message,
    MutateStrategy,
    SilentStrategy,
)
from repro.system.adversary import ByzantineStrategy
from repro.system.network import Network
from repro.system.process import AsyncProcess, Context, SyncProcess
from repro.system.scheduler import AsyncScheduler, SynchronousScheduler


class AtomicEcho(SyncProcess):
    def on_round(self, ctx, r, inbox):
        if r == 0:
            ctx.atomic_broadcast("v", ctx.pid, round=0)
        elif r == 1:
            got = sorted(
                payload for entries in inbox.values() for _, payload in entries
            )
            ctx.decide(tuple(got))


class TestAtomicMessage:
    def test_sentinel(self):
        msg = Message(0, ALL, "t", None)
        assert msg.is_atomic_broadcast

    def test_network_accepts_atomic(self):
        net = Network(3)
        net.submit(Message(1, ALL, "t", "x"))
        assert net.pending_count() == 1

    def test_context_atomic_broadcast_queues_one(self, rng):
        ctx = Context(0, 4, 1, rng)
        ctx.atomic_broadcast("t", "payload")
        assert len(ctx.outbox) == 1
        assert ctx.outbox[0].is_atomic_broadcast


class TestAtomicSync:
    def test_fanout_identical(self):
        procs = [AtomicEcho() for _ in range(4)]
        res = SynchronousScheduler(procs, f=0).run()
        assert all(v == (0, 1, 2, 3) for v in res.decisions.values())

    def test_mutation_allowed_equivocation_impossible(self):
        """A faulty sender may change its atomic value (one value for
        everyone) but a strategy that splits it into point-to-point sends
        is rejected by the channel model."""
        procs = [AtomicEcho() for _ in range(4)]
        adv = Adversary(
            faulty=[1], strategy=MutateStrategy(lambda tag, p, rng: 99)
        )
        res = SynchronousScheduler(procs, f=1, adversary=adv).run()
        vals = [res.decisions[p] for p in (0, 2, 3)]
        assert all(v == (0, 2, 3, 99) for v in vals)  # same lie to all

    def test_deatomise_rejected(self):
        class Deatomiser(ByzantineStrategy):
            def transform(self, msg, view):
                return [Message(msg.src, 0, msg.tag, msg.payload, round=msg.round)]

        procs = [AtomicEcho() for _ in range(4)]
        adv = Adversary(faulty=[1], strategy=Deatomiser())
        with pytest.raises(ValueError):
            SynchronousScheduler(procs, f=1, adversary=adv).run()

    def test_silent_atomic(self):
        procs = [AtomicEcho() for _ in range(4)]
        adv = Adversary(faulty=[2], strategy=SilentStrategy())
        res = SynchronousScheduler(procs, f=1, adversary=adv).run()
        assert res.decisions[0] == (0, 1, 3)


class AtomicAsyncEcho(AsyncProcess):
    def on_start(self, ctx):
        ctx.atomic_broadcast("v", ctx.pid)
        self.got = set()

    def on_message(self, ctx, src, tag, payload):
        self.got.add(payload)
        if len(self.got) == ctx.n and not ctx.decided:
            ctx.decide(tuple(sorted(self.got)))


class TestAtomicAsync:
    def test_async_fanout(self):
        procs = [AtomicAsyncEcho() for _ in range(3)]
        res = AsyncScheduler(procs, f=0).run()
        assert res.completed
        assert all(v == (0, 1, 2) for v in res.decisions.values())


class TestFootnote3Consensus:
    """n = 3f suffices on a broadcast channel (the paper's footnote 3)."""

    def test_algo_n3_f1(self, rng):
        inputs = rng.normal(size=(3, 3))
        out = run(RunSpec(algorithm="algo", inputs=inputs, f=1,
                          adversary=Adversary(faulty=[2]), broadcast="atomic"))
        assert out.ok
        assert out.result.rounds == 2  # the whole Step 1 is one exchange

    def test_algo_n3_with_outlier_fault(self, rng):
        inputs = rng.normal(size=(3, 4))
        inputs[2] = 100.0
        out = run(RunSpec(algorithm="algo", inputs=inputs, f=1,
                          adversary=Adversary(faulty=[2]), broadcast="atomic"))
        assert out.ok
        assert out.delta_used > 0

    def test_k1_n3(self, rng):
        inputs = rng.normal(size=(3, 2))
        out = run(RunSpec(algorithm="krelaxed", inputs=inputs, f=1, k=1,
                          adversary=Adversary(faulty=[1]), broadcast="atomic"))
        assert out.ok

    def test_atomic_matches_eig_failure_free(self, rng):
        """On failure-free runs the atomic channel and OM(f) produce the
        identical multiset, hence the identical decision."""
        inputs = rng.normal(size=(4, 3))
        a = run(RunSpec(algorithm="algo", inputs=inputs, f=1,
                        broadcast="atomic"))
        b = run(RunSpec(algorithm="algo", inputs=inputs, f=1, broadcast="eig"))
        np.testing.assert_allclose(a.decisions[0], b.decisions[0], atol=1e-9)
