"""Declarative run specification — the single vocabulary for experiments.

A :class:`RunSpec` is one frozen value describing one consensus
execution: which algorithm, the system shape ``(n, d, f)``, the inputs
(given explicitly or derived from ``seed``), the adversary, and every
algorithm knob.  ``repro.core.runner.run(spec)`` executes it; it is the
only way to run and check an execution.

Why a dataclass instead of six functions: the experiment engine
(:mod:`repro.exec`), the DST explorer, the benchmarks, and the CLI all
need to *build, store, and compare* run descriptions before executing
them — a frozen value does that; a call frame does not.

Canonical knob vocabulary (see ``docs/api.md``):

============  =========================================================
``p``         norm order of the relaxation (legacy: also ``norm``)
``broadcast``   broadcast primitive of the synchronous algorithms
              (legacy name: ``transport``)
``transport``   execution backend (``"sim"``, ``"live-tcp"``,
              ``"live-uds"``) — see :mod:`repro.system.transport`
``rounds``    protocol rounds an algorithm executes (legacy
              ``num_rounds``); ``None`` means the algorithm's default
``max_rounds``  synchronous scheduler safety cap, not a protocol knob
``max_steps``   asynchronous scheduler safety cap
``epsilon``   agreement target (approximate/averaging algorithms)
``delta``     relaxation radius requested of the checker/algorithm
``check_delta``  validity-checker δ override (default: achieved δ*)
============  =========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

if TYPE_CHECKING:
    from ..obs.metrics import MetricsRegistry
    from ..system.adversary import Adversary
    from ..system.scheduler import DeliveryPolicy
    from ..system.topology import Topology

__all__ = ["ALGORITHMS", "RunSpec"]

PNorm = Union[float, int]

#: Canonical algorithm names accepted by :func:`repro.core.runner.run`.
ALGORITHMS = ("exact", "algo", "krelaxed", "scalar", "iterative", "averaging")


@dataclass(frozen=True, eq=False)
class RunSpec:
    """One consensus execution, as a frozen plain value.

    Parameters
    ----------
    algorithm:
        One of :data:`ALGORITHMS`: ``"exact"`` (Vaidya–Garg exact BVC),
        ``"algo"`` (the paper's ALGO), ``"krelaxed"``, ``"scalar"``,
        ``"iterative"`` (Vaidya 2014 approximate BVC), ``"averaging"``
        (Relaxed Verified Averaging, asynchronous).
    inputs:
        Explicit ``(n, d)`` input matrix.  When omitted, inputs are
        derived deterministically from ``seed``/``input_scale`` over the
        declared ``(n, d)`` shape — the same derivation the DST
        :class:`~repro.dst.scenarios.Scenario` uses.
    n, d:
        System shape.  Redundant (and checked) when ``inputs`` is given;
        required when it is not.
    f:
        Maximum number of Byzantine processes.
    adversary:
        :class:`~repro.system.adversary.Adversary` (default: none
        faulty).
    broadcast:
        Broadcast primitive for the synchronous algorithms (``"eig"``,
        ``"dolev-strong"``, or ``"atomic"``).  This was historically
        named ``transport``; that name now selects the execution
        backend instead.
    transport:
        Execution backend, one of the registered transport names:
        ``"sim"`` (deterministic in-process simulator, the default),
        ``"live-tcp"`` / ``"live-uds"`` (real asyncio nodes over
        loopback sockets; honest runs only).
    topology:
        Communication graph for ``"iterative"`` (default: complete).
    p, k, delta, epsilon:
        Relaxation knobs: norm order, coordinate relaxation, relaxation
        radius, agreement target.
    check_delta:
        Validity-checker δ override for ``"algo"`` (default: the
        achieved δ* plus solver-tolerance headroom).
    mode:
        ``"averaging"`` selection mode: ``"optimal"`` (the paper's) or
        ``"zero"`` (classic verified-averaging baseline).
    alpha:
        ``"iterative"`` mixing weight.
    rounds:
        Protocol rounds (``"iterative"`` steps / ``"averaging"``
        rounds).  ``None``: the algorithm's own default (30 for
        iterative; the contraction-bound estimate for averaging).
    max_rounds, max_steps:
        Scheduler safety caps (synchronous rounds / async activations).
    probes:
        Online invariant probes evaluated during the run: names from
        :data:`repro.obs.probes.PROBE_NAMES` (or ``"all"``), or
        pre-built :class:`~repro.obs.probes.Probe` objects.  Reports
        surface as ``RunResult.probes``; enabling probes never changes a
        decision.
    policy:
        Async delivery policy (``"averaging"`` only).
    seed:
        Master seed: drives the scheduler, the adversary rng, and —
        when ``inputs`` is omitted — the input derivation.
    input_scale:
        Standard deviation of derived inputs.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` installed
        for the run; the run's own metrics land in it (and it is
        surfaced as ``RunResult.metrics``).
    """

    algorithm: str
    f: int = 1
    inputs: Optional[np.ndarray] = None
    n: Optional[int] = None
    d: Optional[int] = None
    adversary: Optional["Adversary"] = None
    broadcast: str = "eig"
    transport: str = "sim"
    topology: Optional["Topology"] = None
    p: PNorm = 2
    k: int = 1
    delta: float = 0.0
    epsilon: float = 1e-2
    check_delta: Optional[float] = None
    mode: str = "optimal"
    alpha: float = 0.5
    rounds: Optional[int] = None
    max_rounds: int = 64
    max_steps: int = 2_000_000
    policy: Optional["DeliveryPolicy"] = None
    probes: tuple = ()
    seed: int = 0
    input_scale: float = 3.0
    metrics: Optional["MetricsRegistry"] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; choices {ALGORITHMS}"
            )
        if self.f < 0:
            raise ValueError(f"f must be >= 0, got {self.f}")
        from ..system.broadcast.interface import BROADCAST_KINDS

        if self.broadcast not in BROADCAST_KINDS + ("atomic",):
            raise ValueError(
                f"unknown broadcast {self.broadcast!r}; choices "
                f"{BROADCAST_KINDS + ('atomic',)}"
            )
        if self.transport in BROADCAST_KINDS + ("atomic",):
            raise ValueError(
                f"transport={self.transport!r} names a broadcast "
                f"primitive; the broadcast knob was renamed — write "
                f"broadcast={self.transport!r}.  transport now selects "
                f"the execution backend ('sim', 'live-tcp', 'live-uds')."
            )
        from ..system.transport.base import transport_names

        if self.transport not in transport_names():
            raise ValueError(
                f"unknown transport {self.transport!r}; choices "
                f"{transport_names()}"
            )
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.delta < 0:
            raise ValueError(f"delta must be >= 0, got {self.delta}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.rounds is not None and self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if not isinstance(self.probes, tuple):
            object.__setattr__(self, "probes", tuple(self.probes))
        from ..obs.probes import PROBE_NAMES

        for probe in self.probes:
            if isinstance(probe, str):
                if probe not in PROBE_NAMES + ("all",):
                    raise ValueError(
                        f"unknown probe {probe!r}; choices "
                        f"{PROBE_NAMES + ('all',)}"
                    )
            elif not hasattr(probe, "on_boundary"):
                raise ValueError(
                    f"probes entries must be names or Probe objects, "
                    f"got {type(probe).__name__}"
                )
        if self.inputs is not None:
            arr = np.atleast_2d(np.asarray(self.inputs, dtype=float)).copy()
            arr.setflags(write=False)
            object.__setattr__(self, "inputs", arr)
            n, d = arr.shape
            if self.n is not None and self.n != n:
                raise ValueError(f"n={self.n} disagrees with inputs shape {arr.shape}")
            if self.d is not None and self.d != d:
                raise ValueError(f"d={self.d} disagrees with inputs shape {arr.shape}")
            object.__setattr__(self, "n", n)
            object.__setattr__(self, "d", d)
        else:
            if self.n is None or self.d is None:
                raise ValueError(
                    "either inputs or both n and d must be given "
                    f"(got n={self.n}, d={self.d})"
                )
        assert self.n is not None and self.d is not None
        if self.n < 1 or self.d < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got n={self.n}, d={self.d}")
        if self.algorithm == "scalar" and self.d != 1:
            raise ValueError(f"scalar consensus requires d=1, got d={self.d}")

    def resolved_inputs(self) -> np.ndarray:
        """The ``(n, d)`` input matrix this spec runs on.

        Explicit ``inputs`` verbatim; otherwise the deterministic
        seed-derived matrix (``default_rng(seed).normal(scale=
        input_scale, size=(n, d))``, matching the DST scenario DSL).
        """
        if self.inputs is not None:
            return self.inputs
        rng = np.random.default_rng(self.seed)
        return rng.normal(scale=self.input_scale, size=(self.n, self.d))

    def with_inputs(self, inputs: np.ndarray) -> "RunSpec":
        """Copy of this spec pinned to an explicit input matrix."""
        return replace(self, inputs=inputs, n=None, d=None)

    def describe(self) -> dict[str, object]:
        """Plain-data summary (for logs/JSON; arrays and objects elided)."""
        out: dict[str, object] = {}
        for fld in fields(self):
            value = getattr(self, fld.name)
            if fld.name == "inputs":
                out[fld.name] = None if value is None else list(value.shape)
            elif fld.name in ("adversary", "topology", "policy", "metrics"):
                out[fld.name] = None if value is None else type(value).__name__
            elif fld.name == "probes":
                out[fld.name] = [
                    probe if isinstance(probe, str)
                    else getattr(probe, "name", type(probe).__name__)
                    for probe in value
                ]
            else:
                out[fld.name] = value
        return out
