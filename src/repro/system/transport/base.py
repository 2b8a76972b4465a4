"""The transport abstraction: one protocol surface, pluggable backends.

A :class:`Transport` executes protocol processes — the same
:class:`~repro.system.process.SyncProcess` / ``AsyncProcess`` objects,
driving the same :class:`~repro.system.process.Context` surface — over
some message-moving substrate and returns the usual
:class:`~repro.system.scheduler.RunResult`.  Two backends ship:

``"sim"``
    :class:`~repro.system.transport.sim.SimTransport` — a thin adapter
    over the in-process :class:`~repro.system.scheduler.SynchronousScheduler`
    / ``AsyncScheduler``.  Deterministic and bit-identical to driving the
    schedulers directly: DST replay, causal tracing, probes, and the
    sweep decision digests all run through it unchanged.

``"live-tcp"`` / ``"live-uds"``
    :class:`~repro.system.transport.live.LiveTransport` — real asyncio
    nodes speaking the length-prefixed wire protocol of
    :mod:`repro.system.transport.wire` over loopback TCP or Unix-domain
    sockets, with peer handshake, reconnect, and per-link backpressure.
    Honest executions only (a live network has no rushing adversary).

Protocol code (``core/``) selects a backend by name through
:func:`get_transport`; the registry is the construction-time validation
surface for ``RunSpec.transport``.  Backends register lazily so that
importing this module stays cheap and cycle-free.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from importlib import import_module
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from ..adversary import Adversary
    from ..process import AsyncProcess, SyncProcess
    from ..scheduler import DeliveryPolicy, RunResult
    from ..topology import Topology
    from ...obs.probes import Probe

__all__ = [
    "Transport",
    "TransportError",
    "get_transport",
    "register_transport",
    "transport_names",
]


class TransportError(RuntimeError):
    """A transport backend could not execute the requested run."""


class Transport(ABC):
    """One message-moving backend capable of executing protocol processes.

    Implementations receive fully constructed process objects (the
    protocol layer owns process construction — including signature
    schemes and per-algorithm parameters) and drive them to decisions.
    ``rng`` is the run's master generator, already positioned by the
    runner (after any signature-scheme key draw), so the deterministic
    backend stays bit-identical; non-deterministic backends derive per-node seeds from
    ``seed`` instead.
    """

    #: Registry name of this backend (``"sim"``, ``"live-tcp"``, ...).
    name: str = ""
    #: True when two runs of the same spec produce identical decisions.
    deterministic: bool = False

    @abstractmethod
    def run_sync(
        self,
        processes: Sequence["SyncProcess"],
        f: int,
        *,
        adversary: Optional["Adversary"] = None,
        rng: Optional["np.random.Generator"] = None,
        max_rounds: int = 10_000,
        sign: Optional[Callable[[int, Any], Any]] = None,
        topology: Optional["Topology"] = None,
        probes: Sequence["Probe"] = (),
        seed: int = 0,
    ) -> "RunResult":
        """Execute lockstep synchronous rounds until decision (or cap)."""

    @abstractmethod
    def run_async(
        self,
        processes: Sequence["AsyncProcess"],
        f: int,
        *,
        adversary: Optional["Adversary"] = None,
        policy: Optional["DeliveryPolicy"] = None,
        rng: Optional["np.random.Generator"] = None,
        max_steps: int = 1_000_000,
        probes: Sequence["Probe"] = (),
        seed: int = 0,
    ) -> "RunResult":
        """Execute event-driven asynchronous delivery until decision."""


#: name -> zero-argument factory returning a ready Transport instance.
_LOADERS: dict[str, Callable[[], Transport]] = {}


def register_transport(name: str, loader: Callable[[], Transport]) -> None:
    """Register a backend factory under ``name`` (idempotent overwrite).

    ``loader`` is called lazily, once per :func:`get_transport` call, so
    registering never imports the backend module.
    """
    _LOADERS[name] = loader


def transport_names() -> tuple[str, ...]:
    """Registered backend names, sorted — ``RunSpec.transport`` choices."""
    return tuple(sorted(_LOADERS))


def get_transport(name: str) -> Transport:
    """Instantiate the backend registered under ``name``.

    Raises ``ValueError`` (not ``KeyError``) on unknown names so callers
    validating user input get a message with the available choices.
    """
    loader = _LOADERS.get(name)
    if loader is None:
        raise ValueError(
            f"unknown transport {name!r}; choices {transport_names()}"
        )
    return loader()


def _lazy(module: str, attr: str, **kwargs: Any) -> Callable[[], Transport]:
    def load() -> Transport:
        backend_cls = getattr(import_module(module), attr)
        backend: Transport = backend_cls(**kwargs)
        return backend

    return load


register_transport("sim", _lazy("repro.system.transport.sim", "SimTransport"))
register_transport(
    "live-tcp", _lazy("repro.system.transport.live", "LiveTransport", kind="tcp")
)
register_transport(
    "live-uds", _lazy("repro.system.transport.live", "LiveTransport", kind="uds")
)
