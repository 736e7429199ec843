"""The two seams between the protocol state machines and the world.

The SHARQFEC and SRM agents are pure state machines: everything they do is
"when this timer fires or this PDU arrives, mutate state and maybe send".
They touch their environment through exactly two narrow interfaces:

* :class:`Clock` — virtual or wall time plus timer scheduling, named RNG
  streams and the tracer.  :class:`repro.sim.scheduler.Simulator` is the
  simulation implementation; :class:`repro.transport.clock.AsyncioClock`
  adapts a live ``asyncio`` event loop for real deployments.
* :class:`Transport` — multicast-group creation, subscription and send.
  :class:`repro.net.network.Network` is the simulated fabric;
  :class:`repro.transport.udp.UdpTransport` speaks real UDP datagrams
  through a relay (see ``docs/TRANSPORT.md``).

Because the agents only ever use these surfaces, the same protocol code
runs unchanged in a deterministic simulation and over real sockets — the
property the loopback demo (``scripts/loopback_demo.py``) exercises
end-to-end.

Contract notes
--------------

* ``schedule``/``at`` return a handle exposing ``time``, ``cancelled`` and
  ``fired`` (the surface :class:`repro.sim.timers.Timer` needs);
  ``reschedule`` re-arms *pending* handles, ``rearm`` re-arms *fired*
  ones — both raise ``ValueError`` on cancelled handles.
* A simulation :class:`Clock` raises on scheduling in the past (time
  travel is a bug there); a wall :class:`Clock` clamps to "now" instead,
  because real callbacks always run slightly late.
* ``Transport.create_group`` assigns ids deterministically in call order,
  so independent processes that build the same channel plan in the same
  order agree on every group id without negotiation.
* Handlers subscribed via ``Transport.subscribe`` are invoked synchronously
  in the clock's execution context (the event loop thread); agents never
  need locks.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Protocol, runtime_checkable

from repro.net.packet import Packet
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer


@runtime_checkable
class TimerHandle(Protocol):
    """What ``Clock.schedule``/``Clock.at`` return.

    :class:`repro.sim.events.Event` and
    :class:`repro.transport.clock.WallTimerHandle` both satisfy this.
    """

    time: float

    @property
    def cancelled(self) -> bool:
        ...

    @property
    def fired(self) -> bool:
        ...


@runtime_checkable
class Clock(Protocol):
    """Time, timers, named RNG streams and tracing.

    ``isinstance`` checks verify method presence only (``Protocol``
    semantics); the behavioural contract lives in the module docstring
    and in ``tests/test_transport_clock.py``.
    """

    rng: RngRegistry
    tracer: Tracer

    @property
    def now(self) -> float:
        """Current time in seconds (virtual or wall, epoch at clock start)."""
        ...

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Any:
        """Run ``callback(*args)`` ``delay`` seconds from now; returns a handle."""
        ...

    def at(self, time: float, callback: Callable[..., Any], *args: Any) -> Any:
        """Run ``callback(*args)`` at absolute ``time``; returns a handle."""
        ...

    def call_at(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`at` (no cancellable handle)."""
        ...

    def cancel(self, event: Any) -> None:
        """Cancel a handle (no-op if already cancelled or fired)."""
        ...

    def reschedule(self, event: Any, delay: float) -> Any:
        """Re-arm a *pending* handle ``delay`` seconds from now."""
        ...

    def rearm(self, event: Any, delay: float) -> Any:
        """Re-arm a *fired* handle ``delay`` seconds from now."""
        ...


@runtime_checkable
class GroupRef(Protocol):
    """What ``Transport.create_group`` returns: at minimum the group id."""

    group_id: int


@runtime_checkable
class Transport(Protocol):
    """Multicast-group plumbing: create, subscribe, send.

    :class:`repro.net.network.Network` (simulated fabric) and
    :class:`repro.transport.udp.UdpTransport` (real UDP datagrams) both
    satisfy this; :class:`repro.scoping.channels.ScopedChannels` and the
    protocol agents program against it exclusively.
    """

    def create_group(self, name: str = "", scope: Optional[set] = None) -> GroupRef:
        """Allocate the next multicast group id (deterministic call order).

        ``scope`` restricts delivery to a node set where the transport can
        enforce it (the simulated network does; a datagram transport's
        relay scopes by subscription instead).
        """
        ...

    def subscribe(
        self, group_id: int, node_id: int, handler: Callable[[Packet], None]
    ) -> None:
        """Deliver every packet multicast to ``group_id`` to ``handler``."""
        ...

    def unsubscribe(
        self, group_id: int, node_id: int, handler: Callable[[Packet], None]
    ) -> None:
        """Undo :meth:`subscribe` (idempotent)."""
        ...

    def multicast(self, src: int, packet: Packet) -> None:
        """Send ``packet`` to every subscriber of ``packet.group`` except
        ``src`` itself."""
        ...
