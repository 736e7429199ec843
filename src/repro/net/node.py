"""Node model.

A node is a router + optional host.  Routing is done by the
:class:`~repro.net.network.Network` (which owns the topology); the node
object holds per-group delivery callbacks registered by protocol agents.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.net.packet import Packet

DeliveryHandler = Callable[[Packet], None]


class Node:
    """A network node identified by a small integer id."""

    __slots__ = ("node_id", "name", "up", "_handlers")

    def __init__(self, node_id: int, name: Optional[str] = None) -> None:
        self.node_id = node_id
        self.name = name if name is not None else f"n{node_id}"
        # Crash state (see repro.faults): a down node neither delivers nor
        # forwards nor originates packets — its agents' timers keep running,
        # but everything they transmit is swallowed at the NIC, which models
        # a host whose network interface died and later came back.
        self.up = True
        # Copy-on-write handler tuples: delivery iterates them without a
        # defensive copy, and (un)subscribing mid-delivery replaces the
        # tuple rather than mutating the one being iterated.
        self._handlers: Dict[int, Tuple[DeliveryHandler, ...]] = {}

    # ----------------------------------------------------------- subscription

    def add_handler(self, group: int, handler: DeliveryHandler) -> None:
        """Register a callback for packets delivered on ``group``."""
        self._handlers[group] = self._handlers.get(group, ()) + (handler,)

    def remove_handler(self, group: int, handler: DeliveryHandler) -> None:
        """Remove a callback (ValueError if it was never registered)."""
        handlers = self._handlers.get(group)
        if not handlers or handler not in handlers:
            raise ValueError(f"handler not registered for group {group} at {self.name}")
        index = handlers.index(handler)
        remaining = handlers[:index] + handlers[index + 1 :]
        if remaining:
            self._handlers[group] = remaining
        else:
            del self._handlers[group]

    def groups(self) -> List[int]:
        """Group ids this node currently has handlers for."""
        return list(self._handlers)

    # --------------------------------------------------------------- delivery

    def deliver(self, packet: Packet) -> None:
        """Hand a multicast packet to every handler subscribed to its group."""
        handlers = self._handlers.get(packet.group)
        if handlers:
            for handler in handlers:
                handler(packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.node_id} {self.name!r}>"
