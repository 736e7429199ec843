"""``NodeRuntime``: one protocol endpoint in one OS process, over real UDP.

The runtime is the real-transport analogue of what
:class:`repro.core.protocol.SharqfecProtocol` does for a simulation: build
the hierarchy and channel plan, construct the agent, schedule the run
shape.  The crucial difference is that *each process builds only its own
agent* — the other members are live processes across the network — so
correctness rests on every process deriving the identical channel plan:

* all processes are given the same sorted member list and source id,
* they build the same (flat, single-zone) :class:`ZoneHierarchy`,
* :class:`~repro.scoping.channels.ScopedChannels` calls ``create_group``
  in hierarchy order, and :class:`~repro.transport.udp.UdpTransport`
  assigns ids deterministically in call order,

so every process independently computes the same group ids and the relay
can stay plan-oblivious.

The flat hierarchy makes the source the zone's statically-known ZCR
(§6.1's "top ZCR"), which means repairs flow without any election traffic
— the right first target for a real-transport smoke test.  Deeper
hierarchies need nothing new from this module: any
``members``-covering hierarchy built identically in every process works.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Iterable, Optional

from repro.core.config import SharqfecConfig
from repro.core.protocol import GroupCompletion
from repro.core.receiver import SharqfecReceiver
from repro.core.sender import SharqfecSender
from repro.errors import ConfigError
from repro.scoping.channels import ScopedChannels
from repro.scoping.zone import ZoneHierarchy
from repro.transport.clock import AsyncioClock
from repro.transport.udp import Addr, UdpTransport

__all__ = ["NodeRuntime", "ProtocolView"]


class ProtocolView(GroupCompletion):
    """Duck-typed stand-in for ``SharqfecProtocol`` over this process's agents.

    Exposes the ``receivers``/``config``/``all_complete`` surface that
    :mod:`repro.testing.invariants` (and the demo's assertions) consume, so
    the simulation-grade eventual-delivery check runs verbatim against a
    real-transport node.
    """

    def __init__(self, config: SharqfecConfig, receivers: Dict[int, SharqfecReceiver]) -> None:
        self.config = config
        self.receivers = receivers


class NodeRuntime:
    """Everything one member process needs: clock, transport, agent, shape."""

    def __init__(
        self,
        node_id: int,
        members: Iterable[int],
        source_id: int,
        relay_addr: Addr,
        config: Optional[SharqfecConfig] = None,
        seed: int = 0,
        loop: Optional[asyncio.AbstractEventLoop] = None,
    ) -> None:
        self.node_id = node_id
        self.members = sorted(set(members))
        if source_id not in self.members:
            raise ConfigError(f"source {source_id} is not in the member list")
        if node_id not in self.members:
            raise ConfigError(f"node {node_id} is not in the member list")
        self.source_id = source_id
        self.config = config if config is not None else SharqfecConfig()
        self.relay_addr = relay_addr
        # Per-node seed offset keeps suppression-timer draws independent
        # across processes (in-sim, distinct stream names do this job).
        self.clock = AsyncioClock(loop=loop, seed=seed + node_id)
        self.transport = UdpTransport(self.clock, relay_addr)
        self.hierarchy = ZoneHierarchy()
        self.hierarchy.add_root(self.members, name="Z0")
        self.channels: Optional[ScopedChannels] = None
        self.agent: Optional[Any] = None

    @property
    def is_sender(self) -> bool:
        return self.node_id == self.source_id

    # ------------------------------------------------------------- lifecycle

    async def start(self, session_start: float = 0.5, data_start: float = 2.0) -> None:
        """Open the socket, build the agent, schedule the run shape.

        Times are relative to this clock's epoch; start all member
        processes within roughly ``session_start`` of each other.  (The
        protocol tolerates skew — a late member simply NACKs its way back —
        but the demo keeps the shape recognizable.)
        """
        if data_start < session_start:
            raise ConfigError("data must not start before the session")
        await self.transport.start()
        self.channels = ScopedChannels(self.transport, self.hierarchy)
        if self.is_sender:
            self.agent = SharqfecSender(
                self.node_id, self.clock, self.transport, self.channels,
                self.config, self.source_id,
            )
            self.clock.at(session_start, self.agent.start_session)
            self.clock.at(data_start, self.agent.start_stream, data_start)
        else:
            self.agent = SharqfecReceiver(
                self.node_id, self.clock, self.transport, self.channels,
                self.config, self.source_id,
            )
            self.clock.at(session_start, self.agent.start_session)

    def stop(self) -> None:
        if self.agent is not None:
            self.agent.stop()
        self.transport.close()

    # ------------------------------------------------------------ completion

    def protocol_view(self) -> ProtocolView:
        receivers = (
            {} if self.is_sender else {self.node_id: self.agent}
        )
        return ProtocolView(self.config, receivers)

    def complete(self) -> bool:
        """Sender: trivially true.  Receiver: every group reconstructed."""
        if self.is_sender or self.agent is None:
            return True
        return self.agent.all_complete(self.config.n_groups)

    async def wait_complete(
        self, timeout: float, poll_interval: float = 0.1, announce: bool = True
    ) -> bool:
        """Poll until :meth:`complete` or ``timeout`` wall seconds elapse.

        On completion (receivers only) the node announces ``DONE`` to the
        relay so an orchestrator can observe the roster filling up.
        """
        deadline = self.clock.now + timeout
        while not self.complete():
            if self.clock.now >= deadline:
                return False
            await asyncio.sleep(poll_interval)
        if announce and not self.is_sender:
            self.transport.announce_done(self.node_id)
        return True
