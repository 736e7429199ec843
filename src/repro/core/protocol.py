"""Session-level wiring: hierarchy + channels + sender + receivers.

``SharqfecProtocol`` is the public entry point: give it a network, a zone
hierarchy (or none for the non-scoped variants), a config and the node
roles, and it builds the channel plan and the agents, and exposes the
start/stat helpers the experiment drivers use.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.churn import ReceiverChurn
from repro.core.config import SharqfecConfig
from repro.core.receiver import SharqfecReceiver
from repro.core.sender import SharqfecSender
from repro.errors import ConfigError, ProtocolError
from repro.net.network import Network
from repro.net.packet import Packet
from repro.scoping.channels import ScopedChannels
from repro.scoping.zone import ZoneHierarchy


def _remote_member_handler(packet: Packet) -> None:
    """Delivery stub for members whose agents live in another shard.

    Remote members must *subscribe* here so every shard computes identical
    multicast trees, but their packets are handed across the shard boundary
    before arrival — this handler firing means ownership pruning failed.
    """
    raise ProtocolError(
        f"packet {packet.kind!r} delivered to a remote session member"
    )


class GroupCompletion:
    """Completion over ``self.receivers`` in units of ``config.n_groups``."""

    config: SharqfecConfig
    receivers: Dict[int, SharqfecReceiver]

    def completion_fraction(self) -> float:
        """Fraction of (receiver, group) pairs fully reconstructed."""
        total = len(self.receivers) * self.config.n_groups
        if total == 0:
            return 1.0
        done = sum(r.groups_complete() for r in self.receivers.values())
        return done / total

    def all_complete(self) -> bool:
        """True when every receiver reconstructed every group."""
        return all(
            r.all_complete(self.config.n_groups) for r in self.receivers.values()
        )

    def incomplete_receivers(self) -> List[int]:
        """Receiver ids still missing at least one group."""
        return [
            rid
            for rid, r in self.receivers.items()
            if not r.all_complete(self.config.n_groups)
        ]


class SharqfecProtocol(ReceiverChurn, GroupCompletion):
    """One SHARQFEC session over a simulated network."""

    def __init__(
        self,
        network: Network,
        config: SharqfecConfig,
        source_id: int,
        receiver_ids: Iterable[int],
        hierarchy: Optional[ZoneHierarchy] = None,
        static_zcrs: Optional[Dict[int, int]] = None,
        local_nodes: Optional[Iterable[int]] = None,
    ) -> None:
        self.network = network
        self.sim = network.sim
        self.config = config
        self.source_id = source_id
        self.receiver_ids: List[int] = sorted(set(receiver_ids) - {source_id})
        if not self.receiver_ids:
            raise ConfigError("a session needs at least one receiver")
        members = set(self.receiver_ids) | {source_id}
        if not config.scoping or hierarchy is None:
            # Non-scoped variants collapse the hierarchy to a single zone.
            flat = ZoneHierarchy()
            flat.add_root(members, name="Z0")
            self.hierarchy = flat
        else:
            missing = members - hierarchy.members()
            if missing:
                raise ConfigError(
                    f"hierarchy does not cover session members {sorted(missing)}"
                )
            self.hierarchy = hierarchy
        self.channels = ScopedChannels(network, self.hierarchy)
        # A zone-sharded engine builds one protocol slice per shard: agents
        # only for the owned nodes, subscription stubs for everyone else
        # (joined in _start_sessions) so multicast trees stay identical in
        # every shard.  local_nodes=None is the ordinary monolithic build.
        if local_nodes is None:
            local = members
        else:
            local = members & set(local_nodes)
        self.local_nodes = None if local_nodes is None else frozenset(local_nodes)
        self._remote_members = sorted(members - local)
        self.sender: Optional[SharqfecSender] = (
            SharqfecSender(source_id, self.sim, network, self.channels, config, source_id)
            if source_id in local
            else None
        )
        self.receivers: Dict[int, SharqfecReceiver] = {
            rid: SharqfecReceiver(
                rid, self.sim, network, self.channels, config, source_id
            )
            for rid in self.receiver_ids
            if rid in local
        }
        if static_zcrs:
            self._seed_static_zcrs(static_zcrs)

    def _seed_static_zcrs(self, static_zcrs: Dict[int, int]) -> None:
        """Provision designed ZCRs (§5.2: "a cache placed next to the
        zone's Border Gateway Router").  Members start with the assignment
        already known; the challenge phase then only serves as the
        robustness fallback."""
        for zone_id, zcr_node in static_zcrs.items():
            zone = self.hierarchy.zone(zone_id)
            if zcr_node not in zone.nodes:
                raise ConfigError(
                    f"static ZCR {zcr_node} is not a member of zone {zone.name!r}"
                )
            agents = [self.sender] if self.sender is not None else []
            agents.extend(self.receivers.values())
            for agent in agents:
                if agent.session.zone_level_index(zone_id) is not None:
                    agent.session.zcr_ids[zone_id] = zcr_node

    # -------------------------------------------------------------- lifecycle

    def start(self, session_start: float = 1.0, data_start: float = 6.0) -> None:
        """Schedule the paper's run shape: sessions at t=1, data at t=6 (§6.2)."""
        if data_start < session_start:
            raise ConfigError("data must not start before the session")
        self.sim.at(session_start, self._start_sessions)
        if self.sender is not None:
            self.sim.at(data_start, self.sender.start_stream, data_start)

    def _start_sessions(self) -> None:
        if self.sender is not None:
            self.sender.start_session()
        for receiver in self.receivers.values():
            if not receiver._stopped:
                # Deferred receivers (defer_receiver) sit out until joined.
                receiver.start_session()
        # Remote members subscribe at the same session-start instant their
        # real agents (in other shards) do, keeping tree membership in
        # lockstep across shards.
        stub = _remote_member_handler
        for node_id in self._remote_members:
            self.channels.join_member(node_id, stub, stub, stub)

    def stop(self) -> None:
        """Cancel every agent timer (ends an open-ended run cleanly)."""
        if self.sender is not None:
            self.sender.stop()
        for receiver in self.receivers.values():
            receiver.stop()

    # ------------------------------------------------------------- statistics

    def data_end_time(self, data_start: float = 6.0) -> float:
        """When the CBR stream finishes."""
        return data_start + self.config.n_packets * self.config.inter_packet_interval

    def total_nacks_sent(self) -> int:
        """NACK transmissions summed over receivers."""
        return sum(r.nacks_sent for r in self.receivers.values())

    def variant_name(self) -> str:
        """Paper-style protocol name for reports."""
        return self.config.variant_name()
