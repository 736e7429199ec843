"""Scoped multicast channels for a SHARQFEC session.

The paper's channel plan (§3.2): *one* data channel at maximum scope, plus a
repair channel per zone.  We additionally give each zone a session channel —
the paper sends session messages "within the smallest-known scope zone",
which is exactly a per-zone scoped channel.

``ScopedChannels`` materializes that plan on a :class:`~repro.net.Network`
for a given :class:`~repro.scoping.ZoneHierarchy`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.errors import ScopeError
from repro.net.packet import Packet
from repro.scoping.zone import Zone, ZoneHierarchy
from repro.transport.api import Transport


class ZoneChannels:
    """The pair of scoped channels belonging to one zone."""

    __slots__ = ("zone_id", "repair_group_id", "session_group_id")

    def __init__(self, zone_id: int, repair_group_id: int, session_group_id: int) -> None:
        self.zone_id = zone_id
        self.repair_group_id = repair_group_id
        self.session_group_id = session_group_id


class ScopedChannels:
    """Channel plan: one global data channel + repair/session channels per zone."""

    def __init__(self, transport: Transport, hierarchy: ZoneHierarchy) -> None:
        self.transport = transport
        self.hierarchy = hierarchy
        root = hierarchy.root
        # Group-id agreement across independent processes rests on this
        # create_group call order being a pure function of the hierarchy.
        self.data_group_id = transport.create_group(
            f"{root.name}.data", scope=set(root.nodes)
        ).group_id
        self._zone_channels: Dict[int, ZoneChannels] = {}
        for zone in hierarchy.zones():
            repair = transport.create_group(f"{zone.name}.repair", scope=set(zone.nodes))
            session = transport.create_group(f"{zone.name}.session", scope=set(zone.nodes))
            self._zone_channels[zone.zone_id] = ZoneChannels(
                zone.zone_id, repair.group_id, session.group_id
            )

    # ------------------------------------------------------------------ lookup

    def for_zone(self, zone_id: int) -> ZoneChannels:
        """Channels of one zone (ScopeError if unknown)."""
        try:
            return self._zone_channels[zone_id]
        except KeyError:
            raise ScopeError(f"no channels for zone {zone_id}") from None

    def repair_group(self, zone_id: int) -> int:
        """Repair-channel group id for a zone."""
        return self.for_zone(zone_id).repair_group_id

    def session_group(self, zone_id: int) -> int:
        """Session-channel group id for a zone."""
        return self.for_zone(zone_id).session_group_id

    def zone_of_group(self, group_id: int) -> Optional[int]:
        """Reverse lookup: which zone does a repair/session group belong to."""
        for zc in self._zone_channels.values():
            if group_id in (zc.repair_group_id, zc.session_group_id):
                return zc.zone_id
        return None

    # ---------------------------------------------------------------- joins

    def join_member(
        self,
        node_id: int,
        data_handler: Callable[[Packet], None],
        repair_handler: Callable[[Packet], None],
        session_handler: Callable[[Packet], None],
    ) -> List[Zone]:
        """Subscribe a session member to its full channel set.

        A member joins the data channel plus the repair and session channels
        of *every* zone on its membership chain: repairs from larger zones
        must reach it (the paper's speculative-repair dequeue rule), and it
        must hear ancestor-zone session traffic to learn ZCR distances.

        Returns the membership chain (smallest zone first).
        """
        chain = self.hierarchy.chain_for(node_id)
        self.transport.subscribe(self.data_group_id, node_id, data_handler)
        for zone in chain:
            zc = self._zone_channels[zone.zone_id]
            self.transport.subscribe(zc.repair_group_id, node_id, repair_handler)
            self.transport.subscribe(zc.session_group_id, node_id, session_handler)
        return chain

    def leave_member(
        self,
        node_id: int,
        data_handler: Callable[[Packet], None],
        repair_handler: Callable[[Packet], None],
        session_handler: Callable[[Packet], None],
    ) -> None:
        """Undo :meth:`join_member`."""
        chain = self.hierarchy.chain_for(node_id)
        self.transport.unsubscribe(self.data_group_id, node_id, data_handler)
        for zone in chain:
            zc = self._zone_channels[zone.zone_id]
            self.transport.unsubscribe(zc.repair_group_id, node_id, repair_handler)
            self.transport.unsubscribe(zc.session_group_id, node_id, session_handler)
