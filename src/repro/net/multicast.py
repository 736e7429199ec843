"""Multicast group state.

A :class:`MulticastGroup` tracks subscribers and an optional *scope*: the set
of nodes a packet addressed to the group may traverse.  Administrative
scoping (``repro.scoping``) builds its per-zone repair channels on top of
this by setting ``scope`` to the zone's node set — forwarding in
``repro.net.network`` refuses to cross the boundary, exactly like a border
router configured with an admin-scoped address range.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.errors import ScopeError


class MulticastGroup:
    """Subscribers + scope for one multicast address."""

    __slots__ = ("group_id", "name", "subscribers", "scope", "version")

    def __init__(
        self,
        group_id: int,
        name: str = "",
        scope: Optional[Set[int]] = None,
    ) -> None:
        self.group_id = group_id
        self.name = name or f"g{group_id}"
        self.subscribers: Set[int] = set()
        self.scope: Optional[Set[int]] = set(scope) if scope is not None else None
        # Bumped on membership change; the Network uses it to
        # invalidate cached multicast trees.
        self.version = 0

    def subscribe(self, node_id: int) -> None:
        """Add a subscriber.  Must lie inside the scope, if one is set."""
        if self.scope is not None and node_id not in self.scope:
            raise ScopeError(
                f"node {node_id} outside scope of group {self.name!r}"
            )
        if node_id not in self.subscribers:
            self.subscribers.add(node_id)
            self.version += 1

    def unsubscribe(self, node_id: int) -> None:
        """Remove a subscriber (no error if absent)."""
        if node_id in self.subscribers:
            self.subscribers.discard(node_id)
            self.version += 1

    def allows(self, node_id: int) -> bool:
        """True if packets on this group may traverse ``node_id``."""
        return self.scope is None or node_id in self.scope

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        scope = "global" if self.scope is None else f"{len(self.scope)} nodes"
        return f"<Group {self.group_id} {self.name!r} subs={len(self.subscribers)} scope={scope}>"
