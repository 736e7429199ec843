"""Zone and zone-hierarchy data structures.

A :class:`ZoneHierarchy` is a tree of nested node sets:

* the root zone (level 0) spans the whole session — the paper's Z0;
* every child zone's node set is a subset of its parent's;
* sibling zones are disjoint.

Receivers are members of every zone containing them; their *membership
chain* runs from their smallest zone up to the root.  SHARQFEC's repair
localization, session-traffic scoping, ZLC state and ZCR election are all
organized along these chains.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.errors import ScopeError


class Zone:
    """One administratively scoped region."""

    __slots__ = ("zone_id", "name", "nodes", "parent_id", "child_ids", "level")

    def __init__(
        self,
        zone_id: int,
        name: str,
        nodes: Set[int],
        parent_id: Optional[int],
        level: int,
    ) -> None:
        self.zone_id = zone_id
        self.name = name
        self.nodes = set(nodes)
        self.parent_id = parent_id
        self.child_ids: List[int] = []
        self.level = level

    @property
    def is_root(self) -> bool:
        """True for the largest-scope zone (the paper's Z0)."""
        return self.parent_id is None

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.nodes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Zone {self.zone_id} {self.name!r} level={self.level} |nodes|={len(self.nodes)}>"


class ZoneHierarchy:
    """A validated tree of nested zones.

    Build with :meth:`add_root` then :meth:`add_zone`; every mutation
    re-checks the nesting invariants so an invalid hierarchy is impossible
    to construct.
    """

    def __init__(self) -> None:
        self._zones: Dict[int, Zone] = {}
        self._root_id: Optional[int] = None
        self._next_id = 0

    # ---------------------------------------------------------------- building

    def add_root(self, nodes: Iterable[int], name: str = "Z0") -> Zone:
        """Create the largest-scope zone covering ``nodes``."""
        if self._root_id is not None:
            raise ScopeError("hierarchy already has a root zone")
        zone = Zone(self._next_id, name, set(nodes), None, 0)
        if not zone.nodes:
            raise ScopeError("root zone must contain at least one node")
        self._next_id += 1
        self._zones[zone.zone_id] = zone
        self._root_id = zone.zone_id
        return zone

    def add_zone(self, parent_id: int, nodes: Iterable[int], name: str = "") -> Zone:
        """Create a child zone nested inside ``parent_id``."""
        parent = self.zone(parent_id)
        node_set = set(nodes)
        if not node_set:
            raise ScopeError("zone must contain at least one node")
        outside = node_set - parent.nodes
        if outside:
            raise ScopeError(
                f"nodes {sorted(outside)} not contained in parent zone {parent.name!r}"
            )
        for sibling_id in parent.child_ids:
            overlap = node_set & self._zones[sibling_id].nodes
            if overlap:
                raise ScopeError(
                    f"nodes {sorted(overlap)} overlap sibling zone "
                    f"{self._zones[sibling_id].name!r}"
                )
        zone = Zone(
            self._next_id,
            name or f"Z{self._next_id}",
            node_set,
            parent_id,
            parent.level + 1,
        )
        self._next_id += 1
        self._zones[zone.zone_id] = zone
        parent.child_ids.append(zone.zone_id)
        return zone

    # ------------------------------------------------------------------ lookup

    @property
    def root(self) -> Zone:
        """The largest-scope zone."""
        if self._root_id is None:
            raise ScopeError("hierarchy has no root zone")
        return self._zones[self._root_id]

    def zone(self, zone_id: int) -> Zone:
        """Zone by id (ScopeError if unknown)."""
        try:
            return self._zones[zone_id]
        except KeyError:
            raise ScopeError(f"unknown zone {zone_id}") from None

    def zones(self) -> List[Zone]:
        """All zones, root first, in creation order."""
        return list(self._zones.values())

    def parent(self, zone_id: int) -> Optional[Zone]:
        """Parent zone, or None for the root."""
        z = self.zone(zone_id)
        if z.parent_id is None:
            return None
        return self._zones[z.parent_id]

    def children(self, zone_id: int) -> List[Zone]:
        """Immediate child zones."""
        return [self._zones[c] for c in self.zone(zone_id).child_ids]

    def chain_for(self, node_id: int) -> List[Zone]:
        """Membership chain for a node: smallest zone first, root last.

        A node's smallest zone is the deepest zone containing it; because
        siblings are disjoint the chain is unique.
        """
        if self._root_id is None or node_id not in self.root:
            raise ScopeError(f"node {node_id} not in the session's root zone")
        chain: List[Zone] = []
        current = self.root
        while True:
            deeper = None
            for child_id in current.child_ids:
                child = self._zones[child_id]
                if node_id in child:
                    deeper = child
                    break
            if deeper is None:
                break
            current = deeper
        # Walk back up from the deepest zone.
        z: Optional[Zone] = current
        while z is not None:
            chain.append(z)
            z = self._zones[z.parent_id] if z.parent_id is not None else None
        return chain

    def smallest_zone(self, node_id: int) -> Zone:
        """The deepest zone containing a node."""
        return self.chain_for(node_id)[0]

    def members(self) -> Set[int]:
        """All session member node ids (the root zone's nodes)."""
        return set(self.root.nodes)

    def depth(self) -> int:
        """Number of levels (root-only hierarchy has depth 1)."""
        if self._root_id is None:
            return 0
        return 1 + max((z.level for z in self._zones.values()), default=0)

    def validate(self) -> None:
        """Re-check every nesting invariant (cheap; used by tests)."""
        if self._root_id is None:
            raise ScopeError("hierarchy has no root zone")
        for zone in self._zones.values():
            if zone.parent_id is not None:
                parent = self._zones[zone.parent_id]
                if not zone.nodes <= parent.nodes:
                    raise ScopeError(f"zone {zone.name!r} escapes its parent")
                if zone.level != parent.level + 1:
                    raise ScopeError(f"zone {zone.name!r} has inconsistent level")
            for a_index, a in enumerate(zone.child_ids):
                for b in zone.child_ids[a_index + 1 :]:
                    if self._zones[a].nodes & self._zones[b].nodes:
                        raise ScopeError(
                            f"children of {zone.name!r} overlap: {a} vs {b}"
                        )
