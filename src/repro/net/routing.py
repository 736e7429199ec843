"""Shortest-path routing.

Dijkstra over link propagation latency.  Used for multicast tree
construction, for path loss, and by the experiment drivers to compute the
*true* RTT matrix against which SHARQFEC's indirect estimates are scored
(Figures 11–13).
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.errors import RoutingError

Adjacency = Mapping[int, Mapping[int, float]]  # node -> neighbor -> latency


def shortest_paths(
    adjacency: Adjacency,
    source: int,
    allowed: Optional[Set[int]] = None,
) -> Tuple[Dict[int, float], Dict[int, int]]:
    """Single-source Dijkstra.

    Args:
        adjacency: latency-weighted adjacency map.
        source: root node.
        allowed: if given, the search is restricted to this node set (used
            to model administrative scope boundaries).

    Returns:
        (dist, parent): shortest distance from source per reachable node,
        and the predecessor of each node on its shortest path (source has no
        entry in ``parent``).
    """
    if source not in adjacency:
        raise RoutingError(f"unknown source node {source}")
    if allowed is not None and source not in allowed:
        raise RoutingError(f"source {source} outside allowed set")
    dist: Dict[int, float] = {source: 0.0}
    parent: Dict[int, int] = {}
    done: Set[int] = set()
    heap: List[Tuple[float, int]] = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in adjacency[u].items():
            if allowed is not None and v not in allowed:
                continue
            nd = d + w
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, parent


def best_effort_tree(
    adjacency: Adjacency,
    source: int,
    members: Iterable[int],
    allowed: Optional[Set[int]] = None,
) -> Tuple[Dict[int, List[int]], Set[int]]:
    """Build the source-rooted multicast tree, pruning unreachable members.

    Like :func:`shortest_path_tree` but tolerant of severed members: the
    network layer routes over the *converged* adjacency, where down links
    and crashed nodes may legitimately cut part of a group off until the
    topology heals and routing reconverges again.

    Returns:
        (children, unreachable): the tree spanning the reachable members,
        and the set of members with no path from the source within the
        allowed set.
    """
    member_set = set(members)
    member_set.discard(source)
    _, parent = shortest_paths(adjacency, source, allowed)
    children: Dict[int, List[int]] = {}
    on_tree: Set[int] = {source}
    unreachable: Set[int] = set()
    for member in member_set:
        if member not in parent:
            unreachable.add(member)
            continue
        node = member
        while node not in on_tree:
            p = parent[node]
            children.setdefault(p, []).append(node)
            on_tree.add(node)
            node = p
    return children, unreachable


def shortest_path_tree(
    adjacency: Adjacency,
    source: int,
    members: Iterable[int],
    allowed: Optional[Set[int]] = None,
) -> Dict[int, List[int]]:
    """Build the source-rooted multicast tree spanning ``members``.

    The tree is the union of shortest paths from ``source`` to each member,
    pruned of branches that reach no member — i.e. the tree a shortest-path
    multicast routing protocol (DVMRP/PIM-style with symmetric metrics)
    would build.

    Returns:
        children: map node -> list of child nodes.  Nodes not in the map are
        leaves (or not on the tree).

    Raises:
        RoutingError: if a member is unreachable from the source within the
            allowed set.
    """
    children, unreachable = best_effort_tree(adjacency, source, members, allowed)
    if unreachable:
        member = min(unreachable)
        raise RoutingError(f"member {member} unreachable from {source}")
    return children


class RoutingTable:
    """Per-source cached routing state over a fixed topology.

    Wraps ``shortest_paths`` results with convenience accessors.  The
    :class:`~repro.net.network.Network` owns one per source on demand and
    invalidates the cache on topology change.
    """

    def __init__(self, adjacency: Adjacency, source: int) -> None:
        self._source = source
        self._dist, self._parent = shortest_paths(adjacency, source)

    @property
    def source(self) -> int:
        """The root node of this table."""
        return self._source

    def distance_to(self, node: int) -> float:
        """One-way shortest-path latency from the source to ``node``."""
        try:
            return self._dist[node]
        except KeyError:
            raise RoutingError(f"node {node} unreachable from {self._source}") from None

    def reachable(self, node: int) -> bool:
        """True if ``node`` is reachable from the source."""
        return node in self._dist

    def path_to(self, node: int) -> List[int]:
        """Node sequence from source to ``node`` inclusive."""
        if node == self._source:
            return [node]
        if node not in self._parent:
            raise RoutingError(f"node {node} unreachable from {self._source}")
        path = [node]
        while path[-1] != self._source:
            path.append(self._parent[path[-1]])
        path.reverse()
        return path
