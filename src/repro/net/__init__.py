"""Network model: nodes, links, routing and multicast forwarding.

This subpackage is the ``ns``-equivalent substrate the SHARQFEC paper ran on:
duplex links with bandwidth / propagation delay / Bernoulli loss, Dijkstra
shortest-path routing, and source-rooted multicast trees with hop-by-hop
forwarding (so a single upstream loss deprives the whole subtree, matching
the paper's loss-correlation-by-tree behaviour).
"""

from repro.net.link import Link
from repro.net.monitor import TrafficMonitor
from repro.net.multicast import MulticastGroup
from repro.net.network import DEFAULT_RECONVERGENCE_DELAY, Network
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.routing import (
    RoutingTable,
    best_effort_tree,
    shortest_path_tree,
    shortest_paths,
)

__all__ = [
    "DEFAULT_RECONVERGENCE_DELAY",
    "Link",
    "MulticastGroup",
    "Network",
    "Node",
    "Packet",
    "RoutingTable",
    "TrafficMonitor",
    "best_effort_tree",
    "shortest_path_tree",
    "shortest_paths",
]
