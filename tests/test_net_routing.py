"""Unit tests for Dijkstra routing and multicast tree construction."""

from __future__ import annotations

import pytest

from repro.errors import RoutingError
from repro.net.routing import RoutingTable, shortest_path_tree, shortest_paths

# A small weighted graph with a shortcut: 0-1-2 direct is longer than 0-3-2.
GRAPH = {
    0: {1: 1.0, 3: 0.5},
    1: {0: 1.0, 2: 1.0},
    2: {1: 1.0, 3: 0.5},
    3: {0: 0.5, 2: 0.5},
}


def test_shortest_paths_distances():
    dist, parent = shortest_paths(GRAPH, 0)
    assert dist[0] == 0.0
    assert dist[3] == 0.5
    assert dist[2] == 1.0  # via 3, not via 1
    assert dist[1] == 1.0
    assert parent[2] == 3


def test_unknown_source_raises():
    with pytest.raises(RoutingError):
        shortest_paths(GRAPH, 99)


def test_allowed_set_restricts_search():
    dist, _ = shortest_paths(GRAPH, 0, allowed={0, 1, 2})
    assert dist[2] == 2.0  # forced through node 1
    with pytest.raises(RoutingError):
        shortest_paths(GRAPH, 0, allowed={1, 2})


def test_disconnected_node_absent_from_dist():
    graph = {0: {1: 1.0}, 1: {0: 1.0}, 2: {}}
    dist, _ = shortest_paths(graph, 0)
    assert 2 not in dist


def test_tree_spans_members_only():
    children = shortest_path_tree(GRAPH, 0, members=[2])
    # Path 0 -> 3 -> 2; node 1 must not be on the tree.
    assert children == {0: [3], 3: [2]}


def test_tree_shares_common_prefix():
    graph = {
        0: {1: 1.0},
        1: {0: 1.0, 2: 1.0, 3: 1.0},
        2: {1: 1.0},
        3: {1: 1.0},
    }
    children = shortest_path_tree(graph, 0, members=[2, 3])
    assert children[0] == [1]
    assert sorted(children[1]) == [2, 3]


def test_tree_with_source_as_member_is_fine():
    children = shortest_path_tree(GRAPH, 0, members=[0, 2])
    assert children == {0: [3], 3: [2]}


def test_tree_unreachable_member_raises():
    graph = {0: {1: 1.0}, 1: {0: 1.0}, 2: {}}
    with pytest.raises(RoutingError):
        shortest_path_tree(graph, 0, members=[2])


def test_tree_no_members_is_empty():
    assert shortest_path_tree(GRAPH, 0, members=[]) == {}


def test_routing_table_paths():
    table = RoutingTable(GRAPH, 0)
    assert table.path_to(2) == [0, 3, 2]
    assert table.distance_to(2) == pytest.approx(1.0)
    assert table.path_to(0) == [0]
    assert table.reachable(1)


def test_routing_table_errors():
    graph = {0: {1: 1.0}, 1: {0: 1.0}, 2: {}}
    table2 = RoutingTable(graph, 0)
    assert not table2.reachable(2)
    with pytest.raises(RoutingError):
        table2.distance_to(2)
    with pytest.raises(RoutingError):
        table2.path_to(2)
