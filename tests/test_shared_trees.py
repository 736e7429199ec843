"""Every source's compiled tree equals the tree compiled on its own.

In a tree-shaped scope the network builds one set of forwarding records per
group and serves every source from it (``Network._shared_tree``).  The oracle
here is the general compiler: ``best_effort_tree`` over the converged
adjacency, then ``_compile_record``.  The two must agree in node ids, child
order (it decides which loss draw each link takes) and the identity of every
Node, Link and group object, on the national hierarchy and on Figure 10.
"""

from __future__ import annotations

import pytest

from repro.experiments.national_scale import national_spec
from repro.net.network import Network
from repro.net.routing import best_effort_tree
from repro.scenario import RunSpec, World
from repro.sim.scheduler import Simulator

from tests.test_cyclic_garbage import TOY_NATIONAL

NATIONAL_504 = dict(regions=2, cities_per_region=1, suburbs_per_city=5,
                    subscribers_per_suburb=50)


def record_shape(record):
    """A record as nested tuples of node ids and object identities."""
    node_id, node, group, kids = record
    return (node_id, id(node), id(group),
            tuple((id(link), record_shape(child)) for link, child in kids))


def oracle(network, src, group):
    members = set(group.subscribers)
    members.discard(src)
    children, _ = best_effort_tree(network._converged_adjacency, src, members, group.scope)
    return network._compile_record(src, group, children)


def is_shared(network, src, group):
    """True when ``src``'s cached root record came from the shared records."""
    shared = network._zone_cache[group.group_id][1]
    record = network._sched_cache[(group.group_id, src)][1]
    return shared is not None and shared[2].get((None, src)) is record


def check_every_source(network):
    """Compare every (group, in-scope source) pair; returns (shared, general)."""
    shared = general = 0
    for group in list(network.groups.values()):
        scope = network.nodes if group.scope is None else group.scope
        for src in sorted(scope):
            got = network._schedule_for(src, group)
            assert record_shape(got) == record_shape(oracle(network, src, group)), (
                group.name, src)
            if is_shared(network, src, group):
                shared += 1
            else:
                general += 1
    return shared, general


def is_tree(network, group):
    scope = network.nodes if group.scope is None else group.scope
    adjacency = network._converged_adjacency
    edges = sum(1 for u in scope for v in adjacency[u] if v in scope) // 2
    return edges == len(scope) - 1


def joined_world(spec):
    """A world run just past session start, when every member has joined."""
    world = World(spec, Simulator(seed=1))
    world.network.sim.run(until=spec.session_start + 0.01)
    assert all(group.subscribers for group in world.network.groups.values())
    return world


def national_world(**shape):
    return joined_world(national_spec(n_packets=16, seed=1, **shape))


@pytest.mark.parametrize("shape", [TOY_NATIONAL, NATIONAL_504], ids=["toy", "504"])
def test_every_national_source_is_served_from_the_shared_records(shape):
    network = national_world(**shape).network
    assert all(is_tree(network, group) for group in network.groups.values())
    shared, general = check_every_source(network)
    assert shared > 0 and general == 0


@pytest.mark.parametrize("protocol", ["SHARQFEC", "SHARQFEC(ns,ni,so)", "SRM"])
def test_figure10_sources_match_the_general_compiler(protocol):
    network = joined_world(RunSpec(protocol=protocol, n_packets=16)).network
    shared, general = check_every_source(network)
    cyclic = [g for g in network.groups.values() if not is_tree(network, g)]
    assert cyclic, "Figure 10's backbone has cycles"
    for group in cyclic:
        assert network._zone_cache[group.group_id][1] is None
        assert not any(is_shared(network, src, group) for src in group.scope)
    assert general >= sum(len(g.scope) for g in cyclic)
    assert (shared > 0) == (len(cyclic) < len(network.groups))


def test_a_severed_leaf_and_an_unsubscribe_rebuild_the_shared_records():
    world = national_world(**TOY_NATIONAL)
    network = world.network
    check_every_source(network)
    # A receiver's only link fails: after reconvergence every scope that
    # holds it is a forest and compiles on the general path.
    leaf = max(world.receivers)
    (hub,) = network._adjacency[leaf]
    network.set_link_up(leaf, hub, False)
    network.sim.run(until=network.sim.now + network.reconvergence_delay + 0.01)
    assert network.reconvergences == 1
    forests = [g for g in network.groups.values() if leaf in g.scope]
    shared, general = check_every_source(network)
    assert general == sum(len(g.scope) for g in forests) and shared > 0
    assert all(network._zone_cache[g.group_id][1] is None for g in forests)
    # Healed, then one member leaves: a new stamp, shared records again.
    network.set_link_up(leaf, hub, True)
    network.sim.run(until=network.sim.now + network.reconvergence_delay + 0.01)
    assert network.reconvergences == 2
    assert check_every_source(network)[1] == 0
    group = forests[0]
    before = network._zone_cache[group.group_id]
    group.unsubscribe(leaf)
    assert check_every_source(network)[1] == 0
    assert network._zone_cache[group.group_id] is not before
    assert leaf not in network._zone_cache[group.group_id][1][1]


def test_a_source_whose_members_iterate_otherwise_compiles_on_its_own(sim):
    """Star 35 -> {37, 11, 5}, joined 37, 5, 11.  Without 37 the members
    set iterates [11, 5] while the group's canonical copy is [5, 11, 37], so
    the guard must send source 37 to the general compiler: shared records
    would give hub 35 the children [5, 11] instead of [11, 5]."""
    network = Network(sim)
    for node_id in (35, 37, 11, 5):
        network.add_node(node_id=node_id)
    for leaf in (37, 11, 5):
        network.add_link(35, leaf, 10e6, 0.01)
    group = network.create_group("star", scope={35, 37, 11, 5})
    for node_id in (37, 5, 11):
        group.subscribe(node_id)
    check_every_source(network)
    assert [is_shared(network, src, group) for src in (35, 37, 11, 5)] == [
        True, False, False, True]
    hub = network._sched_cache[(group.group_id, 37)][1][3][0][1]
    assert [child[0] for _, child in hub[3]] == [11, 5]
