"""Property: shared tree records equal every source's own compiled tree.

Hypothesis draws a random tree of nodes, a connected scope inside it (or no
scope), subscribers that join and partly leave again, and sometimes one
extra link that closes a cycle.  Node ids are multiples of a drawn stride, so
many collide modulo the small table sizes of a CPython set: then a source's
members set and the group's canonical copy iterate in different orders and
the guard in ``Network._schedule_for`` must send the source to the general
compiler.  Whatever path serves it, every source's records must equal the
oracle's in node ids, child order and object identity.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.net.network import Network
from repro.sim.scheduler import Simulator
from repro.testing import property_max_examples

from tests.test_shared_trees import oracle, record_shape


@st.composite
def scoped_trees(draw):
    n = draw(st.integers(min_value=2, max_value=24))
    stride = draw(st.sampled_from([1, 8, 32]))
    ids = [stride * i for i in draw(
        st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True))]
    latency = st.sampled_from([0.001, 0.002, 0.005])
    links = [(ids[draw(st.integers(0, i - 1))], ids[i], draw(latency))
             for i in range(1, n)]
    if draw(st.booleans()):
        a, b = draw(st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True))
        if not any({a, b} == {u, v} for u, v, _ in links):
            links.append((a, b, draw(latency)))
    neighbours = {node: set() for node in ids}
    for u, v, _ in links:
        neighbours[u].add(v)
        neighbours[v].add(u)
    scope = None
    if draw(st.booleans()):
        scope = [draw(st.sampled_from(ids))]
        for _ in range(draw(st.integers(0, n - 1))):
            frontier = sorted({v for u in scope for v in neighbours[u]} - set(scope))
            if not frontier:
                break
            scope.append(draw(st.sampled_from(frontier)))
    joined = draw(st.lists(st.sampled_from(sorted(scope or ids)), unique=True))
    left = draw(st.lists(st.sampled_from(joined), unique=True)) if joined else []
    return ids, links, scope, joined, left


@settings(max_examples=property_max_examples(60), deadline=None)
@given(scoped_trees())
def test_every_source_gets_the_tree_the_general_compiler_builds(world):
    ids, links, scope, joined, left = world
    network = Network(Simulator(seed=0))
    for node_id in ids:
        network.add_node(node_id=node_id)
    for u, v, latency in links:
        network.add_link(u, v, 10e6, latency)
    group = network.create_group("g", scope=None if scope is None else set(scope))
    for node_id in joined:
        group.subscribe(node_id)
    for node_id in left:
        group.unsubscribe(node_id)
    for src in scope or ids:
        got = network._schedule_for(src, group)
        assert record_shape(got) == record_shape(oracle(network, src, group)), src
