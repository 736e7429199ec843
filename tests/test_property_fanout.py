"""Property: batched same-instant arrivals replay one event per child.

``Network._forward_fast`` pushes the children one hop reaches at the same
instant as one heap entry and delivers them in child order.  Hypothesis
draws random trees whose link latencies and serialization delays collide
and interleave, a random backlog (``busy_until``) on each link, random
subscribers and bursts of sends from random sources at shared instants.
The batched path and the per-child oracle (``reference_multicast``, one
scheduled event per child) must give the same delivery log, in order and
to the bit in time, the same drops and the same ``events_fired``.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.net.network import Network
from repro.net.packet import Packet
from repro.sim.scheduler import Simulator
from repro.testing import property_max_examples

from tests.test_perf_optimizations import reference_multicast


@st.composite
def fanout_worlds(draw):
    n = draw(st.integers(min_value=2, max_value=16))
    # Few distinct latencies and bandwidths, so many siblings arrive at one
    # instant and others land in between.
    latency = st.sampled_from([0.001, 0.002, 0.003])
    bandwidth = st.sampled_from([1e6, 2e6, 8e6])
    backlog = st.sampled_from([0.0, 0.0, 0.001, 0.004, 0.012])
    links = [
        (draw(st.integers(0, i - 1)), i, draw(latency), draw(bandwidth),
         draw(st.sampled_from([0.0, 0.0, 0.3])), draw(backlog), draw(backlog))
        for i in range(1, n)
    ]
    members = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    sends = draw(st.lists(
        st.tuples(st.sampled_from([0.0, 0.001, 0.004]), st.integers(0, n - 1),
                  st.sampled_from([500, 1000])),
        min_size=1, max_size=8,
    ))
    return n, links, members, sends


def _run(world):
    n, links, members, sends = world
    sim = Simulator(seed=9)
    net = Network(sim)
    for node in range(n):
        net.add_node(node_id=node)
    for a, b, latency, bandwidth, loss, busy_ab, busy_ba in links:
        fwd, rev = net.add_link(a, b, bandwidth, latency, loss_rate=loss)
        fwd.busy_until, rev.busy_until = busy_ab, busy_ba
    group = net.create_group("g")
    base = Packet("DATA", 0, group.group_id, 1).uid  # uids are process-global
    log = []
    for node in members:
        net.subscribe(group.group_id, node,
                      lambda pkt, node=node: log.append((sim.now, node, pkt.uid)))
    sim.tracer.subscribe("pkt.drop", lambda rec: log.append((rec.time, rec.node, "drop")))
    for time, src, size in sends:
        sim.at(time, lambda src=src, size=size: net.multicast(
            src, Packet("DATA", src, group.group_id, size)))
    sim.run()
    return [e if e[2] == "drop" else (e[0], e[1], e[2] - base) for e in log], sim.events_fired


@settings(max_examples=property_max_examples(60), deadline=None)
@given(fanout_worlds())
def test_batched_fanout_matches_one_event_per_child(world):
    batched = _run(world)
    original = Network.multicast
    Network.multicast = reference_multicast
    try:
        reference = _run(world)
    finally:
        Network.multicast = original
    assert batched == reference
