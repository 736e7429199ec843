"""Tests for scoped session management and indirect RTT estimation.

These run real session exchanges over small networks and check the §5
properties: scoped participation, state reduction, echo-based direct RTT,
and the three-leg indirect estimate of §5.1.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.config import DEFAULT_DISTANCE, SharqfecConfig
from repro.core.pdus import RttChainEntry, SessionEntry, SessionPdu
from repro.core.protocol import SharqfecProtocol
from repro.core.session import SessionManager
from repro.net.network import Network
from repro.scoping.channels import ScopedChannels
from repro.scoping.zone import ZoneHierarchy
from repro.sim.scheduler import Simulator
from repro.topology.figure10 import build_figure10


def build_two_level():
    """source 0 feeding two zones, each a hub plus two leaves.

    Zones include their hub node: administrative scopes always contain the
    border router, otherwise in-zone members could not reach each other.
    """
    sim = Simulator(seed=5)
    net = Network(sim)
    for _ in range(7):
        net.add_node()
    net.add_link(0, 1, 10e6, 0.010)
    net.add_link(0, 4, 10e6, 0.010)
    for hub, leaves in ((1, (2, 3)), (4, (5, 6))):
        for leaf in leaves:
            net.add_link(hub, leaf, 10e6, 0.020)
    h = ZoneHierarchy()
    root = h.add_root(range(7), name="Z0")
    za = h.add_zone(root.zone_id, {1, 2, 3}, name="ZA")
    zb = h.add_zone(root.zone_id, {4, 5, 6}, name="ZB")
    config = SharqfecConfig(n_packets=16)
    proto = SharqfecProtocol(net, config, 0, list(range(1, 7)), h)
    return sim, net, h, proto, (root, za, zb)


def test_participation_zones_default_is_smallest():
    sim, net, h, proto, (root, za, zb) = build_two_level()
    agent = proto.receivers[2]
    assert [z.name for z in agent.session.participation_zones()] == ["ZA"]


def test_zcr_participates_in_own_zone_and_parent():
    sim, net, h, proto, (root, za, zb) = build_two_level()
    agent = proto.receivers[2]
    agent.session.zcr_ids[za.zone_id] = 2
    names = [z.name for z in agent.session.participation_zones()]
    assert names == ["ZA", "Z0"]


def test_direct_rtt_converges_within_zone():
    sim, net, h, proto, (root, za, zb) = build_two_level()
    proto.start(session_start=1.0, data_start=60.0)
    sim.run(until=10.0)
    s2 = proto.receivers[2].session
    # Node 3 shares node 2's smallest zone: direct echo measurement.
    true_rtt = net.true_rtt(2, 3)
    assert s2.rtt.get(3) == pytest.approx(true_rtt, rel=0.05)


def test_scoped_sessions_do_not_leak_peer_state():
    """A ZB leaf must not hold direct state about ZA leaves (Fig 5)."""
    sim, net, h, proto, (root, za, zb) = build_two_level()
    proto.start(session_start=1.0, data_start=60.0)
    sim.run(until=10.0)
    s5 = proto.receivers[5].session
    assert s5.rtt.get(2) is None
    assert s5.rtt.get(3) is None
    # But it knows its in-zone peers.
    assert s5.rtt.get(6) is not None


def test_indirect_estimate_three_legs():
    """Receiver-13-to-receiver-8 arithmetic from §5.1, hand-constructed."""
    sim = Simulator(seed=0)
    net = Network(sim)
    for _ in range(6):
        net.add_node()
    net.add_link(0, 1, 10e6, 0.01)
    h = ZoneHierarchy()
    root = h.add_root({0, 1, 2, 3, 4, 5}, name="Z0")
    za = h.add_zone(root.zone_id, {2, 3}, name="ZA")
    zb = h.add_zone(root.zone_id, {4, 5}, name="ZB")
    channels = ScopedChannels(net, h)
    session = SessionManager(3, sim, net, channels, top_zcr=0)
    # Hand-fill node 3's state: ZCR(ZA) = 2 at RTT 0.04 from us; ZCR(ZA)
    # advertises RTT 0.10 to node 4 (= ZCR(ZB), a parent-zone peer).
    session.zcr_ids[za.zone_id] = 2
    session.rtt.observe(2, 0.04)
    session.rtt.set_zcr_peer_rtt(2, 4, 0.10)
    # Sender 5's NACK chain says: my ZCR is 4 (zone ZB), RTT 0.06 to it.
    chain = (RttChainEntry(zb.zone_id, 4, 0.06),)
    estimate = session.estimate_rtt_to(5, chain)
    assert estimate == pytest.approx(0.04 + 0.10 + 0.06)


def test_indirect_estimate_shared_zcr():
    """When the sender's advertised ZCR is our own, two legs suffice."""
    sim = Simulator(seed=0)
    net = Network(sim)
    for _ in range(4):
        net.add_node()
    net.add_link(0, 1, 10e6, 0.01)
    h = ZoneHierarchy()
    root = h.add_root({0, 1, 2, 3}, name="Z0")
    za = h.add_zone(root.zone_id, {2, 3}, name="ZA")
    channels = ScopedChannels(net, h)
    session = SessionManager(2, sim, net, channels, top_zcr=0)
    session.zcr_ids[za.zone_id] = 3
    session.rtt.observe(3, 0.02)
    chain = (RttChainEntry(za.zone_id, 3, 0.05),)
    # Unknown sender 9 reached through the shared ZCR 3.
    assert session.estimate_rtt_to(9, chain) == pytest.approx(0.02 + 0.05)


def test_direct_estimate_preferred_over_chain():
    sim = Simulator(seed=0)
    net = Network(sim)
    net.add_node(), net.add_node()
    net.add_link(0, 1, 10e6, 0.01)
    h = ZoneHierarchy()
    h.add_root({0, 1}, name="Z0")
    channels = ScopedChannels(net, h)
    session = SessionManager(0, sim, net, channels, top_zcr=0)
    session.rtt.observe(1, 0.123)
    chain = (RttChainEntry(h.root.zone_id, 0, 0.9),)
    assert session.estimate_rtt_to(1, chain) == pytest.approx(0.123)


def test_estimate_to_self_is_zero():
    sim = Simulator(seed=0)
    net = Network(sim)
    net.add_node(), net.add_node()
    net.add_link(0, 1, 10e6, 0.01)
    h = ZoneHierarchy()
    h.add_root({0, 1})
    channels = ScopedChannels(net, h)
    session = SessionManager(1, sim, net, channels, top_zcr=0)
    assert session.estimate_rtt_to(1) == 0.0


def test_source_one_way_falls_back_to_default():
    sim = Simulator(seed=0)
    net = Network(sim)
    net.add_node(), net.add_node()
    net.add_link(0, 1, 10e6, 0.01)
    h = ZoneHierarchy()
    h.add_root({0, 1})
    channels = ScopedChannels(net, h)
    session = SessionManager(1, sim, net, channels, top_zcr=0)
    assert session.source_one_way(0) == DEFAULT_DISTANCE


def test_figure10_state_reduction():
    """Leaf receivers keep far less RTT state than a flat protocol's n-1."""
    sim = Simulator(seed=2)
    topo = build_figure10(sim, lossless=True)
    config = SharqfecConfig(n_packets=16)
    proto = SharqfecProtocol(
        topo.network, config, topo.source, topo.receivers, topo.hierarchy
    )
    sim.at(1.0, proto._start_sessions)
    sim.run(until=20.0)
    leaf = topo.leaf_receivers[0]
    state = proto.receivers[leaf].session.rtt.state_size()
    flat_state = len(topo.receivers)  # what SRM would hold
    assert 0 < state < flat_state / 3


# ------------------------------------------------------ shared echo index


def _zone_message(proto, za, src, listed):
    """A ZA session message from ``src`` echoing every peer in ``listed``."""
    entries = tuple(SessionEntry(peer, 0.5, 0.25, 0.04) for peer in listed)
    group = proto.receivers[src].channels.session_group(za.zone_id)
    return SessionPdu(src, group, 100, za.zone_id, 1.0, -1, -1.0, entries)


def test_echo_closes_from_the_shared_index():
    sim, net, h, proto, (root, za, zb) = build_two_level()
    pdu = _zone_message(proto, za, src=1, listed=(2, 3))
    sim.run(until=2.0)  # no session started: the clock just advances
    for hearer in (2, 3):
        proto.receivers[hearer].session.handle_session(pdu)
    # rtt = now - peer_timestamp - elapsed, once per hearer, off one index.
    assert proto.receivers[2].session.rtt.get(1) == pytest.approx(2.0 - 0.5 - 0.25)
    assert proto.receivers[3].session.rtt.get(1) == pytest.approx(2.0 - 0.5 - 0.25)
    assert set(pdu.echo_index()) == {2, 3}
    # A hearer the message does not list records it but measures nothing.
    other = _zone_message(proto, za, src=1, listed=(3,))
    proto.receivers[2].session.rtt.forget(1)
    proto.receivers[2].session.handle_session(other)
    assert proto.receivers[2].session.rtt.get(1) is None
    assert 1 in proto.receivers[2].session.rtt.heard_in_zone(za.zone_id)


def test_echo_index_stays_out_of_pickle_and_describe():
    # Packets cross shard pipes by pickle (engine/sharded.py): the index a
    # hearer built in one process must not ride along to the next.
    sim, net, h, proto, (root, za, zb) = build_two_level()
    pdu = _zone_message(proto, za, src=1, listed=(2, 3))
    before, described = pickle.dumps(pdu), pdu.describe()
    proto.receivers[2].session.handle_session(pdu)
    assert pdu._echo_index is not None  # the hearer did build it
    assert pickle.dumps(pdu) == before  # same bytes, so the same length
    assert pdu.describe() == described
    clone = pickle.loads(pickle.dumps(pdu))
    assert clone._echo_index is None
    assert (clone.uid, clone.src, clone.entries) == (pdu.uid, pdu.src, pdu.entries)
    assert clone.echo_index() == pdu.echo_index()  # rebuilt on the far side
