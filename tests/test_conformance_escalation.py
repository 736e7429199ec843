"""Scripted escalation scenario: a zone that cannot help itself.

When every zone member misses the same packet, no one inside can repair;
after two request attempts at the zone scope the receiver escalates to the
next-larger zone (§4), where the source answers.
"""

from __future__ import annotations

from repro.core.config import ESCALATION_ATTEMPTS, SharqfecConfig
from repro.core.pdus import FecPdu, NackPdu
from repro.core.protocol import SharqfecProtocol
from repro.net.network import Network
from repro.scoping.zone import ZoneHierarchy
from repro.sim.scheduler import Simulator
from tests.test_conformance_scenarios import LossScript


def test_zone_wide_loss_escalates_to_root():
    sim = Simulator(seed=3)
    net = Network(sim)
    for _ in range(4):
        net.add_node()
    net.add_link(0, 1, 10e6, 0.010)
    net.add_link(1, 2, 10e6, 0.020)
    net.add_link(1, 3, 10e6, 0.020)
    h = ZoneHierarchy()
    root = h.add_root(range(4), name="Z0")
    zone = h.add_zone(root.zone_id, {1, 2, 3}, name="edge")
    cfg = SharqfecConfig(n_packets=16, injection=False)
    proto = SharqfecProtocol(net, cfg, 0, [1, 2, 3], h)
    # Drop one data packet on the hub's uplink: the whole zone misses it.
    net.loss_oracle = LossScript({(1, "DATA", 6)})
    nack_zones = []
    fec_sources = []
    original = net.multicast

    def spy(src, pkt):
        if isinstance(pkt, NackPdu):
            nack_zones.append(pkt.zone_id)
        elif isinstance(pkt, FecPdu):
            fec_sources.append((src, pkt.zone_id))
        return original(src, pkt)

    net.multicast = spy
    proto.start(1.0, 8.0)
    sim.run(until=60.0)
    assert proto.all_complete()
    # Requests start at the zone scope and escalate to the root.
    assert nack_zones[0] == zone.zone_id
    assert root.zone_id in nack_zones
    zone_attempts = sum(1 for z in nack_zones if z == zone.zone_id)
    assert zone_attempts >= ESCALATION_ATTEMPTS
    # Only the source could repair, at root scope.
    assert fec_sources, "a repair must have flowed"
    assert all(src == 0 for src, _ in fec_sources)
    assert all(z == root.zone_id for _, z in fec_sources)


def test_partial_zone_loss_stays_local():
    """Control: if the hub still has the packet, no escalation happens."""
    sim = Simulator(seed=4)
    net = Network(sim)
    for _ in range(4):
        net.add_node()
    net.add_link(0, 1, 10e6, 0.010)
    net.add_link(1, 2, 10e6, 0.020)
    net.add_link(1, 3, 10e6, 0.020)
    h = ZoneHierarchy()
    root = h.add_root(range(4), name="Z0")
    zone = h.add_zone(root.zone_id, {1, 2, 3}, name="edge")
    cfg = SharqfecConfig(n_packets=16, injection=False)
    proto = SharqfecProtocol(net, cfg, 0, [1, 2, 3], h)
    net.loss_oracle = LossScript({(2, "DATA", 6), (3, "DATA", 6)})
    nack_zones = []
    original = net.multicast

    def spy(src, pkt):
        if isinstance(pkt, NackPdu):
            nack_zones.append(pkt.zone_id)
        return original(src, pkt)

    net.multicast = spy
    proto.start(1.0, 8.0)
    sim.run(until=60.0)
    assert proto.all_complete()
    assert nack_zones, "the leaves must have requested"
    assert set(nack_zones) == {zone.zone_id}, "no escalation was needed"
