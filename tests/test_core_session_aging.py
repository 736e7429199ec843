"""Tests for session peer aging and session-message size accounting."""

from __future__ import annotations

import pytest

from repro.core.config import SESSION_ENTRY_SIZE, SESSION_HEADER_SIZE, SharqfecConfig
from repro.core.pdus import SessionPdu
from repro.core.protocol import SharqfecProtocol
from repro.core.rtt import RttTable
from repro.net.network import Network
from repro.sim.scheduler import Simulator
from repro.topology.builders import build_star


def test_prune_stale_drops_old_peers():
    table = RttTable(node_id=1)
    table.record_heard(0, 2, 1.0, 1.0)
    table.record_heard(0, 3, 9.0, 9.0)
    dropped = table.prune_stale(now=10.0, timeout=6.0)
    assert dropped == [2]
    assert set(table.heard_in_zone(0)) == {3}


def test_prune_keeps_direct_estimates():
    table = RttTable(node_id=1)
    table.observe(2, 0.1)
    table.record_heard(0, 2, 1.0, 1.0)
    table.prune_stale(now=100.0, timeout=6.0)
    # Echo state gone, the RTT estimate itself survives.
    assert table.get(2) == pytest.approx(0.1)
    assert table.heard_in_zone(0) == {}


def run_star_session(seed=1):
    sim = Simulator(seed=seed)
    net = build_star(sim, n_leaves=3)
    cfg = SharqfecConfig(n_packets=16)
    proto = SharqfecProtocol(net, cfg, 0, [1, 2, 3])
    sim.at(1.0, proto._start_sessions)
    return sim, net, proto


def test_departed_peer_ages_out_of_session_messages():
    sim, net, proto = run_star_session()
    sizes = {}
    original = net.multicast

    def spy(src, pkt):
        if isinstance(pkt, SessionPdu) and src == 1:
            sizes[round(sim.now, 3)] = {e.peer_id for e in pkt.entries}
        return original(src, pkt)

    net.multicast = spy
    sim.run(until=8.0)
    # While everyone is alive node 1 echoes the other members.
    alive_views = list(sizes.values())[-1]
    assert 2 in alive_views and 3 in alive_views
    # Node 3 leaves; after the peer timeout node 1 stops echoing it.
    proto.receivers[3].stop()
    sizes.clear()
    sim.run(until=20.0)
    final_view = list(sizes.values())[-1]
    assert 3 not in final_view
    assert 2 in final_view


def test_session_message_size_tracks_entries():
    sim, net, proto = run_star_session(seed=2)
    observed = []
    original = net.multicast

    def spy(src, pkt):
        if isinstance(pkt, SessionPdu):
            observed.append(pkt)
        return original(src, pkt)

    net.multicast = spy
    sim.run(until=6.0)
    for pdu in observed:
        expected = SESSION_HEADER_SIZE + len(pdu.entries) * SESSION_ENTRY_SIZE
        assert pdu.size_bytes == expected
