"""ZCR election tests, including the paper's Figure 9 chain and fork cases."""

from __future__ import annotations

import pytest

from repro.core.config import SharqfecConfig
from repro.core.protocol import SharqfecProtocol
from repro.net.network import Network
from repro.scoping.zone import ZoneHierarchy
from repro.sim.scheduler import Simulator
from repro.topology.figure10 import build_figure10


def run_election(net, hierarchy, source, receivers, until=20.0, seed=3):
    config = SharqfecConfig(n_packets=16)
    proto = SharqfecProtocol(net, config, source, receivers, hierarchy)
    net.sim.at(1.0, proto._start_sessions)
    net.sim.run(until=until)
    return proto


def elected_zcr(proto, zone_id):
    """The zone members' consensus view (None if they disagree)."""
    views = set()
    for zone in proto.hierarchy.zones():
        if zone.zone_id != zone_id:
            continue
        for node in zone.nodes:
            if node in proto.receivers:
                views.add(proto.receivers[node].session.zcr_ids.get(zone_id))
    if len(views) == 1:
        return views.pop()
    return None


def test_chain_case_elects_nearest():
    """Fig 9 left: chain 0-1-2-3; zone {1,2,3}: node 1 is closest to 0."""
    sim = Simulator(seed=1)
    net = Network(sim)
    for _ in range(4):
        net.add_node()
    for a in range(3):
        net.add_link(a, a + 1, 10e6, 0.020)
    h = ZoneHierarchy()
    root = h.add_root(range(4), name="Z0")
    zone = h.add_zone(root.zone_id, {1, 2, 3}, name="chain")
    proto = run_election(net, h, 0, [1, 2, 3])
    assert elected_zcr(proto, zone.zone_id) == 1


def test_fork_case_elects_nearest():
    """Fig 9 right: fork point 1 under source 0, with leaves on branches.

    The zone contains the fork node (zones include their border router);
    the fork node is nearest to the parent ZCR and must win.
    """
    sim = Simulator(seed=2)
    net = Network(sim)
    for _ in range(5):
        net.add_node()
    net.add_link(0, 1, 10e6, 0.030)
    net.add_link(1, 2, 10e6, 0.010)
    net.add_link(1, 3, 10e6, 0.040)
    net.add_link(1, 4, 10e6, 0.080)
    h = ZoneHierarchy()
    root = h.add_root(range(5), name="Z0")
    zone = h.add_zone(root.zone_id, {1, 2, 3, 4}, name="fork")
    proto = run_election(net, h, 0, [1, 2, 3, 4])
    assert elected_zcr(proto, zone.zone_id) == 1


def test_deep_chain_two_levels():
    """Nested zones in a chain elect their closest members level by level."""
    sim = Simulator(seed=3)
    net = Network(sim)
    for _ in range(6):
        net.add_node()
    for a in range(5):
        net.add_link(a, a + 1, 10e6, 0.020)
    h = ZoneHierarchy()
    root = h.add_root(range(6), name="Z0")
    outer = h.add_zone(root.zone_id, {1, 2, 3, 4, 5}, name="outer")
    inner = h.add_zone(outer.zone_id, {3, 4, 5}, name="inner")
    proto = run_election(net, h, 0, [1, 2, 3, 4, 5], until=25.0)
    assert elected_zcr(proto, outer.zone_id) == 1
    assert elected_zcr(proto, inner.zone_id) == 3


def test_figure10_elects_heads_and_children():
    """On the paper's topology every tree zone elects its head and every
    child zone its child node — 'the closest receiver in the zone' (§5.2)."""
    sim = Simulator(seed=4)
    topo = build_figure10(sim, lossless=True)
    proto = run_election(
        topo.network, topo.hierarchy, topo.source, topo.receivers, until=12.0
    )
    for head in topo.heads:
        agent = proto.receivers[head]
        tree_zone = [z for z in agent.session.chain if z.level == 1][0]
        assert agent.session.zcr_ids.get(tree_zone.zone_id) == head
    for head in topo.heads:
        for child in topo.children[head]:
            agent = proto.receivers[child]
            child_zone = agent.session.chain[0]
            assert agent.session.zcr_ids.get(child_zone.zone_id) == child


def test_zcr_failure_recovers_via_watchdog():
    """When the elected ZCR dies, the zone elects a replacement (§3.2's
    robustness argument)."""
    sim = Simulator(seed=5)
    net = Network(sim)
    for _ in range(4):
        net.add_node()
    for a in range(3):
        net.add_link(a, a + 1, 10e6, 0.020)
    h = ZoneHierarchy()
    root = h.add_root(range(4), name="Z0")
    zone = h.add_zone(root.zone_id, {1, 2, 3}, name="chain")
    proto = run_election(net, h, 0, [1, 2, 3], until=20.0)
    assert elected_zcr(proto, zone.zone_id) == 1
    # Kill node 1's agent: it stops sending sessions and challenges.
    proto.receivers[1].stop()
    sim.run(until=60.0)
    survivor_views = {
        proto.receivers[n].session.zcr_ids.get(zone.zone_id) for n in (2, 3)
    }
    assert survivor_views == {2}, "node 2 (next closest) should take over"


def test_failed_over_zcr_answers_nacks():
    """Failover is useful, not just cosmetic: after the zone rep crashes,
    the watchdog-elected successor must take over *repair duties* — answer
    the zone's NACKs with FEC so the loss never escalates past the zone."""
    sim = Simulator(seed=9)
    net = Network(sim)
    for _ in range(5):
        net.add_node()
    net.add_link(0, 1, 10e6, 0.010)
    net.add_link(1, 2, 10e6, 0.020)
    net.add_link(2, 3, 10e6, 0.005)
    net.add_link(2, 4, 10e6, 0.015)
    h = ZoneHierarchy()
    root = h.add_root(range(5), name="Z0")
    zone = h.add_zone(root.zone_id, {2, 3, 4}, name="edge")
    config = SharqfecConfig(n_packets=32)
    proto = SharqfecProtocol(net, config, 0, [1, 2, 3, 4], h)
    # Sessions settle, node 2 (nearest) becomes rep, then crashes; the
    # stream starts only after the watchdog has had time to fail over.
    proto.start(session_start=1.0, data_start=20.0)
    sim.at(6.0, proto.crash_receiver, 2)
    # Deterministic loss: node 4's access link blacks out mid-stream, so
    # it misses packets its new rep (node 3) holds.
    sim.at(20.05, net.set_link_loss, 2, 4, 0.999999)
    sim.at(20.25, net.set_link_loss, 2, 4, 0.0)
    from repro.testing import TraceRecorder

    with TraceRecorder(sim, categories=["pkt.send"]) as recorder:
        sim.run(until=80.0)
    survivor_views = {
        proto.receivers[n].session.zcr_ids.get(zone.zone_id) for n in (3, 4)
    }
    assert survivor_views == {3}, "node 3 (next closest) takes over"
    # The successor actually answered NACKs on the zone's repair channel.
    repair_group = proto.channels.for_zone(zone.zone_id).repair_group_id
    fec_from_3 = [
        r for r in recorder.records
        if r.node == 3 and r.detail.kind == "FEC" and r.detail.group == repair_group
    ]
    assert fec_from_3, "new rep must answer the zone's NACKs with FEC"
    assert sum(g.repairs_sent for g in proto.receivers[3].groups.values()) > 0
    # Repair stayed scoped: nothing escalated to the root channel.
    root_repair = proto.channels.for_zone(root.zone_id).repair_group_id
    assert not any(
        r.detail.kind == "NACK" and r.detail.group == root_repair
        for r in recorder.records
    )
    assert proto.receivers[4].all_complete(config.n_groups)


def test_election_is_deterministic_per_seed():
    def run(seed):
        sim = Simulator(seed=seed)
        topo = build_figure10(sim, lossless=True)
        proto = run_election(
            topo.network, topo.hierarchy, topo.source, topo.receivers,
            until=10.0, seed=seed,
        )
        agent = proto.receivers[topo.heads[0]]
        return dict(agent.session.zcr_ids)

    assert run(7) == run(7)


# ------------------------------------------------- election state machine


def build_chain(seed, n=4, delay=0.020):
    """Chain 0-1-...-(n-1) with zone {1..n-1}; returns (sim, net, h, zone)."""
    sim = Simulator(seed=seed)
    net = Network(sim)
    for _ in range(n):
        net.add_node()
    for a in range(n - 1):
        net.add_link(a, a + 1, 10e6, delay)
    h = ZoneHierarchy()
    root = h.add_root(range(n), name="Z0")
    zone = h.add_zone(root.zone_id, set(range(1, n)), name="chain")
    return sim, net, h, zone


def test_two_simultaneous_zcr_candidate_crashes():
    """Both the representative and its natural successor die at the same
    instant: the lone survivor must still elect itself and carry on."""
    sim, net, h, zone = build_chain(seed=11)
    config = SharqfecConfig(n_packets=16)
    proto = SharqfecProtocol(net, config, 0, [1, 2, 3], h)
    sim.at(1.0, proto._start_sessions)
    sim.run(until=6.0)
    assert elected_zcr(proto, zone.zone_id) == 1
    proto.crash_receiver(1)
    proto.crash_receiver(2)
    sim.run(until=40.0)
    assert proto.receivers[3].session.zcr_ids.get(zone.zone_id) == 3


def test_crash_during_election_retries_past_failed_winner():
    """The would-be winner dies after announcing but before confirming its
    takeover: survivors must time out the confirm, blacklist the failed
    candidate and retry until a live one wins."""
    sim, net, h, zone = build_chain(seed=12)
    config = SharqfecConfig(n_packets=16)
    proto = SharqfecProtocol(net, config, 0, [1, 2, 3], h)
    sim.at(1.0, proto._start_sessions)
    sim.run(until=6.0)
    assert elected_zcr(proto, zone.zone_id) == 1

    # Crash node 2 (the natural successor) just after the first election
    # round opens — after it announces, before the round resolves.
    crashed = []

    def on_election(record):
        if not crashed:
            crashed.append(record.time)
            sim.at(sim.now + 0.05, proto.crash_receiver, 2)

    sim.tracer.subscribe("zcr.election", on_election)
    try:
        proto.crash_receiver(1)
        sim.run(until=60.0)
    finally:
        sim.tracer.unsubscribe("zcr.election", on_election)
    assert crashed, "the liveness detector never opened an election"
    assert proto.receivers[3].session.zcr_ids.get(zone.zone_id) == 3


def test_flapping_candidate_still_converges():
    """A candidate that crash/restarts repeatedly during the election storm
    must not wedge the zone: once the flapping stops, exactly one live
    representative survives at every member."""
    from repro.testing import assert_single_zcr_per_zone

    sim, net, h, zone = build_chain(seed=13, n=5)
    config = SharqfecConfig(n_packets=16)
    proto = SharqfecProtocol(net, config, 0, [1, 2, 3, 4], h)
    sim.at(1.0, proto._start_sessions)
    sim.run(until=6.0)
    assert elected_zcr(proto, zone.zone_id) == 1
    # The rep dies for good; meanwhile the successor flaps three times.
    proto.crash_receiver(1)
    for t in (6.5, 9.5, 12.5):
        sim.at(t, proto.crash_receiver, 2)
        sim.at(t + 1.0, proto.restart_receiver, 2)
    sim.run(until=80.0)
    elected = assert_single_zcr_per_zone(proto, context="flapping candidate")
    assert zone.zone_id in elected


def test_restart_clears_stale_zcr_belief():
    """Satellite regression: a receiver that crashes, misses a failover and
    restarts must not keep acting on its pre-crash representative belief."""
    sim, net, h, zone = build_chain(seed=14)
    config = SharqfecConfig(n_packets=16)
    proto = SharqfecProtocol(net, config, 0, [1, 2, 3], h)
    sim.at(1.0, proto._start_sessions)
    sim.run(until=6.0)
    assert elected_zcr(proto, zone.zone_id) == 1
    # Node 3 goes down, then the rep dies while 3 is blind.
    proto.crash_receiver(3)
    sim.at(7.0, proto.crash_receiver, 1)
    sim.at(25.0, proto.restart_receiver, 3)
    sim.run(until=60.0)
    views = {
        proto.receivers[n].session.zcr_ids.get(zone.zone_id) for n in (2, 3)
    }
    assert views == {2}, f"restarted node kept a stale belief: {views}"


def test_failover_emits_bounded_latency_metric():
    """The observer's election counters and the failover-latency gauge are
    populated by a representative crash, and the latency stays within the
    detector + election budget."""
    from repro.obs import RunObserver

    sim, net, h, zone = build_chain(seed=15)
    config = SharqfecConfig(n_packets=16)
    proto = SharqfecProtocol(net, config, 0, [1, 2, 3], h)
    with RunObserver(sim) as obs:
        sim.at(1.0, proto._start_sessions)
        sim.run(until=6.0)
        assert elected_zcr(proto, zone.zone_id) == 1
        proto.crash_receiver(1)
        sim.run(until=40.0)
    counts = obs.registry.labeled_totals("zcr_events", "event")
    assert counts.get("suspect", 0) >= 1
    assert counts.get("election", 0) >= 1
    assert counts.get("takeover", 0) >= 1
    assert counts.get("failover", 0) >= 1
    # Suspicion-to-adoption: a couple of election windows plus propagation,
    # far under the liveness timeout that preceded it.
    assert 0.0 < obs.registry.gauge("zcr_failover_latency_max").value < 5.0
