"""Integration tests for the SRM baseline."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.net.monitor import TrafficMonitor
from repro.net.network import Network
from repro.sim.scheduler import Simulator
from repro.srm.config import SrmConfig
from repro.srm.protocol import SrmProtocol
from repro.testing import assert_eventual_delivery
from repro.topology.builders import build_star
from repro.topology.figure10 import build_figure10


def run_srm(net, source, receivers, n_packets=32, until=30.0, **cfg):
    config = SrmConfig(n_packets=n_packets, **cfg)
    proto = SrmProtocol(net, config, source, receivers)
    proto.start(session_start=1.0, data_start=6.0)
    net.sim.run(until=until)
    return proto


def test_lossless_delivery_needs_no_repairs():
    sim = Simulator(seed=1)
    net = build_star(sim, n_leaves=4)
    proto = run_srm(net, 0, [1, 2, 3, 4])
    assert proto.all_complete()
    assert proto.total_nacks_sent() == 0
    assert proto.total_repairs_sent() == 0


def test_reliable_delivery_under_loss():
    sim = Simulator(seed=2)
    net = build_star(sim, n_leaves=4, loss_rate=0.15)
    proto = run_srm(net, 0, [1, 2, 3, 4], until=60.0)
    assert_eventual_delivery(proto)
    assert proto.total_repairs_sent() > 0


def test_figure10_full_recovery():
    sim = Simulator(seed=3)
    topo = build_figure10(sim)
    config = SrmConfig(n_packets=64)
    proto = SrmProtocol(topo.network, config, topo.source, topo.receivers)
    proto.start()
    sim.run(until=40.0)
    assert_eventual_delivery(proto, context="figure10")


def test_receivers_repair_each_other():
    """A nearby peer wins the repair race against a distant source.

    Topology: source 0 --(100 ms)-- hub 1 --(5 ms)-- leaves 2, 3.  Only
    leaf 3's access link loses packets, so leaf 2 holds everything and its
    reply window [d, 2d] toward 3 beats the source's by an order of
    magnitude — SRM's receiver-driven repair in action.
    """
    sim = Simulator(seed=4)
    net = Network(sim)
    for _ in range(4):
        net.add_node()
    net.add_link(0, 1, 10e6, 0.100)
    net.add_link(1, 2, 10e6, 0.005)
    net.add_link(1, 3, 10e6, 0.005, loss_rate=0.4)
    proto = run_srm(net, 0, [1, 2, 3], until=60.0)
    assert proto.all_complete()
    peer_repairs = sum(r.repairs_sent for r in proto.receivers.values())
    assert peer_repairs > 0
    assert peer_repairs > proto.source.repairs_sent


def test_tail_loss_detected_via_session():
    """Losing the last packets leaves no gap; session highest-seq finds it."""
    sim = Simulator(seed=5)
    net = build_star(sim, n_leaves=2, loss_rate=0.3)
    proto = run_srm(net, 0, [1, 2], n_packets=8, until=90.0)
    assert proto.all_complete()


def test_receiver_crashed_mid_stream_catches_up():
    """Receiver 11 is down for 0.5 s of an 8-packet stream and restarts to
    a repair for a later packet.  That repair used to lift ``highest_seen``
    past the packet missed while down, so no session advertisement could
    name it again and the receiver stayed one short however long the drain
    (completion 0.99888); SHARQFEC resyncs from the same plan."""
    from repro.experiments.common import run_traffic
    from repro.faults.plan import FaultPlan

    plan = FaultPlan().crash_restart(6.02, 11, 0.5)
    result = run_traffic("SRM", n_packets=8, seed=1, fault_plan=plan)
    assert result.completion == 1.0


def test_completion_fraction_monotone():
    sim = Simulator(seed=6)
    topo = build_figure10(sim)
    config = SrmConfig(n_packets=32)
    proto = SrmProtocol(topo.network, config, topo.source, topo.receivers)
    proto.start()
    fractions = []
    for t in (7.0, 9.0, 12.0, 20.0):
        sim.run(until=t)
        fractions.append(proto.completion_fraction())
    assert fractions == sorted(fractions)
    assert fractions[-1] == 1.0


def test_requires_receivers():
    sim = Simulator(seed=7)
    net = build_star(sim, n_leaves=1)
    with pytest.raises(ConfigError):
        SrmProtocol(net, SrmConfig(), 0, [])


def test_data_before_session_rejected():
    sim = Simulator(seed=8)
    net = build_star(sim, n_leaves=2)
    proto = SrmProtocol(net, SrmConfig(), 0, [1, 2])
    with pytest.raises(ConfigError):
        proto.start(session_start=5.0, data_start=1.0)


def test_repair_suppression_limits_duplicates():
    """Many receivers share a loss; suppression keeps repairs ≪ receivers."""
    sim = Simulator(seed=9)
    net = build_star(sim, n_leaves=8)
    net.set_link_loss(0, 8, 0.5)
    proto = run_srm(net, 0, list(range(1, 9)), n_packets=64, until=60.0)
    assert proto.all_complete()
    repairs = proto.total_repairs_sent()
    losses = 64 - proto.receivers[8].data_received
    # Roughly one repair per loss event, not one per (loss, repairer) pair.
    assert repairs < 3 * max(losses, 1)


def test_srm_rtt_estimation_converges():
    sim = Simulator(seed=10)
    net = build_star(sim, n_leaves=3)
    proto = run_srm(net, 0, [1, 2, 3], until=20.0)
    agent = proto.receivers[1]
    true_rtt = net.true_rtt(1, 0)
    assert agent.rtt.get(0) == pytest.approx(true_rtt, rel=0.05)
