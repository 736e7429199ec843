"""Integration tests for the Network forwarding engine."""

from __future__ import annotations

import pytest

from repro.errors import RoutingError, ScopeError, TopologyError
from repro.net.monitor import TrafficMonitor
from repro.net.network import Network
from repro.net.packet import Packet
from repro.sim.scheduler import Simulator


def test_multicast_reaches_all_subscribers(tree_net):
    net = tree_net
    group = net.create_group("g")
    got = {n: [] for n in (3, 4, 5, 6)}
    for n in got:
        net.subscribe(group.group_id, n, got[n].append)
    net.multicast(0, Packet("DATA", 0, group.group_id, 1000))
    net.sim.run()
    for n, packets in got.items():
        assert len(packets) == 1, f"node {n}"


def test_multicast_arrival_times_reflect_hops(line_net):
    net = line_net
    group = net.create_group("g")
    arrivals = {}
    for n in (1, 3):
        net.subscribe(group.group_id, n, lambda p, n=n: arrivals.setdefault(n, net.sim.now))
    net.multicast(0, Packet("DATA", 0, group.group_id, 1000))
    net.sim.run()
    # One hop: 10 ms latency + 0.8 ms serialization at 10 Mbit.
    assert arrivals[1] == pytest.approx(0.0108)
    assert arrivals[3] == pytest.approx(3 * 0.0108)


def test_sender_does_not_hear_own_multicast(star_net):
    net = star_net
    group = net.create_group("g")
    heard = []
    net.subscribe(group.group_id, 1, heard.append)
    net.subscribe(group.group_id, 2, heard.append)
    net.multicast(1, Packet("NACK", 1, group.group_id, 64))
    net.sim.run()
    assert len(heard) == 1  # only node 2


def test_any_subscriber_can_send(star_net):
    net = star_net
    group = net.create_group("g")
    got = {n: 0 for n in range(1, 5)}

    def make_handler(n):
        def handler(packet):
            got[n] += 1

        return handler

    for n in range(1, 5):
        net.subscribe(group.group_id, n, make_handler(n))
    net.multicast(3, Packet("REPAIR", 3, group.group_id, 1000))
    net.sim.run()
    assert got == {1: 1, 2: 1, 3: 0, 4: 1}


def test_lossy_link_drops_with_full_loss_simulated():
    sim = Simulator(seed=1)
    net = Network(sim)
    for _ in range(3):
        net.add_node()
    net.add_link(0, 1, 10e6, 0.01)
    net.add_link(1, 2, 10e6, 0.01, loss_rate=0.999999)
    group = net.create_group("g")
    got = []
    net.subscribe(group.group_id, 2, got.append)
    for _ in range(20):
        net.multicast(0, Packet("DATA", 0, group.group_id, 1000))
    sim.run()
    assert len(got) <= 1  # essentially everything dropped
    assert net.link(1, 2).packets_dropped >= 19


def test_loss_exempt_packets_never_dropped():
    sim = Simulator(seed=1)
    net = Network(sim)
    for _ in range(2):
        net.add_node()
    net.add_link(0, 1, 10e6, 0.01, loss_rate=0.9)
    group = net.create_group("g")
    got = []
    net.subscribe(group.group_id, 1, got.append)
    for _ in range(50):
        net.multicast(0, Packet("SESSION", 0, group.group_id, 100, loss_exempt=True))
    sim.run()
    assert len(got) == 50


def test_upstream_loss_deprives_whole_subtree(tree_net):
    """One loss on link 0->1 must cost both leaves 3 and 4 the packet."""
    net = tree_net
    net.set_link_loss(0, 1, 0.999999)
    group = net.create_group("g")
    got = {n: [] for n in (3, 4, 5, 6)}
    for n in got:
        net.subscribe(group.group_id, n, got[n].append)
    net.multicast(0, Packet("DATA", 0, group.group_id, 1000))
    net.sim.run()
    assert got[3] == [] and got[4] == []
    assert len(got[5]) == 1 and len(got[6]) == 1


def test_scoped_group_confined_to_scope(line_net):
    net = line_net
    scoped = net.create_group("zone", scope={1, 2})
    got = []
    net.subscribe(scoped.group_id, 2, got.append)
    with pytest.raises(ScopeError):
        net.subscribe(scoped.group_id, 3, got.append)
    with pytest.raises(ScopeError):
        net.multicast(0, Packet("FEC", 0, scoped.group_id, 1000))
    net.multicast(1, Packet("FEC", 1, scoped.group_id, 1000))
    net.sim.run()
    assert len(got) == 1


def test_scope_blocks_transit_even_between_in_scope_nodes(line_net):
    """Scope {0, 3} without the middle nodes: no path, must raise."""
    net = line_net
    group = net.create_group("broken", scope={0, 3})
    net.subscribe(group.group_id, 3, lambda p: None)
    with pytest.raises(RoutingError):
        net.multicast(0, Packet("DATA", 0, group.group_id, 1000))


def test_membership_change_invalidates_tree_cache(star_net):
    net = star_net
    group = net.create_group("g")
    got = {1: 0, 2: 0}
    h1 = lambda p: got.__setitem__(1, got[1] + 1)
    h2 = lambda p: got.__setitem__(2, got[2] + 1)
    net.subscribe(group.group_id, 1, h1)
    net.multicast(0, Packet("DATA", 0, group.group_id, 100))
    net.sim.run()
    net.subscribe(group.group_id, 2, h2)
    net.multicast(0, Packet("DATA", 0, group.group_id, 100))
    net.sim.run()
    assert got == {1: 2, 2: 1}


def test_unsubscribe_stops_delivery(star_net):
    net = star_net
    group = net.create_group("g")
    got = []
    net.subscribe(group.group_id, 1, got.append)
    net.multicast(0, Packet("DATA", 0, group.group_id, 100))
    net.sim.run()
    net.unsubscribe(group.group_id, 1, got.append)
    net.multicast(0, Packet("DATA", 0, group.group_id, 100))
    net.sim.run()
    assert len(got) == 1


def test_monitor_observes_arrivals(tree_net):
    net = tree_net
    monitor = TrafficMonitor(bin_width=0.1)
    net.add_observer(monitor)
    group = net.create_group("g")
    for n in (3, 4):
        net.subscribe(group.group_id, n, lambda p: None)
    net.multicast(0, Packet("DATA", 0, group.group_id, 1000))
    net.sim.run()
    assert monitor.total(["DATA"]) == 2
    assert monitor.total(["DATA"], node=3) == 1
    assert monitor.sends == {"DATA": 1}


class _CallRecorder:
    """An observer that keeps how each of its methods was called."""

    def __init__(self):
        self.calls = []

    def on_send(self, *args, **kwargs):
        self.calls.append(("send", args, kwargs))

    def on_receive(self, *args, **kwargs):
        self.calls.append(("receive", args, kwargs))

    def on_drop(self, *args, **kwargs):
        self.calls.append(("drop", args, kwargs))


def test_observers_get_positional_arguments_and_subscriber_arrivals_only(tree_net):
    net = tree_net
    recorder = _CallRecorder()
    net.add_observer(recorder)
    group = net.create_group("g")
    for n in (3, 5):
        net.subscribe(group.group_id, n, lambda p: None)
    net.set_link_loss(2, 5, 1.0)
    net.multicast(0, Packet("DATA", 0, group.group_id, 1000))
    net.sim.run()
    hop = 0.020 + 1000 * 8 / 10e6
    # Routers 1 and 2 forward the packet but are not subscribers, so the
    # network reports no arrival at them; subscriber 3 is reported, and
    # subscriber 5 sees a drop on the router's outgoing link.
    assert recorder.calls == [
        ("send", (0.0, 0, "DATA", 1000), {}),
        ("drop", (pytest.approx(hop), 5, "DATA", 1000), {}),
        ("receive", (pytest.approx(2 * hop), 3, "DATA", 1000), {}),
    ]


def test_true_rtt_and_path_loss(line_net):
    net = line_net
    assert net.true_rtt(0, 3) == pytest.approx(0.06)
    net.set_link_loss(0, 1, 0.1)
    net.set_link_loss(1, 2, 0.2)
    assert net.path_loss(0, 2) == pytest.approx(1 - 0.9 * 0.8)


def test_path_loss_sees_down_links_and_nodes_as_total_loss(line_net):
    net = line_net
    net.set_link_loss(0, 1, 0.1)
    assert net.path_loss(0, 2) == pytest.approx(0.1)
    net.set_link_up(1, 2, False)
    assert net.path_loss(0, 2) == pytest.approx(1.0)
    net.set_link_up(1, 2, True)
    net.set_node_up(1, False)
    assert net.path_loss(0, 2) == pytest.approx(1.0)


def test_path_loss_uses_stationary_rate_of_loss_models(line_net):
    from repro.faults import install_gilbert_elliott

    net = line_net
    install_gilbert_elliott(net, 0, 1, p_gb=0.05, p_bg=0.25, loss_bad=1.0)
    stationary = net.link(0, 1).loss_model.stationary_loss_rate
    assert 0.0 < stationary < 1.0
    assert net.path_loss(0, 1) == pytest.approx(stationary)


def test_topology_change_invalidates_cached_multicast_tree():
    """Regression: a multicast tree cached before a link flap must not be
    reused after the topology change reconverges (satellite of the
    reconvergence tentpole)."""
    sim = Simulator(seed=11)
    net = Network(sim)
    for _ in range(4):
        net.add_node()
    # Diamond: 0->1->3 (cheap) and 0->2->3 (dear) — tree prefers 0-1-3.
    net.add_link(0, 1, 10e6, 0.010)
    net.add_link(1, 3, 10e6, 0.010)
    net.add_link(0, 2, 10e6, 0.030)
    net.add_link(2, 3, 10e6, 0.030)
    group = net.create_group("g")
    got = []
    net.subscribe(group.group_id, 3, lambda p: got.append(round(sim.now, 6)))
    net.multicast(0, Packet("DATA", 0, group.group_id, 1000))  # caches tree
    sim.run()
    assert len(got) == 1
    net.set_link_up(1, 3, False)
    sim.run(until=sim.now + 2 * net.reconvergence_delay)
    net.multicast(0, Packet("DATA", 0, group.group_id, 1000))
    sim.run()
    # Rerouted via 0-2-3 instead of reusing the stale 0-1-3 tree.
    assert len(got) == 2
    assert net.link(2, 3).packets_sent >= 1


def test_duplicate_link_rejected(line_net):
    with pytest.raises(TopologyError):
        line_net.add_link(0, 1, 1e6, 0.01)


def test_self_loop_rejected(line_net):
    with pytest.raises(TopologyError):
        line_net.add_link(2, 2, 1e6, 0.01)


def test_node_id_collision_rejected(sim):
    net = Network(sim)
    net.add_node(node_id=5)
    with pytest.raises(TopologyError):
        net.add_node(node_id=5)


def test_deterministic_given_seed():
    def run(seed):
        sim = Simulator(seed=seed)
        net = Network(sim)
        for _ in range(3):
            net.add_node()
        net.add_link(0, 1, 10e6, 0.01, loss_rate=0.3)
        net.add_link(1, 2, 10e6, 0.01, loss_rate=0.3)
        group = net.create_group("g")
        got = []
        net.subscribe(group.group_id, 2, lambda p: got.append(round(sim.now, 9)))
        for _ in range(50):
            net.multicast(0, Packet("DATA", 0, group.group_id, 1000))
        sim.run()
        return got

    assert run(7) == run(7)
    assert run(7) != run(8)
