"""The self-healing layer: routing reconvergence, churn recovery, give-up.

Covers the IGP-reconvergence model in :mod:`repro.net.network` (topology
changes invalidate routing/trees and rebuild them against the *live*
adjacency after a configurable delay), the receiver crash-restart and
late-join resync paths, and the bounded give-up that escalates a stalled
request one zone level instead of retrying forever.
"""

from __future__ import annotations

from repro.core.config import SharqfecConfig
from repro.core.protocol import SharqfecProtocol
from repro.faults import FaultInjector, FaultPlan
from repro.net.network import Network
from repro.net.packet import Packet
from repro.scoping.zone import ZoneHierarchy
from repro.sim.scheduler import Simulator
from repro.testing import (
    TraceRecorder,
    assert_eventual_delivery,
    assert_no_duplicate_delivery,
    assert_recovery_within,
    assert_replay_identical,
    heal_deadline,
)


def diamond(sim):
    """0→1→3 is the cheap path; 0→2→3 the standby detour."""
    net = Network(sim, reconvergence_delay=0.5)
    for _ in range(4):
        net.add_node()
    net.add_link(0, 1, 10e6, 0.010)
    net.add_link(1, 3, 10e6, 0.010)
    net.add_link(0, 2, 10e6, 0.020)
    net.add_link(2, 3, 10e6, 0.020)
    return net


# --------------------------------------------------------------- rerouting


def test_session_survives_a_permanently_severed_tree_edge():
    """The tree edge 1→3 dies mid-stream and never comes back; after the
    reconvergence delay the session reroutes via 2 and still completes."""
    sim = Simulator(seed=21)
    net = diamond(sim)
    plan = FaultPlan("sever").link_down(6.10, 1, 3)
    FaultInjector(net, plan).arm()
    config = SharqfecConfig(n_packets=48, group_size=8)
    proto = SharqfecProtocol(net, config, 0, [1, 2, 3])
    proto.start(1.0, 6.0)
    sim.run(until=60.0)
    assert net.reconvergences >= 1
    assert_eventual_delivery(proto)
    assert_no_duplicate_delivery(proto)
    assert_recovery_within(proto, heal_deadline(net, plan, bound=45.0))


def test_restore_reconverges_back_onto_the_direct_path():
    sim = Simulator(seed=23)
    net = diamond(sim)
    group = net.create_group("g")
    arrivals = []
    net.subscribe(group.group_id, 3, lambda p: arrivals.append(round(sim.now, 6)))
    net.set_link_up(1, 3, False)
    sim.run(until=2.0)  # reconverge onto the detour
    start = sim.now
    net.multicast(0, Packet("DATA", 0, group.group_id, 1000))
    sim.run(until=3.0)
    detour_latency = arrivals[-1] - start
    net.set_link_up(1, 3, True)
    sim.run(until=5.0)  # reconverge back
    start = sim.now
    net.multicast(0, Packet("DATA", 0, group.group_id, 1000))
    sim.run(until=6.0)
    direct_latency = arrivals[-1] - start
    assert net.reconvergences == 2
    assert direct_latency < detour_latency, "traffic moved back to 0-1-3"


# ------------------------------------------------------------------- churn


def test_crash_restart_receiver_recovers_within_bound():
    sim = Simulator(seed=25)
    net = diamond(sim)
    config = SharqfecConfig(n_packets=48, group_size=8)
    proto = SharqfecProtocol(net, config, 0, [1, 2, 3])
    plan = FaultPlan("churn").crash_restart(6.08, 3, down_for=0.25)
    FaultInjector(net, plan, protocol=proto).arm()
    proto.start(1.0, 6.0)
    sim.run(until=60.0)
    assert_eventual_delivery(proto)
    assert_no_duplicate_delivery(proto)
    assert_recovery_within(proto, heal_deadline(net, plan, bound=45.0))
    # The outage actually cost packets which resync then recovered.
    assert proto.receivers[3].nacks_sent > 0


def test_revived_receiver_learns_trailing_group_from_extent_gossip():
    """Receiver 3 crashes during the second-to-last FEC group and comes back
    after ``data_end``: no packet of the last group ever reaches it, so only
    the stream extent in its peers' session messages says the group exists.

    A second, short outage follows the first advertisement it applies.  The
    applied-extent watermark is a shortcut over pre-outage state; a restart
    must clear it, so the advertisement heard next is applied afresh.
    """
    sim = Simulator(seed=27)
    net = diamond(sim)
    # 6 groups of 8 at 0.1 s per packet: group g spans 6.0 + 0.8 g onwards.
    config = SharqfecConfig(n_packets=48, group_size=8, data_rate_bps=80e3)
    proto = SharqfecProtocol(net, config, 0, [1, 2, 3])
    proto.start(1.0, 6.0)
    receiver = proto.receivers[3]
    last = config.n_groups - 1
    seen = {}

    def note(label):
        seen[label] = (receiver._extent_applied, sorted(receiver.groups))

    sim.at(9.9, proto.crash_receiver, 3)  # inside group 4; group 5 starts at 10.0
    sim.at(11.4, note, "down")
    sim.at(11.5, proto.restart_receiver, 3)  # data ended at 10.8
    sim.at(13.0, note, "gossiped")
    sim.at(13.0, proto.crash_receiver, 3)
    sim.at(13.2, proto.restart_receiver, 3)
    sim.at(13.2, note, "revived")
    sim.run(until=60.0)

    assert last not in seen["down"][1]  # the outage hid the group entirely
    assert seen["gossiped"] == (last, list(range(last + 1)))  # gossip revealed it
    assert seen["revived"][0] == -1  # fails if the watermark survives restart()
    assert receiver._extent_applied == last  # ... and gossip was applied again
    assert receiver.groups[last].data_count == 0  # rebuilt from repairs alone
    assert_eventual_delivery(proto)
    assert_no_duplicate_delivery(proto)


def test_leave_then_rejoin_resynchronizes():
    sim = Simulator(seed=26)
    net = diamond(sim)
    config = SharqfecConfig(n_packets=48, group_size=8, late_join_recovery=True)
    proto = SharqfecProtocol(net, config, 0, [1, 2, 3])
    proto.start(1.0, 6.0)
    sim.at(6.10, proto.leave_receiver, 3)
    sim.at(6.40, proto.join_receiver, 3)
    sim.run(until=60.0)
    assert_eventual_delivery(proto)
    assert_no_duplicate_delivery(proto)


# ----------------------------------------------- late-join resync (tier 1)


def late_join_transcript() -> str:
    """Deterministic promotion of the late-join benchmark scenario: a
    deferred receiver joins mid-stream on a small star and backfills the
    prefix through the resync path."""
    sim = Simulator(seed=27)
    net = Network(sim)
    for _ in range(4):
        net.add_node()
    for leaf in (1, 2, 3):
        net.add_link(0, leaf, 10e6, 0.010)
    config = SharqfecConfig(n_packets=64, group_size=8, late_join_recovery=True)
    proto = SharqfecProtocol(net, config, 0, [1, 2, 3])
    proto.start(1.0, 6.0)
    proto.defer_receiver(3)
    join_at = 6.0 + 0.75 * 64 * config.inter_packet_interval
    sim.at(join_at, proto.join_receiver, 3)
    with TraceRecorder(sim) as recorder:
        sim.run(until=60.0)
    assert_eventual_delivery(proto)
    assert_no_duplicate_delivery(proto)
    late = proto.receivers[3]
    assert late.nacks_sent > 0, "the prefix must be recovered via requests"
    return recorder.render()


def test_late_join_resync_is_deterministic():
    transcript = assert_replay_identical(late_join_transcript, runs=2)
    assert "NACK" in transcript


# ------------------------------------------------------- bounded give-up


def test_stalled_zone_gives_up_and_escalates_to_the_parent():
    """A zone whose only repairer crashed cannot help: after
    ``giveup_fires`` stalled request windows the receiver escalates one
    zone level and recovers from the sender instead of retrying forever."""
    sim = Simulator(seed=28)
    net = Network(sim)
    for _ in range(3):
        net.add_node()
    net.add_link(0, 1, 10e6, 0.010)
    net.add_link(1, 2, 10e6, 0.010)
    h = ZoneHierarchy()
    root = h.add_root(range(3), name="Z0")
    zone = h.add_zone(root.zone_id, {1, 2}, name="edge")
    config = SharqfecConfig(n_packets=32, group_size=8)
    proto = SharqfecProtocol(net, config, 0, [1, 2], h)
    proto.start(1.0, 6.0)
    # The zone rep (node 1, nearest) crashes before the stream; node 2
    # then loses a window of packets nobody left in the zone can repair.
    sim.at(5.0, proto.crash_receiver, 1)
    sim.at(6.05, net.set_link_loss, 1, 2, 0.999999)
    sim.at(6.20, net.set_link_loss, 1, 2, 0.0)
    sim.run(until=80.0)
    survivor = proto.receivers[2]
    assert survivor.all_complete(config.n_groups)
    # Recovery came from the root scope, reached via give-up escalation.
    assert survivor.nacks_by_zone.get(root.zone_id, 0) > 0
