"""Tests for the §7 extensions: late joins, adaptive timers, static ZCRs."""

from __future__ import annotations

import pytest

from repro.core.config import C1, C2, SharqfecConfig
from repro.core.protocol import SharqfecProtocol
from repro.errors import ConfigError
from repro.net.network import Network
from repro.sim.scheduler import Simulator
from repro.topology.builders import build_star
from repro.topology.figure10 import build_figure10


def build_simple(seed=1, loss=0.1):
    sim = Simulator(seed=seed)
    net = build_star(sim, n_leaves=3, loss_rate=loss)
    return sim, net


# ------------------------------------------------------------- late joins


def late_join_run(recovery: bool, seed=2):
    sim, net = build_simple(seed=seed)
    cfg = SharqfecConfig(
        n_packets=64, scoping=False, late_join_recovery=recovery
    )
    proto = SharqfecProtocol(net, cfg, 0, [1, 2, 3])
    proto.start(session_start=1.0, data_start=6.0)
    # Receiver 3 joins mid-stream: groups 0 and 1 already went by.
    late = proto.receivers[3]
    proto.defer_receiver(3)
    sim.at(6.35, proto.join_receiver, 3)
    sim.run(until=40.0)
    return proto, late


def test_late_join_without_recovery_baselines_at_first_group():
    proto, late = late_join_run(recovery=False)
    # Early groups never tracked; everything from the join point onward is.
    tracked = sorted(late.groups)
    assert tracked[0] >= 1
    assert all(late.groups[g].complete for g in tracked)
    # And the late receiver sent no requests for the missed prefix.
    assert 0 not in late.groups


def test_late_join_with_recovery_backfills_missed_groups():
    proto, late = late_join_run(recovery=True)
    assert late.all_complete(proto.config.n_groups), sorted(
        g for g in range(proto.config.n_groups)
        if g not in late.groups or not late.groups[g].complete
    )
    # The prefix was recovered via requests, not via the original stream.
    assert late.nacks_sent > 0


# --------------------------------------------------------- adaptive timers


def test_adaptive_timers_still_deliver():
    sim = Simulator(seed=3)
    topo = build_figure10(sim)
    cfg = SharqfecConfig(n_packets=48, adaptive_timers=True)
    proto = SharqfecProtocol(
        topo.network, cfg, topo.source, topo.receivers, topo.hierarchy
    )
    proto.start(1.0, 6.0)
    sim.run(until=45.0)
    assert proto.all_complete()


def test_adaptive_timers_move_constants():
    sim = Simulator(seed=4)
    topo = build_figure10(sim)
    cfg = SharqfecConfig(n_packets=96, adaptive_timers=True)
    proto = SharqfecProtocol(
        topo.network, cfg, topo.source, topo.receivers, topo.hierarchy
    )
    proto.start(1.0, 6.0)
    sim.run(until=45.0)
    assert proto.all_complete()
    moved = sum(
        1
        for r in proto.receivers.values()
        if (r._adaptive_request.start, r._adaptive_request.width) != (C1, C2)
    )
    assert moved > 0, "at least some receivers should have adapted"


def test_fixed_timers_never_move():
    sim = Simulator(seed=5)
    topo = build_figure10(sim)
    cfg = SharqfecConfig(n_packets=48)  # adaptive_timers=False
    proto = SharqfecProtocol(
        topo.network, cfg, topo.source, topo.receivers, topo.hierarchy
    )
    proto.start(1.0, 6.0)
    sim.run(until=40.0)
    for r in proto.receivers.values():
        assert (r._adaptive_request.start, r._adaptive_request.width) == (C1, C2)


# -------------------------------------------------------------- static ZCRs


def test_static_zcrs_skip_bootstrap_election():
    sim = Simulator(seed=6)
    topo = build_figure10(sim, lossless=True)
    static = {zid: topo.heads[i] for i, zid in enumerate(topo.tree_zone_ids)}
    cfg = SharqfecConfig(n_packets=16)
    proto = SharqfecProtocol(
        topo.network, cfg, topo.source, topo.receivers, topo.hierarchy,
        static_zcrs=static,
    )
    sim.at(1.0, proto._start_sessions)
    sim.run(until=3.0)  # far before dynamic elections would settle
    for head in topo.heads:
        agent = proto.receivers[head]
        tree_zone = [z for z in agent.session.chain if z.level == 1][0]
        assert agent.session.zcr_ids.get(tree_zone.zone_id) == head


def test_static_zcr_outside_zone_rejected():
    sim = Simulator(seed=7)
    topo = build_figure10(sim)
    bad = {topo.tree_zone_ids[0]: topo.heads[1]}  # head of another tree
    with pytest.raises(ConfigError):
        SharqfecProtocol(
            topo.network, SharqfecConfig(), topo.source, topo.receivers,
            topo.hierarchy, static_zcrs=bad,
        )


def test_static_zcr_failure_still_recovers():
    """§5.2: the challenge phase backs up a dead dedicated receiver."""
    sim = Simulator(seed=8)
    net = Network(sim)
    for _ in range(4):
        net.add_node()
    for a in range(3):
        net.add_link(a, a + 1, 10e6, 0.020)
    from repro.scoping.zone import ZoneHierarchy

    h = ZoneHierarchy()
    root = h.add_root(range(4), name="Z0")
    zone = h.add_zone(root.zone_id, {1, 2, 3}, name="edge")
    proto = SharqfecProtocol(
        net, SharqfecConfig(n_packets=16), 0, [1, 2, 3], h,
        static_zcrs={zone.zone_id: 1},
    )
    sim.at(1.0, proto._start_sessions)
    sim.run(until=10.0)
    proto.receivers[1].stop()
    sim.run(until=60.0)
    views = {proto.receivers[n].session.zcr_ids.get(zone.zone_id) for n in (2, 3)}
    assert views == {2}
