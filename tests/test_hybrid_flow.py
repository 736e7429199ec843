"""Unit and property tests for the hybrid engine's bulk primitives.

Where ``tests/test_hybrid_differential.py`` compares whole runs across
fidelities, this file pins the two building blocks the flow engine
leans on — ``TrafficMonitor.record_bulk`` and the analytic session
seed — plus the statistical contract that makes
the flow model honest: per-receiver loss *marginals* match the
compounded per-link product (``Network.path_loss``, which is also what
``repro.analysis.treeloss`` computes).
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.treeloss import LossTree
from repro.core.config import SharqfecConfig
from repro.testing import property_max_examples
from repro.core.protocol import SharqfecProtocol
from repro.hybrid import HybridSharqfecProtocol
from repro.net.monitor import TrafficMonitor
from repro.net.network import Network
from repro.sim.scheduler import Simulator
from repro.topology.figure10 import build_figure10


# ------------------------------------------------- TrafficMonitor.record_bulk


def _dump(monitor: TrafficMonitor):
    return (
        {k: (dict(b), p, n) for k, (b, p, n) in monitor.receive_records()},
        {k: dict(b) for k, b in monitor.send_records()},
        {k: (dict(b), p, n) for k, (b, p, n) in monitor.drop_records()},
        dict(monitor.sends),
        monitor.drops,
    )


@settings(max_examples=50, deadline=None)
@given(
    mask=st.integers(min_value=0, max_value=2**24 - 1),
    t_base=st.floats(min_value=0.0, max_value=50.0),
    dt=st.floats(min_value=1e-6, max_value=0.5),
    direction=st.sampled_from(["send", "recv", "drop"]),
)
def test_record_bulk_matches_per_packet(mask, t_base, dt, direction):
    """One record_bulk call lands in exactly the bins the equivalent
    per-packet observer calls would have used."""
    bulk = TrafficMonitor()
    per_packet = TrafficMonitor()
    bulk.record_bulk(direction, "DATA", 7, t_base, dt, mask, 1024)
    handler = {
        "send": per_packet.on_send,
        "recv": per_packet.on_receive,
        "drop": per_packet.on_drop,
    }[direction]
    for i in range(mask.bit_length()):
        if mask >> i & 1:
            handler(t_base + i * dt, 7, "DATA", 1024)
    assert _dump(bulk) == _dump(per_packet)


def test_record_bulk_mask_zero_is_noop():
    monitor = TrafficMonitor()
    monitor.record_bulk("recv", "DATA", 3, 1.0, 0.01, 0, 1024)
    assert _dump(monitor) == _dump(TrafficMonitor())


# ------------------------------------------------------------- session seed


def test_seeded_zcrs_match_converged_packet_session():
    """The analytic seed predicts exactly the ZCRs a packet-fidelity run
    elects: every converged agent belief agrees with ``plan.zcr_of``."""
    sim = Simulator(seed=3)
    topo = build_figure10(sim)
    cfg = SharqfecConfig(n_packets=16)
    hybrid = HybridSharqfecProtocol(
        topo.network, cfg, topo.source, topo.receivers, topo.hierarchy
    )
    hybrid.start(session_start=1.0, data_start=6.0)
    sim.run(until=30.0)
    assert hybrid.zcr_of is not None

    psim = Simulator(seed=3)
    ptopo = build_figure10(psim)
    packet = SharqfecProtocol(
        ptopo.network, cfg, ptopo.source, ptopo.receivers, ptopo.hierarchy
    )
    packet.start(session_start=1.0, data_start=6.0)
    psim.run(until=30.0)

    checked = 0
    for agent in packet.receivers.values():
        for zone_id, believed in agent.session.zcr_ids.items():
            if believed is None:
                continue
            assert hybrid.zcr_of.get(zone_id) == believed, (
                f"zone {zone_id}: seed says {hybrid.zcr_of.get(zone_id)}, "
                f"packet session converged on {believed}"
            )
            checked += 1
    assert checked > 0


# ------------------------------------------------------------ loss marginals


def test_flow_loss_marginals_match_path_loss():
    """Per-receiver survival of bulk data is Binomial(n, 1 - path_loss).

    A two-hop chain with distinct per-link loss rates: the flow engine
    draws one Bernoulli per packet per link (compounded along the path),
    so each receiver's count of stream DATA arrivals — repairs travel as
    FEC and are excluded from ``data_received`` — must sit within 6
    binomial standard deviations of ``n × (1 - path_loss)``.
    """
    l1, l2 = 0.05, 0.12
    n_packets = 800
    sim = Simulator(seed=11)
    net = Network(sim)
    for _ in range(4):
        net.add_node()
    net.add_link(0, 1, 10e6, 0.002, loss_rate=l1)
    net.add_link(1, 2, 10e6, 0.002, loss_rate=l2)
    net.add_link(1, 3, 10e6, 0.002, loss_rate=l2)
    cfg = SharqfecConfig(n_packets=n_packets, group_size=8)
    proto = HybridSharqfecProtocol(net, cfg, 0, [1, 2, 3])
    proto.start(session_start=1.0, data_start=2.0)
    sim.run(until=120.0)

    # The analytical tree-loss model and the network agree on the marginal.
    tree = LossTree(root=0)
    tree.add_link(0, 1, l1)
    tree.add_link(1, 2, l2)
    tree.add_link(1, 3, l2)
    for rid in (1, 2, 3):
        expected = net.path_loss(0, rid)
        assert math.isclose(tree.total_loss(rid), expected, rel_tol=1e-9)
        p = 1.0 - expected
        sigma = math.sqrt(n_packets * p * (1.0 - p))
        observed = proto.receivers[rid].data_received
        assert abs(observed - n_packets * p) <= 6 * sigma, (
            f"receiver {rid}: {observed}/{n_packets} stream arrivals, "
            f"expected {n_packets * p:.1f} ± {6 * sigma:.1f}"
        )
    # Recovery still completes despite the lossy chain.
    assert proto.completion_fraction() == 1.0


@settings(max_examples=property_max_examples(8), deadline=None)
@given(
    l1=st.floats(min_value=0.01, max_value=0.20),
    l2=st.floats(min_value=0.01, max_value=0.20),
    seed=st.integers(min_value=1, max_value=2**31 - 1),
)
def test_flow_loss_marginals_match_treeloss_property(l1, l2, seed):
    """For arbitrary per-link loss rates and seeds, every receiver's bulk
    DATA arrival count is Binomial(n, 1 - treeloss.total_loss)."""
    n_packets = 400
    sim = Simulator(seed=seed)
    net = Network(sim)
    for _ in range(4):
        net.add_node()
    net.add_link(0, 1, 10e6, 0.002, loss_rate=l1)
    net.add_link(1, 2, 10e6, 0.002, loss_rate=l2)
    net.add_link(1, 3, 10e6, 0.002, loss_rate=l2)
    cfg = SharqfecConfig(n_packets=n_packets, group_size=8)
    proto = HybridSharqfecProtocol(net, cfg, 0, [1, 2, 3])
    proto.start(session_start=1.0, data_start=2.0)
    sim.run(until=60.0)

    tree = LossTree(root=0)
    tree.add_link(0, 1, l1)
    tree.add_link(1, 2, l2)
    tree.add_link(1, 3, l2)
    for rid in (1, 2, 3):
        p = 1.0 - tree.total_loss(rid)
        sigma = math.sqrt(n_packets * p * (1.0 - p))
        observed = proto.receivers[rid].data_received
        assert abs(observed - n_packets * p) <= 6 * sigma, (
            f"receiver {rid} (l1={l1:.3f}, l2={l2:.3f}, seed={seed}): "
            f"{observed}/{n_packets}, expected {n_packets * p:.1f} ± {6 * sigma:.1f}"
        )
