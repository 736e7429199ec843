"""Cost of receiver churn: a storm of crash-restarts vs an undisturbed run.

On the Figure 10 topology a wave of receivers crash-restarts mid-stream
(one per tree, staggered outages).  Every churned receiver resynchronizes
through the self-healing layer — restart resync, stream-extent gossip,
scope-escalating requests — so the run still completes; the bench reports
how much extra repair traffic and recovery time the churn cost relative
to the quiet baseline.
"""

from __future__ import annotations

from repro.core.config import SharqfecConfig
from repro.core.protocol import SharqfecProtocol
from repro.faults import FaultInjector, FaultPlan
from repro.sim.scheduler import Simulator
from repro.testing import (
    assert_eventual_delivery,
    assert_no_duplicate_delivery,
    assert_recovery_within,
    heal_deadline,
)
from repro.topology.figure10 import build_figure10

DATA_START = 6.0


def run(churn: bool, n_packets: int, seed: int):
    sim = Simulator(seed=seed)
    topo = build_figure10(sim)
    config = SharqfecConfig(n_packets=n_packets)
    proto = SharqfecProtocol(
        topo.network, config, topo.source, topo.receivers, topo.hierarchy
    )
    stream_len = n_packets * config.inter_packet_interval
    plan = FaultPlan("churn-storm")
    # One grandchild per tree crash-restarts, outages staggered across the
    # middle of the stream.  The quiet run keeps the same receivers up.
    victims = [topo.grandchildren[topo.children[head][0]][0] for head in topo.heads]
    if churn:
        for t, victim in enumerate(victims):
            at = DATA_START + (0.25 + 0.05 * t) * stream_len
            plan.crash_restart(at, victim, down_for=0.1 * stream_len)
        FaultInjector(topo.network, plan, protocol=proto).arm()
    proto.start(1.0, DATA_START)
    sim.run(until=DATA_START + stream_len + 40.0)
    assert_eventual_delivery(proto)
    assert_no_duplicate_delivery(proto)
    if churn:
        assert_recovery_within(
            proto, heal_deadline(topo.network, plan, bound=stream_len + 35.0)
        )
    sender_repairs = sum(g.repairs_sent for g in proto.sender.groups.values())
    victim_nacks = sum(proto.receivers[v].nacks_sent for v in victims)
    return proto.total_nacks_sent(), sender_repairs, victim_nacks


def test_churn_storm_recovery_cost(benchmark, n_packets, seed):
    churned, quiet = benchmark.pedantic(
        lambda: (run(True, n_packets, seed), run(False, n_packets, seed)),
        rounds=1, iterations=1,
    )
    print()
    for name, (nacks, repairs, victim_nacks) in (("churn-storm", churned), ("quiet", quiet)):
        print(f"  {name:11s}: nacks={nacks:5d} sender_repairs={repairs:5d} "
              f"churned_receiver_nacks={victim_nacks:4d}")
    # Churn must cost the churned receivers extra recovery work — otherwise
    # the storm was a no-op and the bench measures nothing.  The total over
    # all receivers cannot show it: a crash shifts every later draw of the
    # shared loss stream, and the other receivers' NACK count moves by up
    # to a third between two loss patterns, either way (seeds 1-8, 128
    # packets), against seven receivers' extra NACKs.
    assert churned[2] > quiet[2]
