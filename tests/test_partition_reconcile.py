"""Acceptance scenario for partition-tolerant ZCR election (ISSUE 7).

One seeded run on the two-zone healing topology stacks every robustness
mechanism at once:

* both zone representatives crash at the same instant mid-stream (liveness
  detection + full elections in two zones concurrently);
* the leaves of zone A are partitioned away, so when the old rep restarts
  the zone holds two simultaneous authorities — a genuine split brain;
* lossy links force real NACK/repair/injection traffic through the
  failovers;
* the partition heals, and reconciliation must deterministically collapse
  the zone back to a single representative with no repair extent
  preemptively injected twice across the merge.

Checked outcomes: eventual delivery for every receiver, no duplicate
delivery, single live ZCR per zone at quiescence, zero duplicate
injections after the heal, a populated bounded failover-latency metric in
the observer registry, and byte-identical replay of the whole scenario.
"""

from __future__ import annotations

from repro.core.config import SharqfecConfig
from repro.core.protocol import SharqfecProtocol
from repro.faults import FaultInjector, FaultPlan
from repro.net.network import Network
from repro.obs import RunObserver
from repro.scoping.zone import ZoneHierarchy
from repro.sim.scheduler import Simulator
from repro.testing import (
    RepairContainment,
    TraceRecorder,
    assert_eventual_delivery,
    assert_no_duplicate_delivery,
    assert_no_duplicate_injection,
    assert_replay_identical,
    assert_single_zcr_per_zone,
)

SEED = 20260808
STREAM_START = 6.0
HEAL_AT = 16.0


def build_network(sim: Simulator) -> Network:
    net = Network(sim)
    for _ in range(8):
        net.add_node()
    net.add_link(0, 1, 10e6, 0.010)   # source -> hub
    net.add_link(1, 2, 10e6, 0.015)   # hub -> head A
    net.add_link(2, 3, 10e6, 0.010)
    net.add_link(2, 4, 10e6, 0.010)
    net.add_link(3, 4, 10e6, 0.020)   # in-zone detour
    net.add_link(1, 5, 10e6, 0.015)   # hub -> head B
    net.add_link(5, 6, 10e6, 0.010)
    net.add_link(5, 7, 10e6, 0.010)
    return net


def build_hierarchy() -> ZoneHierarchy:
    h = ZoneHierarchy()
    root = h.add_root(range(8), name="Z0")
    h.add_zone(root.zone_id, {2, 3, 4}, name="A")
    h.add_zone(root.zone_id, {5, 6, 7}, name="B")
    return h


def build_plan() -> FaultPlan:
    plan = FaultPlan("double-crash-split-brain")
    # Repair pressure: both access trees lose packets during the stream.
    plan.set_loss(STREAM_START, 2, 3, 0.08)
    plan.set_loss(STREAM_START, 5, 6, 0.08)
    plan.set_loss(25.0, 2, 3, 0.0)
    plan.set_loss(25.0, 5, 6, 0.0)
    # Both zone representatives die at the same instant mid-stream and
    # come back after the zones have failed over to successors.
    plan.crash_restart(6.2, 2, down_for=5.0)
    plan.crash_restart(6.2, 5, down_for=5.0)
    # Zone A's leaves are cut off before the old rep returns: when node 2
    # restarts it re-elects itself on its side while node 3 (or 4) rules
    # the island — dual authority until the heal.
    plan.partition_flap(8.0, {3, 4}, heal_after=HEAL_AT - 8.0)
    return plan


def run_scenario() -> str:
    sim = Simulator(seed=SEED)
    net = build_network(sim)
    config = SharqfecConfig(n_packets=64, group_size=8)
    protocol = SharqfecProtocol(net, config, 0, list(range(1, 8)), build_hierarchy())
    FaultInjector(net, build_plan(), protocol=protocol).arm()
    context = f"seed={SEED} plan=double-crash-split-brain"
    with RunObserver(sim) as observer, TraceRecorder(sim) as recorder, \
            RepairContainment.for_protocol(protocol) as containment:
        protocol.start(1.0, STREAM_START)
        sim.run(until=150.0)
        # Exactly one live representative per zone survived reconciliation
        # (checked pre-stop: the invariant only counts live members).
        elected = assert_single_zcr_per_zone(protocol, context=context)
        protocol.stop()
    assert len(elected) == 2, f"{context}: expected both tree zones checked"

    assert_eventual_delivery(protocol, context=context)
    assert_no_duplicate_delivery(protocol, context=context)
    containment.assert_contained(context=context)
    # No repair extent was preemptively injected twice across the heal.
    assert_no_duplicate_injection(recorder.records, after=HEAL_AT, context=context)

    # The election lifecycle is observable: both zones suspected, elected
    # and failed over, and the worst suspect-to-adoption latency stayed
    # within the detector + election budget.
    counts = observer.registry.labeled_totals("zcr_events", "event")
    for event in ("suspect", "election", "takeover", "failover"):
        assert counts.get(event, 0) >= 1, f"{context}: no {event!r} events"
    assert counts.get("reconcile", 0) >= 0  # repair handoff is loss-dependent
    latency = observer.registry.gauge("zcr_failover_latency_max").value
    assert 0.0 < latency < 6.0, f"{context}: failover latency {latency}"
    return recorder.render()


def test_double_crash_with_partition_heals_cleanly_and_replays():
    assert_replay_identical(run_scenario, runs=2, context="partition-reconcile")
