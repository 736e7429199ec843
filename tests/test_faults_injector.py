"""FaultPlan DSL + FaultInjector scheduling, tracing and determinism."""

from __future__ import annotations

import pytest

from repro.core.config import SharqfecConfig
from repro.core.protocol import SharqfecProtocol
from repro.errors import FaultError, TopologyError
from repro.faults import FaultInjector, FaultPlan, install_gilbert_elliott
from repro.net.network import Network
from repro.net.packet import Packet
from repro.sim.scheduler import Simulator
from repro.testing import (
    TraceRecorder,
    assert_eventual_delivery,
    assert_no_duplicate_delivery,
    assert_replay_identical,
    connected_receivers,
)

# ----------------------------------------------------------------- plan DSL


def test_plan_builder_validation():
    plan = FaultPlan("p")
    with pytest.raises(FaultError):
        plan.link_down(-1.0, 0, 1)
    with pytest.raises(FaultError):
        plan.set_loss(1.0, 0, 1, 1.5)
    with pytest.raises(FaultError):
        plan.partition(1.0, set())
    with pytest.raises(FaultError):
        plan.loss_ramp(2.0, 1.0, 0, 1, 0.0, 0.1)
    with pytest.raises(FaultError):
        plan.loss_ramp(1.0, 2.0, 0, 1, 0.0, 0.1, steps=1)
    with pytest.raises(FaultError):
        plan.gilbert_elliott(1.0, 0, 1, p_gb=0.0, p_bg=0.5)
    assert len(plan) == 0, "failed builder calls must not half-append"


def test_plan_actions_sorted_and_ramp_expansion():
    plan = (
        FaultPlan("ramp")
        .link_down(9.0, 0, 1)
        .loss_ramp(2.0, 4.0, 1, 2, 0.0, 0.3, steps=5)
        .link_up(1.0, 0, 1)
    )
    actions = plan.actions()
    assert [a.time for a in actions] == [1.0, 2.0, 2.5, 3.0, 3.5, 4.0, 9.0]
    ramp = [a for a in actions if a.kind == "set_loss"]
    rates = [a.param_dict()["rate"] for a in ramp]
    assert rates[0] == 0.0 and rates[-1] == pytest.approx(0.3)
    assert rates == sorted(rates)
    assert plan.last_time == 9.0
    assert "ramp" in plan.describe() and "set_loss" in plan.describe()


def test_crash_restart_expands_into_two_actions():
    plan = FaultPlan("churn").crash_restart(2.0, 3, down_for=0.5)
    assert [(a.time, a.kind) for a in plan.actions()] == [
        (2.0, "receiver_crash"),
        (2.5, "receiver_restart"),
    ]
    with pytest.raises(FaultError):
        plan.crash_restart(1.0, 3, down_for=0.0)


def test_plan_extend_merges_schedules():
    a = FaultPlan("a").link_down(1.0, 0, 1)
    b = FaultPlan("b").link_up(2.0, 0, 1)
    a.extend(b)
    assert [act.kind for act in a] == ["link_down", "link_up"]


# ---------------------------------------------------------------- injector


def line_network(seed=1, n=4):
    sim = Simulator(seed=seed)
    net = Network(sim)
    for _ in range(n):
        net.add_node()
    for i in range(n - 1):
        net.add_link(i, i + 1, 10e6, 0.01)
    return sim, net


def test_arm_validates_targets():
    sim, net = line_network()
    with pytest.raises(FaultError):
        FaultInjector(net, FaultPlan().node_crash(1.0, 99)).arm()
    with pytest.raises(TopologyError):
        FaultInjector(net, FaultPlan().link_down(1.0, 0, 3)).arm()
    with pytest.raises(FaultError):
        FaultInjector(net, FaultPlan().partition(1.0, {0, 99})).arm()


def test_actions_fire_at_their_times():
    sim, net = line_network()
    plan = FaultPlan().link_down(2.0, 1, 2).link_up(5.0, 1, 2)
    FaultInjector(net, plan).arm()
    observed = {}
    for t in (1.0, 3.0, 6.0):
        sim.at(t, lambda t=t: observed.__setitem__(t, net.link(1, 2).up))
    sim.run(until=10.0)
    assert observed == {1.0: True, 3.0: False, 6.0: True}


def test_partition_cuts_only_boundary_and_heal_is_exact():
    sim, net = line_network(n=5)
    # Pre-existing independent failure: 0-1 is already down.
    net.set_link_up(0, 1, False)
    plan = FaultPlan().partition(1.0, {2, 3, 4}).heal(2.0, {2, 3, 4})
    FaultInjector(net, plan).arm()
    state = {}
    sim.at(1.5, lambda: state.update(mid=(net.link(1, 2).up, net.link(2, 3).up)))
    sim.run(until=3.0)
    # During the partition only the boundary link 1-2 was cut.
    assert state["mid"] == (False, True)
    # Heal restored the boundary — but not the unrelated 0-1 failure.
    assert net.link(1, 2).up and net.link(2, 1).up
    assert not net.link(0, 1).up


def test_churn_requires_a_protocol():
    sim, net = line_network()
    with pytest.raises(FaultError, match="protocol"):
        FaultInjector(net, FaultPlan().join(1.0, 2)).arm()


def test_churn_validates_receiver_membership():
    sim, net = line_network()
    proto = SharqfecProtocol(net, SharqfecConfig(n_packets=16), 0, [1, 2, 3])
    plan = FaultPlan().crash_restart(1.0, 0, down_for=0.1)  # 0 is the source
    with pytest.raises(FaultError, match="not a session receiver"):
        FaultInjector(net, plan, protocol=proto).arm()


def test_churn_actions_drive_the_protocol():
    sim, net = line_network()
    proto = SharqfecProtocol(net, SharqfecConfig(n_packets=32), 0, [1, 2, 3])
    plan = FaultPlan("churn").crash_restart(6.05, 3, down_for=0.3)
    injector = FaultInjector(net, plan, protocol=proto).arm()
    proto.start(1.0, 6.0)
    down_state = {}
    sim.at(6.2, lambda: down_state.update(stopped=proto.receivers[3]._stopped))
    with TraceRecorder(sim) as recorder:
        sim.run(until=40.0)
    assert down_state["stopped"] is True
    assert not proto.receivers[3]._stopped
    assert recorder.count("fault.receiver_crash") == 1
    assert recorder.count("fault.receiver_restart") == 1
    assert len(injector.fired) == 2
    assert_eventual_delivery(proto)
    assert_no_duplicate_delivery(proto)


def test_faults_land_in_the_trace_stream():
    sim, net = line_network()
    plan = (
        FaultPlan("traced")
        .link_down(1.0, 0, 1)
        .link_up(2.0, 0, 1)
        .node_crash(3.0, 2)
        .node_restart(4.0, 2)
        .gilbert_elliott(5.0, 1, 2, p_gb=0.1, p_bg=0.2)
        .clear_loss_model(6.0, 1, 2)
    )
    injector = FaultInjector(net, plan).arm()
    with TraceRecorder(sim) as recorder:
        sim.run(until=10.0)
    assert recorder.count("fault.") == 6
    # Each up/down state change also triggers an IGP reconvergence event,
    # traced under its own (non-fault) category.
    assert recorder.count("net.reconverge") == 4
    categories = [
        r.category for r in recorder.records if r.category.startswith("fault.")
    ]
    assert categories == [
        "fault.link_down",
        "fault.link_up",
        "fault.node_crash",
        "fault.node_restart",
        "fault.gilbert_elliott",
        "fault.clear_loss_model",
    ]
    assert len(injector.fired) == 6
    # The mid-run Gilbert–Elliott install took effect and was reverted.
    assert net.link(1, 2).loss_model is None


def test_cannot_arm_twice_or_in_the_past():
    sim, net = line_network()
    injector = FaultInjector(net, FaultPlan().link_down(5.0, 0, 1)).arm()
    with pytest.raises(FaultError):
        injector.arm()
    sim.run(until=2.0)
    with pytest.raises(FaultError):
        FaultInjector(net, FaultPlan().link_down(1.0, 0, 1)).arm()


# ------------------------------------------------------------- determinism


def chaos_transcript() -> str:
    """A full SHARQFEC chaos run, rendered to a canonical transcript."""
    sim = Simulator(seed=1234)
    net = Network(sim)
    for _ in range(5):
        net.add_node()
    net.add_link(0, 1, 10e6, 0.010)
    net.add_link(1, 2, 10e6, 0.020)
    net.add_link(1, 3, 10e6, 0.020)
    net.add_link(3, 4, 10e6, 0.015)
    install_gilbert_elliott(net, 1, 2, p_gb=0.05, p_bg=0.25, slot_s=0.005)
    plan = (
        FaultPlan("chaos")
        .loss_ramp(6.0, 6.2, 0, 1, 0.0, 0.15, steps=4)
        .link_down(6.10, 1, 3)
        .link_up(6.22, 1, 3)
        .node_crash(6.25, 3)
        .node_restart(6.33, 3)
        .partition(6.35, {3, 4})
        .heal(6.42, {3, 4})
        .set_loss(6.45, 0, 1, 0.0)
    )
    FaultInjector(net, plan).arm()
    config = SharqfecConfig(n_packets=64, group_size=16)
    protocol = SharqfecProtocol(net, config, 0, [1, 2, 3, 4])
    with TraceRecorder(sim) as recorder:
        protocol.start(1.0, 6.0)
        sim.run(until=60.0)
        protocol.stop()
    assert_eventual_delivery(protocol)
    assert_no_duplicate_delivery(protocol)
    assert connected_receivers(net, 0, [1, 2, 3, 4]) == {1, 2, 3, 4}
    assert recorder.count("fault.") == len(plan)
    return recorder.render()


def test_seeded_chaos_run_replays_byte_identically():
    """Acceptance: fixed (FaultPlan, seed) ⇒ byte-identical trace output."""
    transcript = assert_replay_identical(chaos_transcript, runs=2)
    assert "fault.link_down" in transcript
    assert "fault.gilbert" not in transcript  # installed pre-run, not via plan
    assert "pkt.drop" in transcript, "the chaos run must actually lose packets"
