"""Gilbert–Elliott burst model + link/node fault state in the network."""

from __future__ import annotations

import pytest

from repro.errors import FaultError
from repro.faults.models import (
    GilbertElliott,
    clear_loss_model,
    install_gilbert_elliott,
    matched_gilbert_params,
)
from repro.net.network import Network
from repro.net.packet import Packet
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Simulator


def make_model(seed=3, **kwargs):
    rng = RngRegistry(seed)
    params = dict(p_gb=0.05, p_bg=0.25, slot_s=0.01)
    params.update(kwargs)
    return GilbertElliott(
        state_rng=rng.stream("state"), packet_rng=rng.stream("pkt"), **params
    )


# ---------------------------------------------------------------- parameters


def test_parameter_validation():
    with pytest.raises(FaultError):
        GilbertElliott(p_gb=0.0, p_bg=0.5)
    with pytest.raises(FaultError):
        GilbertElliott(p_gb=0.5, p_bg=1.5)
    with pytest.raises(FaultError):
        GilbertElliott(p_gb=0.5, p_bg=0.5, loss_bad=1.5)
    with pytest.raises(FaultError):
        GilbertElliott(p_gb=0.5, p_bg=0.5, slot_s=0.0)


def test_matched_params_hit_target_stationary_rate():
    for rate in (0.02, 0.1, 0.188):
        p_gb, p_bg = matched_gilbert_params(rate, p_bg=0.2)
        model = make_model(p_gb=p_gb, p_bg=p_bg)
        assert model.stationary_loss_rate == pytest.approx(rate)
    with pytest.raises(FaultError):
        matched_gilbert_params(0.0)
    with pytest.raises(FaultError):
        matched_gilbert_params(0.99, p_bg=0.2)  # would need p_gb > 1


# --------------------------------------------------------------------- chain


def test_advance_is_lazy_and_idempotent():
    model = make_model()
    model.advance_to(0.005)  # below one slot: no transition drawn
    assert model.transitions == 0
    model.advance_to(1.0)
    state, slot = model.bad, model._slot
    model.advance_to(1.0)  # same time: no further draws
    model.advance_to(0.5)  # going "backwards" is a no-op, never a rewind
    assert (model.bad, model._slot) == (state, slot)


def test_same_seed_same_state_sequence():
    a, b = make_model(seed=11), make_model(seed=11)
    times = [0.1 * i for i in range(200)]
    seq_a = []
    seq_b = []
    for t in times:
        a.advance_to(t)
        b.advance_to(t)
        seq_a.append(a.bad)
        seq_b.append(b.bad)
    assert seq_a == seq_b
    assert any(seq_a), "chain should visit the Bad state over 20 s"


def test_state_at_time_is_independent_of_query_pattern():
    """Querying every 1 ms vs once at the end lands in the same state."""
    fine, coarse = make_model(seed=5), make_model(seed=5)
    t = 0.0
    while t < 10.0:
        fine.advance_to(t)
        t += 0.001
    fine.advance_to(10.0)
    coarse.advance_to(10.0)
    assert fine.bad == coarse.bad
    assert fine._slot == coarse._slot


def test_stationary_fraction_approximates_analytic():
    model = make_model(seed=9, p_gb=0.05, p_bg=0.25)
    bad_slots = 0
    n = 20_000
    for i in range(1, n + 1):
        model.advance_to(i * model.slot_s)
        bad_slots += model.bad
    observed = bad_slots / n
    assert observed == pytest.approx(model.stationary_loss_rate, abs=0.03)


# ----------------------------------------------------- network wiring + fix


def burst_net(seed=4):
    sim = Simulator(seed=seed)
    net = Network(sim)
    net.add_node()
    net.add_node()
    net.add_link(0, 1, 10e6, 0.01)
    (model,) = install_gilbert_elliott(
        net, 0, 1, p_gb=0.2, p_bg=0.3, slot_s=0.01, both=False
    )
    return sim, net, model


def test_install_wires_per_direction_models():
    sim = Simulator(seed=4)
    net = Network(sim)
    net.add_node()
    net.add_node()
    net.add_link(0, 1, 10e6, 0.01)
    fwd, rev = install_gilbert_elliott(net, 0, 1, p_gb=0.1, p_bg=0.2)
    assert net.link(0, 1).loss_model is fwd
    assert net.link(1, 0).loss_model is rev
    assert fwd is not rev
    clear_loss_model(net, 0, 1)
    assert net.link(0, 1).loss_model is None
    assert net.link(1, 0).loss_model is None


def test_exempt_packets_advance_model_state():
    """The loss-exemption early-return must not bypass the model.

    Regression for the determinism bug: a skipped advance would let a
    packet-driven model's state depend on whether session traffic crossed.
    """
    sim, net, model = burst_net()
    exempt = Packet("SESSION", 0, -1, 100, loss_exempt=True)
    sim.now = 1.0
    dropped = net._drops(net.link(0, 1), exempt)
    assert not dropped, "exempt packets never suffer model loss on an up link"
    assert model._slot == 100, "the crossing must advance the chain to now"


def test_drop_pattern_unchanged_by_interleaved_exempt_traffic():
    """Data-packet drop decisions are a function of the clock alone."""

    def data_decisions(with_session: bool):
        sim, net, model = burst_net(seed=21)
        link = net.link(0, 1)
        data = Packet("DATA", 0, -1, 1000)
        session = Packet("SESSION", 0, -1, 100, loss_exempt=True)
        decisions = []
        for i in range(400):
            sim.now = 0.005 * i
            if with_session and i % 3 == 0:
                assert not net._drops(link, session)
            decisions.append(net._drops(link, data))
        return decisions

    assert data_decisions(False) == data_decisions(True)


def test_down_link_drops_everything_including_exempt():
    sim, net, _ = burst_net()
    link = net.link(0, 1)
    exempt = Packet("NACK", 0, -1, 32, loss_exempt=True)
    link.fail()
    assert net._drops(link, exempt)
    link.restore()
    assert not net._drops(link, exempt)


def test_set_link_up_and_node_up_helpers():
    sim = Simulator(seed=1)
    net = Network(sim)
    for _ in range(3):
        net.add_node()
    net.add_link(0, 1, 10e6, 0.01)
    net.add_link(1, 2, 10e6, 0.01)
    net.set_link_up(0, 1, False)
    assert not net.link(0, 1).up and not net.link(1, 0).up
    net.set_link_up(0, 1, True, both=False)
    assert net.link(0, 1).up and not net.link(1, 0).up
    net.set_node_up(1, False)
    assert not net.nodes[1].up
    with pytest.raises(Exception):
        net.set_node_up(99, False)


def test_down_node_neither_delivers_nor_forwards():
    sim = Simulator(seed=2)
    net = Network(sim)
    for _ in range(3):
        net.add_node()
    net.add_link(0, 1, 10e6, 0.01)
    net.add_link(1, 2, 10e6, 0.01)
    group = net.create_group("g")
    got = {1: 0, 2: 0}
    net.subscribe(group.group_id, 1, lambda p: got.__setitem__(1, got[1] + 1))
    net.subscribe(group.group_id, 2, lambda p: got.__setitem__(2, got[2] + 1))

    net.set_node_up(1, False)
    net.multicast(0, Packet("DATA", 0, group.group_id, 100))
    sim.run(until=1.0)
    assert got == {1: 0, 2: 0}, "crashed relay must blackhole its subtree"

    # After the restart, routing only readmits the node once the
    # reconvergence delay has elapsed — run past it before sending again.
    net.set_node_up(1, True)
    sim.run(until=2.0)
    net.multicast(0, Packet("DATA", 0, group.group_id, 100))
    sim.run(until=3.0)
    assert got == {1: 1, 2: 1}

    # A crashed source transmits nothing at all.
    net.set_node_up(0, False)
    net.multicast(0, Packet("DATA", 0, group.group_id, 100))
    sim.run(until=4.0)
    assert got == {1: 1, 2: 1}
