"""White-box tests of SHARQFEC endpoint mechanics (§4's rules one by one).

These drive the agent handlers directly with constructed PDUs over a tiny
two-zone network, pinning the behaviours the integration tests only observe
in aggregate: speculative queues, reply spacing, identity allocation,
scope escalation, and preemptive injection arithmetic.
"""

from __future__ import annotations

import pytest

from repro.core.config import MAX_IDENTITY, PACKET_SIZE, SharqfecConfig
from repro.core.pdus import DataPdu, FecPdu, NackPdu
from repro.core.protocol import SharqfecProtocol
from repro.net.network import Network
from repro.scoping.zone import ZoneHierarchy
from repro.sim.scheduler import Simulator


def build(seed=1, **cfg_kwargs):
    """source 0 — hub 1 — leaves {2,3}; zones Z0 ⊃ ZA={1,2,3}."""
    sim = Simulator(seed=seed)
    net = Network(sim)
    for _ in range(4):
        net.add_node()
    net.add_link(0, 1, 10e6, 0.010)
    net.add_link(1, 2, 10e6, 0.020)
    net.add_link(1, 3, 10e6, 0.020)
    h = ZoneHierarchy()
    root = h.add_root(range(4), name="Z0")
    za = h.add_zone(root.zone_id, {1, 2, 3}, name="ZA")
    cfg = SharqfecConfig(n_packets=32, **cfg_kwargs)
    proto = SharqfecProtocol(net, cfg, 0, [1, 2, 3], h)
    for agent in [proto.sender, *proto.receivers.values()]:
        agent.join()
    return sim, net, proto, root, za, cfg


def data_pdu(proto, seq, cfg):
    return DataPdu(
        src=0, group=proto.channels.data_group_id, size_bytes=PACKET_SIZE,
        seq=seq, group_id=seq // cfg.group_size, index=seq % cfg.group_size,
    )


def nack_pdu(proto, zone_id, group_id=0, llc=2, n_needed=2, src=3, highest=15):
    return NackPdu(
        src=src, group=proto.channels.repair_group(zone_id), size_bytes=64,
        group_id=group_id, llc=llc, highest_seen=highest, n_needed=n_needed,
        zone_id=zone_id,
    )


def complete_group(agent, cfg, group_id=0):
    state = agent.group_state(group_id)
    for i in range(state.k):
        state.record_index(i)
    state.repair_phase = True
    return state


def test_nack_sets_speculative_queue_and_reply_timer():
    sim, net, proto, root, za, cfg = build()
    agent = proto.receivers[2]
    complete_group(agent, cfg)
    agent.handle_nack(nack_pdu(proto, za.zone_id, n_needed=3))
    state = agent.groups[0]
    assert state.outstanding[za.zone_id] == 3
    timer = agent._reply_timers[(za.zone_id, 0)]
    assert timer.running


def test_queue_increase_does_not_reset_reply_timer():
    sim, net, proto, root, za, cfg = build()
    agent = proto.receivers[2]
    complete_group(agent, cfg)
    agent.handle_nack(nack_pdu(proto, za.zone_id, n_needed=1))
    first_expiry = agent._reply_timers[(za.zone_id, 0)].expires_at
    agent.handle_nack(nack_pdu(proto, za.zone_id, n_needed=5, llc=5))
    assert agent.groups[0].outstanding[za.zone_id] == 5
    assert agent._reply_timers[(za.zone_id, 0)].expires_at == first_expiry


def test_reply_pump_sends_with_spacing_and_monotone_identities():
    sim, net, proto, root, za, cfg = build()
    agent = proto.receivers[2]
    complete_group(agent, cfg)
    sent = []
    original = net.multicast

    def spy(src, pkt):
        if isinstance(pkt, FecPdu):
            sent.append((round(sim.now, 6), pkt.index))
        return original(src, pkt)

    net.multicast = spy
    agent.handle_nack(nack_pdu(proto, za.zone_id, n_needed=3))
    # Run just past the pump; further out, *other* receivers react to the
    # stray repairs they overheard (they think they lost the whole group),
    # which is correct emergent behaviour but not what this test pins.
    sim.run(until=0.15)
    assert len(sent) == 3
    indices = [i for _, i in sent]
    assert indices == [16, 17, 18]  # identities allocated after k-1 = 15
    gaps = [b[0] - a[0] for a, b in zip(sent, sent[1:])]
    assert all(g == pytest.approx(cfg.repair_spacing) for g in gaps)


def test_incomplete_receiver_does_not_repair():
    sim, net, proto, root, za, cfg = build()
    agent = proto.receivers[2]
    state = agent.group_state(0)
    state.record_index(0)  # far from complete
    agent.handle_nack(nack_pdu(proto, za.zone_id, n_needed=2))
    assert state.outstanding[za.zone_id] == 2  # tracked for suppression
    assert (za.zone_id, 0) not in agent._reply_timers or not agent._reply_timers[
        (za.zone_id, 0)
    ].running


def test_fec_decrements_nested_zone_queues_only():
    sim, net, proto, root, za, cfg = build()
    agent = proto.receivers[2]
    state = agent.group_state(0)
    state.outstanding[za.zone_id] = 2
    state.outstanding[root.zone_id] = 2
    # A repair on ZA's channel is invisible outside ZA: the root-zone queue
    # must not shrink.
    fec = FecPdu(
        src=3, group=proto.channels.repair_group(za.zone_id), size_bytes=1000,
        group_id=0, index=16, new_high_id=16, zone_id=za.zone_id,
    )
    agent.handle_fec(fec)
    assert state.outstanding[za.zone_id] == 1
    assert state.outstanding[root.zone_id] == 2
    # A root-scope repair decrements every nested queue.
    fec_root = FecPdu(
        src=0, group=proto.channels.repair_group(root.zone_id), size_bytes=1000,
        group_id=0, index=17, new_high_id=17, zone_id=root.zone_id,
    )
    agent.handle_fec(fec_root)
    assert state.outstanding[za.zone_id] == 0
    assert state.outstanding[root.zone_id] == 1


def test_fec_resets_backoff_and_tracks_highest():
    sim, net, proto, root, za, cfg = build()
    agent = proto.receivers[2]
    state = agent.group_state(0)
    state.backoff_i = 5
    fec = FecPdu(
        src=3, group=proto.channels.repair_group(za.zone_id), size_bytes=1000,
        group_id=0, index=16, new_high_id=20, zone_id=za.zone_id,
    )
    agent.handle_fec(fec)
    assert state.backoff_i == 1
    assert state.highest_known == 20
    assert state.allocate_repair_index() == 21


def test_nack_highest_updates_identity_allocation():
    sim, net, proto, root, za, cfg = build()
    agent = proto.receivers[2]
    complete_group(agent, cfg)
    agent.handle_nack(nack_pdu(proto, za.zone_id, highest=25))
    assert agent.groups[0].highest_known == 25


def _fec_sent_by(net, node):
    """Spy on ``net.multicast``; returns the list of FEC PDUs ``node`` sends."""
    sent = []
    original = net.multicast

    def spy(src, pkt):
        if isinstance(pkt, FecPdu) and src == node:
            sent.append(pkt)
        return original(src, pkt)

    net.multicast = spy
    return sent


def test_repairer_stays_silent_once_a_peer_announces_the_last_identity():
    """With identity MAX_IDENTITY announced there is none left to allocate:
    the reply timer must not try (that raised CodecError out of sim.run)."""
    sim, net, proto, root, za, cfg = build()
    agent = proto.receivers[2]
    complete_group(agent, cfg)
    sent = _fec_sent_by(net, 2)
    agent.handle_nack(nack_pdu(proto, za.zone_id, n_needed=1, highest=MAX_IDENTITY))
    sim.run(until=0.15)
    assert sent == []
    assert agent.groups[0].highest_known == MAX_IDENTITY


def test_source_injection_stays_silent_once_the_last_identity_is_known():
    sim, net, proto, root, za, cfg = build()
    sender = proto.sender
    sender.predictor(root.zone_id).update(8)  # predict 2 packets
    sent = _fec_sent_by(net, 0)
    state = sender.group_state(0)
    state.note_highest(MAX_IDENTITY)
    sender._enter_repair_phase(state)
    assert state.outstanding[root.zone_id] == 2
    sim.run(until=1.0)
    assert sent == []


def test_scope_escalation_after_two_attempts():
    sim, net, proto, root, za, cfg = build()
    agent = proto.receivers[2]
    state = agent.group_state(0)
    state.record_index(0)
    state.count_data_losses_before(5)  # llc = 4
    state.repair_phase = True
    assert agent._attempt_zone(state) == za.zone_id
    agent._send_nack(state, za.zone_id)
    assert agent._attempt_zone(state) == za.zone_id  # one attempt so far
    agent._send_nack(state, za.zone_id)
    assert agent._attempt_zone(state) == root.zone_id  # escalated
    assert state.nack_sent_count == 2


def test_suppression_when_other_receiver_worse():
    sim, net, proto, root, za, cfg = build()
    agent = proto.receivers[2]
    state = agent.group_state(0)
    for i in range(14):
        state.record_index(i)  # missing indices 14, 15: deficit = 2
    state.finalize_data_losses()  # llc = 2
    state.repair_phase = True
    agent._ensure_request_timer(state)
    # A NACK from a worse-off peer raises the ZLC above our LLC and seeds
    # the speculative queue; our timer firing must then stay silent.
    agent.handle_nack(nack_pdu(proto, za.zone_id, llc=4, n_needed=4))
    before = agent.nacks_sent
    agent._on_request_timer(0)
    assert agent.nacks_sent == before


def test_request_fires_when_we_are_worst():
    sim, net, proto, root, za, cfg = build()
    agent = proto.receivers[2]
    state = agent.group_state(0)
    state.record_index(0)
    state.count_data_losses_before(6)  # llc = 5
    state.repair_phase = True
    agent.handle_nack(nack_pdu(proto, za.zone_id, llc=2, n_needed=2))
    before = agent.nacks_sent
    agent._on_request_timer(0)
    assert agent.nacks_sent == before + 1


def test_sender_proactive_fec_uses_predictor():
    sim, net, proto, root, za, cfg = build()
    sender = proto.sender
    sender.predictor(root.zone_id).update(8)  # predict 2 packets (0.25*8)
    sent = []
    original = net.multicast

    def spy(src, pkt):
        if isinstance(pkt, FecPdu):
            sent.append(pkt)
        return original(src, pkt)

    net.multicast = spy
    state = sender.group_state(0)
    sender._enter_repair_phase(state)
    sim.run(until=1.0)
    assert len(sent) == 2
    assert all(p.zone_id == root.zone_id for p in sent)


def test_sender_proactive_disabled_without_injection():
    sim, net, proto, root, za, cfg = build(injection=False)
    sender = proto.sender
    sender.predictor(root.zone_id).update(8)
    state = sender.group_state(0)
    sender._enter_repair_phase(state)
    assert state.outstanding[root.zone_id] == 0


def test_zcr_injection_subtracts_visible_redundancy():
    sim, net, proto, root, za, cfg = build()
    agent = proto.receivers[1]  # the hub: natural ZCR of ZA
    agent.session.zcr_ids[za.zone_id] = 1
    agent.predictor(za.zone_id).update(12)  # predict 3
    state = agent.group_state(0)
    state.fec_heard[za.zone_id] = 2  # two repairs already visible zone-wide
    for i in range(state.k):
        state.record_index(i)
    state.repair_phase = True
    agent._run_zcr_injection(state)
    assert state.outstanding[za.zone_id] == 1  # 3 predicted - 2 heard


def test_zlc_sample_falls_back_to_own_llc():
    sim, net, proto, root, za, cfg = build()
    agent = proto.receivers[1]
    agent.session.zcr_ids[za.zone_id] = 1
    state = agent.group_state(0)
    state.record_index(0)
    state.count_data_losses_before(4)  # own llc = 3, no NACKs heard
    agent._sample_zlc(state, za.zone_id)
    assert agent.predictor(za.zone_id).value == pytest.approx(0.25 * 3)


def test_zlc_sample_prefers_zone_reports():
    sim, net, proto, root, za, cfg = build()
    agent = proto.receivers[1]
    agent.session.zcr_ids[za.zone_id] = 1
    state = agent.group_state(0)
    state.raise_zlc(za.zone_id, 6)
    agent._sample_zlc(state, za.zone_id)
    assert agent.predictor(za.zone_id).value == pytest.approx(0.25 * 6)


def test_source_in_smallest_zone_forces_root_nacks():
    """§4: if the source shares the receiver's smallest zone, requests go
    to the largest scope instead."""
    sim = Simulator(seed=2)
    net = Network(sim)
    for _ in range(3):
        net.add_node()
    net.add_link(0, 1, 10e6, 0.01)
    net.add_link(1, 2, 10e6, 0.01)
    h = ZoneHierarchy()
    root = h.add_root({0, 1, 2}, name="Z0")
    inner = h.add_zone(root.zone_id, {0, 1}, name="withsource")
    cfg = SharqfecConfig(n_packets=16)
    proto = SharqfecProtocol(net, cfg, 0, [1, 2], h)
    agent = proto.receivers[1]  # smallest zone contains the source
    state = agent.group_state(0)
    assert agent._attempt_zone(state) == root.zone_id


def test_stopped_agent_ignores_everything():
    sim, net, proto, root, za, cfg = build()
    agent = proto.receivers[2]
    agent.stop()
    agent._on_data_channel(data_pdu(proto, 0, cfg))
    agent._on_repair_channel(nack_pdu(proto, za.zone_id))
    assert agent.groups == {}
