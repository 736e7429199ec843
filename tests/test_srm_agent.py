"""Unit-level tests for SRM agent mechanics on tiny networks."""

from __future__ import annotations

import pickle

import pytest

from repro.net.network import Network
from repro.sim.scheduler import Simulator
from repro.srm.agent import SrmAgent
from repro.srm.config import SrmConfig
from repro.srm.pdus import SrmSessionEntry, SrmSessionPdu


def make_pair(seed=1, loss=0.0, n_packets=16):
    sim = Simulator(seed=seed)
    net = Network(sim)
    net.add_node()
    net.add_node()
    net.add_link(0, 1, 10e6, 0.010, loss_rate=loss)
    members = {0, 1}
    data = net.create_group("d", scope=members).group_id
    sess = net.create_group("s", scope=members).group_id
    cfg = SrmConfig(n_packets=n_packets)
    src = SrmAgent(0, sim, net, data, sess, cfg, 0, is_source=True)
    rcv = SrmAgent(1, sim, net, data, sess, cfg, 0)
    for agent in (src, rcv):
        agent.join()
    return sim, net, src, rcv


def test_gap_detection_creates_losses():
    sim, net, src, rcv = make_pair()
    rcv._handle_data(0)
    rcv._handle_data(3)
    assert set(rcv.losses) == {1, 2}
    assert rcv.highest_seen == 3


def test_note_exists_tail():
    sim, net, src, rcv = make_pair()
    rcv._handle_data(0)
    rcv._note_exists(4)
    assert set(rcv.losses) == {1, 2, 3, 4}


def test_repair_resolves_loss_and_cancels_timer():
    sim, net, src, rcv = make_pair()
    rcv._handle_data(0)
    rcv._handle_data(2)
    loss = rcv.losses[1]
    assert loss.timer.running
    rcv._handle_repair(1)
    assert 1 not in rcv.losses
    assert not loss.timer.running
    assert 1 in rcv.received


def test_repair_past_a_gap_declares_the_gap():
    # A member that was down while 1 went by and comes back to a repair for
    # 2: the repair proves 1 exists, exactly as a data packet would.  It
    # used to raise highest_seen past the gap, after which no session
    # advertisement could ever name it.
    sim, net, src, rcv = make_pair()
    rcv._handle_data(0)
    rcv._handle_repair(2)
    assert set(rcv.losses) == {1}
    assert rcv.losses[1].timer.running
    assert rcv.highest_seen == 2


def test_duplicate_data_ignored():
    sim, net, src, rcv = make_pair()
    rcv._handle_data(0)
    rcv._handle_data(0)
    assert rcv.data_received == 2  # counted as traffic
    assert len(rcv.received) == 1


def test_request_suppression_backs_off():
    from repro.srm.pdus import SrmRequestPdu

    sim, net, src, rcv = make_pair()
    rcv._handle_data(0)
    rcv._handle_data(2)
    loss = rcv.losses[1]
    backoff_before = loss.backoff
    expiry_before = loss.timer.expires_at
    rcv._handle_request(SrmRequestPdu(0, rcv.data_group, 32, 1))
    assert loss.backoff == backoff_before + 1
    assert loss.requests_seen == 1
    assert loss.timer.expires_at is not None


def test_request_for_held_packet_arms_repair_timer():
    from repro.srm.pdus import SrmRequestPdu

    sim, net, src, rcv = make_pair()
    rcv._handle_data(0)
    rcv.rtt.observe(0, 0.02)
    rcv._handle_request(SrmRequestPdu(0, rcv.data_group, 32, 0))
    timer = rcv._repair_timers[0]
    assert timer.running
    # Within the reply window [d, 2d] of the one-way distance 0.01.
    delay = timer.expires_at - sim.now
    assert 0.01 <= delay <= 0.02 + 1e-9


def test_hearing_repair_suppresses_own():
    from repro.srm.pdus import SrmRequestPdu

    sim, net, src, rcv = make_pair()
    rcv._handle_data(0)
    rcv._handle_request(SrmRequestPdu(0, rcv.data_group, 32, 0))
    assert rcv._repair_timers[0].running
    rcv._handle_repair(0)
    assert not rcv._repair_timers[0].running
    # Counted as a duplicate-repair event for the adaptive timers.
    assert rcv.reply_timer_state.ave_dup > 0


def test_request_for_unknown_seq_becomes_loss():
    from repro.srm.pdus import SrmRequestPdu

    sim, net, src, rcv = make_pair()
    rcv._handle_request(SrmRequestPdu(0, rcv.data_group, 32, 5))
    assert set(rcv.losses) == {0, 1, 2, 3, 4, 5}


def test_source_never_has_losses():
    sim, net, src, rcv = make_pair()
    src.start_stream(0.0)
    sim.run(until=5.0)
    assert src.missing() == 0
    assert not src.losses


def test_end_to_end_pair_with_loss():
    sim, net, src, rcv = make_pair(seed=3, loss=0.25, n_packets=32)
    src.start_session()
    rcv.start_session()
    sim.at(2.0, src.start_stream, 2.0)
    sim.run(until=40.0)
    assert rcv.all_received()
    assert rcv.nacks_sent > 0
    assert src.repairs_sent > 0


def _session(src, listed, group=9):
    rows = tuple(SrmSessionEntry(peer, 0.5, 0.25) for peer in listed)
    return SrmSessionPdu(src, group, 100, 1.0, -1, rows)


def test_session_echo_closes_from_the_shared_index():
    sim, net, src, rcv = make_pair()
    sim.run(until=2.0)  # no session started: the clock just advances
    pdu = _session(0, listed=(1, 7))
    rcv._handle_session(pdu)
    # rtt = now - peer_timestamp - elapsed, from the one row about node 1.
    assert rcv.rtt.get(0) == pytest.approx(2.0 - 0.5 - 0.25)
    assert set(pdu.echo_index()) == {1, 7}
    assert pdu.echo_index() is pdu.echo_index()  # built once, then shared
    # A hearer the message does not list records it but measures nothing.
    rcv.rtt.forget(0)
    rcv._handle_session(_session(0, listed=(7,)))
    assert rcv.rtt.get(0) is None
    assert 0 in rcv.rtt.heard_in_zone(0)


def test_session_echo_index_stays_out_of_pickle_and_describe():
    sim, net, src, rcv = make_pair()
    pdu = _session(0, listed=(1, 7))
    before, described = pickle.dumps(pdu), pdu.describe()
    rcv._handle_session(pdu)
    assert pdu._echo_index is not None  # the hearer did build it
    assert pickle.dumps(pdu) == before
    assert pdu.describe() == described
    clone = pickle.loads(before)
    assert clone._echo_index is None
    assert (clone.uid, clone.highest_seq, clone.entries) == (pdu.uid, -1, pdu.entries)
    assert clone.echo_index() == pdu.echo_index()


def test_session_listing_a_peer_twice_is_refused():
    sim, net, src, rcv = make_pair()
    with pytest.raises(ValueError, match="more than once"):
        rcv._handle_session(_session(0, listed=(1, 1)))
