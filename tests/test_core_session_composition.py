"""White-box tests for the §5 distance composition and advertisements."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DEFAULT_DISTANCE
from repro.core.pdus import SessionEntry, SessionPdu
from repro.core.session import SessionManager
from repro.net.network import Network
from repro.scoping.channels import ScopedChannels
from repro.scoping.zone import ZoneHierarchy
from repro.sim.scheduler import Simulator


def three_level_session(node=5):
    """Chain of zones ZC ⊂ ZB ⊂ Z0 with node 5 in the deepest."""
    sim = Simulator(seed=0)
    net = Network(sim)
    for _ in range(6):
        net.add_node()
    net.add_link(0, 1, 10e6, 0.01)
    h = ZoneHierarchy()
    root = h.add_root(range(6), name="Z0")
    zb = h.add_zone(root.zone_id, {2, 3, 4, 5}, name="ZB")
    zc = h.add_zone(zb.zone_id, {4, 5}, name="ZC")
    channels = ScopedChannels(net, h)
    session = SessionManager(node, sim, net, channels, top_zcr=0)
    return sim, net, h, channels, session, (root, zb, zc)


def test_rtt_to_zcr_composes_generations():
    sim, net, h, channels, session, (root, zb, zc) = three_level_session()
    session.zcr_ids[zc.zone_id] = 4
    session.zcr_ids[zb.zone_id] = 2
    session.rtt.observe(4, 0.04)                 # me -> ZCR(ZC)
    session.zcr_parent_rtt[zc.zone_id] = 0.06    # ZCR(ZC) -> ZCR(ZB)
    session.zcr_parent_rtt[zb.zone_id] = 0.10    # ZCR(ZB) -> ZCR(Z0)
    assert session.rtt_to_zcr(0) == pytest.approx(0.04)
    assert session.rtt_to_zcr(1) == pytest.approx(0.10)
    assert session.rtt_to_zcr(2) == pytest.approx(0.20)


def test_rtt_to_zcr_unknown_links_return_none_or_direct():
    sim, net, h, channels, session, (root, zb, zc) = three_level_session()
    session.zcr_ids[zc.zone_id] = 4
    session.zcr_ids[zb.zone_id] = 2
    session.rtt.observe(4, 0.04)
    # Missing ZCR(ZC)->ZCR(ZB) distance: falls back to a direct estimate if
    # one exists, else None.
    assert session.rtt_to_zcr(1) is None
    session.rtt.observe(2, 0.123)
    assert session.rtt_to_zcr(1) == pytest.approx(0.123)


def test_rtt_to_zcr_when_i_am_the_zcr():
    sim, net, h, channels, session, (root, zb, zc) = three_level_session()
    session.zcr_ids[zc.zone_id] = 5  # me
    session.zcr_ids[zb.zone_id] = 2
    session.rtt.observe(2, 0.08)  # direct measurement from parent exchange
    assert session.rtt_to_zcr(0) == 0.0
    assert session.rtt_to_zcr(1) == pytest.approx(0.08)


def test_build_rtt_chain_skips_unknown_levels():
    sim, net, h, channels, session, (root, zb, zc) = three_level_session()
    session.zcr_ids[zc.zone_id] = 4
    session.rtt.observe(4, 0.04)
    chain = session.build_rtt_chain()
    # ZC resolvable; ZB unknown ZCR; Z0 (source) unreachable without the
    # intermediate distance.
    assert [e.zone_id for e in chain] == [zc.zone_id]
    assert chain[0].rtt_to_sender == pytest.approx(0.04)


def test_advertised_parent_rtt_as_zcr_uses_direct():
    sim, net, h, channels, session, (root, zb, zc) = three_level_session()
    session.zcr_ids[zc.zone_id] = 5  # I am ZCR of ZC
    session.zcr_ids[zb.zone_id] = 2
    session.rtt.observe(2, 0.09)
    assert session._advertised_parent_rtt(zc) == pytest.approx(0.09)
    # Root zone has no parent: always -1.
    assert session._advertised_parent_rtt(root) == -1.0


def test_advertised_parent_rtt_nonzcr_uses_stored():
    sim, net, h, channels, session, (root, zb, zc) = three_level_session()
    session.zcr_ids[zc.zone_id] = 4
    session.zcr_parent_rtt[zc.zone_id] = 0.07
    assert session._advertised_parent_rtt(zc) == pytest.approx(0.07)


def make_session_pdu(channels, zone_id, src, zcr_id=-1, parent_rtt=-1.0,
                     entries=(), epoch=0, timestamp=0.0):
    return SessionPdu(
        src=src, group=channels.session_group(zone_id), size_bytes=100,
        zone_id=zone_id, timestamp=timestamp, zcr_id=zcr_id,
        zcr_parent_rtt=parent_rtt, entries=tuple(entries), zcr_epoch=epoch,
    )


def test_overheard_zcr_announcement_builds_bridge_table():
    sim, net, h, channels, session, (root, zb, zc) = three_level_session()
    session.zcr_ids[zc.zone_id] = 4
    # Our ZCR (4) announces in the parent zone ZB listing peer 2 at RTT 0.1.
    pdu = make_session_pdu(
        channels, zb.zone_id, src=4,
        entries=[SessionEntry(2, 0.0, 0.0, 0.1)],
    )
    session.handle_session(pdu)
    assert session.rtt.zcr_peer_rtt(4, 2) == pytest.approx(0.1)
    # Announcements from non-ZCR peers in that zone are not recorded.
    pdu2 = make_session_pdu(
        channels, zb.zone_id, src=3,
        entries=[SessionEntry(2, 0.0, 0.0, 0.5)],
    )
    session.handle_session(pdu2)
    assert session.rtt.zcr_peer_rtt(3, 2) is None


def test_gossip_epoch_ordering():
    sim, net, h, channels, session, (root, zb, zc) = three_level_session()
    # Seed: zcr 4 at epoch 1, parent rtt 0.05.
    session.handle_session(
        make_session_pdu(channels, zc.zone_id, src=4, zcr_id=4,
                         parent_rtt=0.05, epoch=1)
    )
    assert session.zcr_ids[zc.zone_id] == 4
    # A *closer* claim from an older epoch must be ignored.
    session.handle_session(
        make_session_pdu(channels, zc.zone_id, src=3, zcr_id=3,
                         parent_rtt=0.01, epoch=0)
    )
    assert session.zcr_ids[zc.zone_id] == 4
    # A newer epoch wins even when farther.
    session.handle_session(
        make_session_pdu(channels, zc.zone_id, src=3, zcr_id=5,
                         parent_rtt=0.20, epoch=2)
    )
    assert session.zcr_ids[zc.zone_id] == 5
    assert session.zcr_epoch[zc.zone_id] == 2


def test_gossip_same_epoch_closer_wins():
    sim, net, h, channels, session, (root, zb, zc) = three_level_session()
    session.handle_session(
        make_session_pdu(channels, zc.zone_id, src=4, zcr_id=4,
                         parent_rtt=0.08, epoch=1)
    )
    session.handle_session(
        make_session_pdu(channels, zc.zone_id, src=3, zcr_id=3,
                         parent_rtt=0.02, epoch=1)
    )
    assert session.zcr_ids[zc.zone_id] == 3
    assert session.zcr_parent_rtt[zc.zone_id] == pytest.approx(0.02)


def test_max_zone_rtt_defaults_without_peers():
    sim, net, h, channels, session, zones = three_level_session()
    assert session.max_zone_rtt(zones[2].zone_id) == pytest.approx(2 * DEFAULT_DISTANCE)
    session.rtt.observe(4, 0.03)
    session.rtt.observe(2, 0.11)
    assert session.max_zone_rtt(zones[2].zone_id) == pytest.approx(0.11)


def test_own_messages_ignored():
    sim, net, h, channels, session, (root, zb, zc) = three_level_session()
    before = session.messages_received
    session.handle_session(
        make_session_pdu(channels, zc.zone_id, src=session.node_id, zcr_id=1)
    )
    assert session.messages_received == before


# ------------------------------------------- receive-path equivalences


def test_receive_participation_matches_participation_zones():
    """handle_session echoes (records the sender as heard) in exactly the
    zones participation_zones() sends to, under every ZCR belief."""
    beliefs = (None, 5, 4)  # unknown / me / someone else
    for zc_zcr, zb_zcr, root_zcr in itertools.product(beliefs, repeat=3):
        sim, net, h, channels, session, zones = three_level_session()
        root, zb, zc = zones
        for zone, zcr in ((zc, zc_zcr), (zb, zb_zcr), (root, root_zcr)):
            session.zcr_ids[zone.zone_id] = zcr
        expected = {z.zone_id for z in session.participation_zones()}
        for zone in zones:
            session.handle_session(make_session_pdu(channels, zone.zone_id, src=3))
        heard = {z.zone_id for z in zones if 3 in session.rtt.heard_in_zone(z.zone_id)}
        assert heard == expected, (zc_zcr, zb_zcr, root_zcr)
    # A zone outside our chain is counted as received and otherwise ignored.
    session.handle_session(
        SessionPdu(3, channels.session_group(root.zone_id), 100, 9999, 0.0, 3, 0.01, ())
    )
    assert session.rtt.heard_in_zone(9999) == {}
    assert 9999 not in session.zcr_ids


def _fold_oracle(session, zone_id, pdu, log):
    """The zone-metadata fold as it read before the settled-belief fast
    path: every branch spelled out, hooks decided from before/after."""
    zcr_ids, parent_rtts = session.zcr_ids, session.zcr_parent_rtt
    believed = zcr_ids.get(zone_id)
    before_rtt = parent_rtts.get(zone_id)
    our_epoch = session.zcr_epoch.get(zone_id, 0)
    if believed is None or pdu.zcr_epoch > our_epoch:
        zcr_ids[zone_id] = pdu.zcr_id
        session.zcr_epoch[zone_id] = pdu.zcr_epoch
        if pdu.zcr_parent_rtt >= 0:
            parent_rtts[zone_id] = pdu.zcr_parent_rtt
    elif pdu.zcr_epoch == our_epoch:
        if pdu.zcr_id == believed:
            if pdu.zcr_parent_rtt >= 0:
                parent_rtts[zone_id] = pdu.zcr_parent_rtt
        elif pdu.zcr_parent_rtt >= 0:
            ours = before_rtt
            if ours is None or pdu.zcr_parent_rtt < ours - 1e-9 or (
                abs(pdu.zcr_parent_rtt - ours) <= 1e-9 and pdu.zcr_id < believed
            ):
                zcr_ids[zone_id] = pdu.zcr_id
                parent_rtts[zone_id] = pdu.zcr_parent_rtt
    after_zcr = zcr_ids.get(zone_id)
    if after_zcr != believed or parent_rtts.get(zone_id) != before_rtt:
        log.append(("change", zone_id))
        if believed != after_zcr:
            log.append(("role", zone_id))


_gossip = st.lists(
    st.tuples(
        st.sampled_from([-1, 2, 3, 4]),  # advertised ZCR (-1: none)
        st.integers(0, 2),  # its election epoch
        st.sampled_from([-1.0, 0.02, 0.02 + 5e-10, 0.05]),  # parent distance
    ),
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(_gossip)
def test_belief_fold_matches_the_spelled_out_rule(messages):
    sim, net, h, channels, session, (root, zb, zc) = three_level_session()
    _, _, _, _, oracle, _ = three_level_session()
    log, oracle_log = [], []
    session.on_zcr_change = lambda z: log.append(("change", z))
    session.on_role_change = lambda z: log.append(("role", z))
    for zcr_id, epoch, parent_rtt in messages:
        pdu = make_session_pdu(channels, zc.zone_id, src=4, zcr_id=zcr_id,
                               parent_rtt=parent_rtt, epoch=epoch)
        session.handle_session(pdu)
        if zcr_id >= 0:
            _fold_oracle(oracle, zc.zone_id, pdu, oracle_log)
        assert log == oracle_log
        assert session.zcr_ids == oracle.zcr_ids
        assert session.zcr_epoch == oracle.zcr_epoch
        assert session.zcr_parent_rtt == oracle.zcr_parent_rtt


def test_settled_belief_repeated_fires_no_hook():
    sim, net, h, channels, session, (root, zb, zc) = three_level_session()
    log = []
    session.on_zcr_change = lambda z: log.append("change")
    session.on_role_change = lambda z: log.append("role")
    said = dict(src=4, zcr_id=4, parent_rtt=0.05, epoch=1)
    session.handle_session(make_session_pdu(channels, zc.zone_id, **said))
    assert log == ["change", "role"]
    for _ in range(3):
        session.handle_session(make_session_pdu(channels, zc.zone_id, **said))
    said["parent_rtt"] = -1.0  # a peer that knows the ZCR but not its distance
    session.handle_session(make_session_pdu(channels, zc.zone_id, **said))
    assert log == ["change", "role"]
    said["parent_rtt"] = 0.06  # the distance moved: election hook only
    session.handle_session(make_session_pdu(channels, zc.zone_id, **said))
    assert log == ["change", "role", "change"]
    assert session.zcr_parent_rtt[zc.zone_id] == pytest.approx(0.06)
