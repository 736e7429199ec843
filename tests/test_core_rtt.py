"""Tests for the RTT table."""

from __future__ import annotations

import pytest

from repro.core.rtt import RttTable


def test_first_sample_taken_verbatim():
    t = RttTable(node_id=1)
    assert t.observe(2, 0.1) == pytest.approx(0.1)
    assert t.get(2) == pytest.approx(0.1)


def test_ewma_merge():
    t = RttTable(node_id=1, ewma_keep=0.75)
    t.observe(2, 0.1)
    merged = t.observe(2, 0.2)
    assert merged == pytest.approx(0.75 * 0.1 + 0.25 * 0.2)


def test_convergence_is_asymptotic():
    """Fig 11–13: estimates improve asymptotically toward the truth."""
    t = RttTable(node_id=1, ewma_keep=0.75)
    t.observe(2, 0.5)  # bad initial sample (suboptimal ZCR)
    errors = []
    for _ in range(20):
        t.observe(2, 0.1)
        errors.append(abs(t.get(2) - 0.1))
    assert errors == sorted(errors, reverse=True)
    assert errors[-1] < 0.01


def test_self_rtt_is_zero():
    t = RttTable(node_id=1)
    assert t.get(1) == 0.0
    assert t.one_way(1) == 0.0


def test_unknown_peer_is_none():
    t = RttTable(node_id=1)
    assert t.get(9) is None
    assert t.one_way(9) is None


def test_negative_sample_clamped():
    t = RttTable(node_id=1)
    t.observe(2, -0.5)
    assert t.get(2) == 0.0


def test_one_way_is_half_rtt():
    t = RttTable(node_id=1)
    t.observe(2, 0.08)
    assert t.one_way(2) == pytest.approx(0.04)


def test_echo_roundtrip():
    """The SRM-style timestamp echo: rtt = now - sent - held."""
    t = RttTable(node_id=1)
    # Peer 2 sent at t=10.0, we answer implicitly; at t=10.35 peer 2's echo
    # arrives saying it held our message 0.25s.
    rtt = t.close_echo(peer=2, peer_sent_at=10.0, elapsed=0.25, now=10.35)
    assert rtt == pytest.approx(0.1)


def test_record_heard_per_zone():
    t = RttTable(node_id=1)
    t.record_heard(zone_id=5, peer=2, peer_timestamp=1.0, now=1.1)
    t.record_heard(zone_id=6, peer=3, peer_timestamp=1.0, now=1.2)
    assert set(t.heard_in_zone(5)) == {2}
    assert set(t.heard_in_zone(6)) == {3}
    assert t.heard_in_zone(5)[2] == (1.0, 1.1)


def test_newer_message_overwrites_heard():
    t = RttTable(node_id=1)
    t.record_heard(5, 2, 1.0, 1.1)
    t.record_heard(5, 2, 2.0, 2.1)
    assert t.heard_in_zone(5)[2] == (2.0, 2.1)


def test_zcr_peer_tables():
    t = RttTable(node_id=1)
    t.set_zcr_peer_rtt(zcr=5, peer=8, rtt=0.06)
    assert t.zcr_peer_rtt(5, 8) == pytest.approx(0.06)
    assert t.zcr_peer_rtt(5, 9) is None
    assert t.zcr_peer_rtt(6, 8) is None
    t.set_zcr_peer_rtt(5, 8, -1.0)  # negative = unknown, ignored
    assert t.zcr_peer_rtt(5, 8) == pytest.approx(0.06)


def test_forget_peer():
    t = RttTable(node_id=1)
    t.observe(2, 0.1)
    t.record_heard(5, 2, 1.0, 1.1)
    t.forget(2)
    assert t.get(2) is None
    assert t.heard_in_zone(5) == {}


def test_state_size_counts_fig8_entries():
    t = RttTable(node_id=1)
    t.observe(2, 0.1)
    t.observe(3, 0.1)
    t.set_zcr_peer_rtt(5, 8, 0.06)
    assert t.state_size() == 3


def test_echo_rows_ascending_with_estimates():
    t = RttTable(node_id=1)
    t.record_heard(5, 9, 1.0, 1.1)
    t.record_heard(5, 2, 2.0, 2.1)
    t.record_heard(6, 4, 3.0, 3.1)
    t.observe(9, 0.08)
    assert t.echo_rows(5) == [(2, (2.0, 2.1), -1.0), (9, (1.0, 1.1), 0.08)]
    assert t.echo_rows(6) == [(4, (3.0, 3.1), -1.0)]
    assert t.echo_rows(7) == []


def test_echo_rows_follow_the_peer_set():
    # The sorted order is kept between calls; every way the set can change
    # (a new peer, a forgotten one, a pruned one, one swapped for another
    # at equal size) must show in the next call.
    t = RttTable(node_id=1)
    for peer in (7, 3):
        t.record_heard(5, peer, 1.0, 1.0)
    assert [row[0] for row in t.echo_rows(5)] == [3, 7]
    t.record_heard(5, 3, 2.0, 2.0)  # same set, fresher echo
    assert t.echo_rows(5)[0] == (3, (2.0, 2.0), -1.0)
    t.record_heard(5, 5, 2.0, 2.0)
    assert [row[0] for row in t.echo_rows(5)] == [3, 5, 7]
    t.forget(5)
    t.record_heard(5, 1000, 2.0, 2.0)  # same size, different members
    assert [row[0] for row in t.echo_rows(5)] == [3, 7, 1000]
    assert t.prune_stale(now=9.0, timeout=7.5) == [7]
    t.record_heard(5, 4, 9.0, 9.0)
    assert [row[0] for row in t.echo_rows(5)] == [3, 4, 1000]


def test_max_estimate():
    t = RttTable(node_id=1)
    assert t.max_estimate() is None
    t.observe(2, 0.03)
    t.observe(3, 0.11)
    assert t.max_estimate() == pytest.approx(0.11)
