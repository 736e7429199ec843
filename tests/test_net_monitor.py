"""Unit tests for the traffic monitor."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.monitor import TrafficMonitor
from repro.obs.binning import BOUNDARY_RTOL, bin_index


def ev(time, node, kind="DATA", size=1000):
    """The observer arguments ``(time, node, kind, size_bytes)``."""
    return time, node, kind, size


def test_bins_accumulate_per_interval():
    mon = TrafficMonitor(bin_width=0.1)
    mon.on_receive(*ev(0.01, 1))
    mon.on_receive(*ev(0.09, 1))
    mon.on_receive(*ev(0.15, 1))
    assert mon.series(["DATA"], 1) == [2, 1]


def test_series_merges_kinds():
    mon = TrafficMonitor(bin_width=0.1)
    mon.on_receive(*ev(0.05, 1, kind="DATA"))
    mon.on_receive(*ev(0.05, 1, kind="FEC"))
    mon.on_receive(*ev(0.05, 1, kind="NACK"))
    assert mon.series(["DATA", "FEC"], 1) == [2]
    assert mon.series(["NACK"], 1) == [1]


def test_series_pads_to_t_end():
    mon = TrafficMonitor(bin_width=0.1)
    mon.on_receive(*ev(0.05, 1))
    assert mon.series(["DATA"], 1, t_end=0.5) == [1, 0, 0, 0, 0]


def test_empty_series():
    mon = TrafficMonitor()
    assert mon.series(["DATA"], 1) == []
    assert mon.series(["DATA"], 1, t_end=0.3) == [0, 0, 0]


def test_mean_series_averages_over_nodes():
    mon = TrafficMonitor(bin_width=0.1)
    mon.on_receive(*ev(0.05, 1))
    mon.on_receive(*ev(0.05, 1))
    mon.on_receive(*ev(0.05, 2))
    assert mon.mean_series(["DATA"], [1, 2]) == [1.5]
    assert mon.mean_series(["DATA"], []) == []


def test_totals_and_bytes():
    mon = TrafficMonitor()
    mon.on_receive(*ev(0.0, 1, size=100))
    mon.on_receive(*ev(0.0, 2, size=200))
    assert mon.total(["DATA"]) == 2
    assert mon.total(["DATA"], node=2) == 1
    assert mon.total_bytes(["DATA"]) == 300
    assert mon.total_bytes(["DATA"], node=1) == 100


def test_sends_and_drops_counted():
    mon = TrafficMonitor()
    mon.on_send(*ev(0.0, 0, kind="NACK"))
    mon.on_send(*ev(0.0, 0, kind="NACK"))
    mon.on_drop(*ev(0.0, 1))
    assert mon.sends == {"NACK": 2}
    assert mon.drops == 1


def test_invalid_bin_width():
    with pytest.raises(ValueError):
        TrafficMonitor(bin_width=0.0)


# --------------------------------------------------------------- bin edges


def test_boundary_arrival_lands_in_its_own_bin():
    """An arrival at exactly t = k * bin_width belongs to bin k.

    The naive ``int(t / w)`` misplaces these: ``0.3 / 0.1`` is
    2.9999999999999996 in binary floating point, so packet arrivals at bin
    boundaries used to land one bin early.
    """
    mon = TrafficMonitor(bin_width=0.1)
    for k in range(1, 50):
        mon.on_receive(*ev(k * 0.1, 1))
    series = mon.series(["DATA"], 1)
    assert series[0] == 0
    assert series[1:] == [1] * 49


def test_boundary_arrival_from_accumulated_time():
    # 0.1 + 0.1 + 0.1 != 0.3 exactly, but is within rounding of bin 3.
    t = 0.1 + 0.1 + 0.1
    mon = TrafficMonitor(bin_width=0.1)
    mon.on_receive(*ev(t, 1))
    assert mon.series(["DATA"], 1) == [0, 0, 0, 1]


def test_interior_arrivals_unaffected_by_boundary_snap():
    mon = TrafficMonitor(bin_width=0.1)
    mon.on_receive(*ev(0.299, 1))
    mon.on_receive(*ev(0.301, 1))
    assert mon.series(["DATA"], 1) == [0, 0, 1, 1]


def test_send_and_drop_use_same_binning():
    mon = TrafficMonitor(bin_width=0.1)
    mon.on_send(*ev(0.3, 1))
    mon.on_drop(*ev(0.3, 1))
    assert mon.send_series(["DATA"], 1) == [0, 0, 0, 1]
    assert dict(mon.drop_records())[("DATA", 1)][0] == {3: 1}


# The monitor keeps the last bin's window and asks bin_index again only when
# a time leaves it; bin_index stays the one definition of "which bin".


@st.composite
def _times(draw):
    """Times that stress the window's edges, in any order.

    Around a boundary ``k*width`` the snap band is ``BOUNDARY_RTOL*max(1, k)``
    bins wide on each side, so it scales with ``k``: at ``t > 1e4 s`` it is
    ~1e-4 bins, far more than any fixed margin.
    """
    width = draw(st.sampled_from([0.1, 0.25, 1.0, 0.003]))
    # A few boundaries per case, so a sequence keeps coming back to the
    # window it has just entered from either side.
    ks = draw(
        st.lists(
            st.one_of(
                st.integers(0, 50),
                st.integers(10**5, 10**5 + 50),  # t > 1e4 s at width 0.1
                st.integers(10**8, 10**8 + 3),
            ),
            min_size=1,
            max_size=3,
        )
    )

    def near_boundary(k):
        band = BOUNDARY_RTOL * max(1, k)
        offsets = st.one_of(
            st.just(0.0),
            st.sampled_from([-2.5, -2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0, 2.5]).map(
                lambda m: m * band
            ),
            st.floats(-3.0 * band, 3.0 * band),
            st.floats(-1.0, 1.0),  # and anywhere in the two bins around it
        )
        return offsets.map(lambda off: (k + off) * width)

    near = st.sampled_from(ks).flatmap(near_boundary)
    anywhere = st.floats(-5.0, 2.0e7, allow_nan=False)
    times = draw(st.lists(st.one_of(near, near, anywhere), min_size=1, max_size=40))
    # Runs of repeats and small steps keep the window in use between jumps.
    if draw(st.booleans()):
        times = [t + i * width / 7.0 for t in times for i in range(3)]
    return width, times


@settings(max_examples=300, deadline=None)
@given(_times(), st.sampled_from(["on_receive", "on_send", "on_drop"]))
def test_windowed_binning_equals_bin_index(case, method):
    width, times = case
    mon = TrafficMonitor(bin_width=width)
    expected = {}
    for t in times:
        getattr(mon, method)(*ev(t, 1))
        index = bin_index(t, width)
        expected[index] = expected.get(index, 0) + 1
    records = {
        "on_receive": lambda: dict(mon.receive_records())[("DATA", 1)][0],
        "on_send": lambda: dict(mon.send_records())[("DATA", 1)],
        "on_drop": lambda: dict(mon.drop_records())[("DATA", 1)][0],
    }[method]()
    assert records == expected


def test_window_is_shared_across_send_receive_and_drop():
    # One window serves all three observer methods: each must still land
    # in its own event's bin when they interleave across a boundary.
    mon = TrafficMonitor(bin_width=0.1)
    mon.on_receive(*ev(0.25, 1))
    mon.on_send(*ev(0.35, 1))
    mon.on_drop(*ev(0.25, 1))
    mon.on_receive(*ev(0.3, 1))
    assert mon.series(["DATA"], 1) == [0, 0, 1, 1]
    assert mon.send_series(["DATA"], 1) == [0, 0, 0, 1]
    assert dict(mon.drop_records())[("DATA", 1)][0] == {2: 1}


def test_window_margin_scales_with_time():
    # Just below boundary k = 100001 (t ~ 1e4 s) the snap band is
    # 1e-9 * k ~ 1e-4 bins.  A time inside it belongs to bin k, and must
    # not be swallowed by the window of bin k - 1 entered just before.
    width, k = 0.1, 100001
    inside = (k - 0.5 * BOUNDARY_RTOL * k) * width
    assert bin_index(inside, width) == k  # premise: it snaps up
    assert math.floor(inside / width) == k - 1  # ... though it floors down
    mon = TrafficMonitor(bin_width=width)
    mon.on_receive(*ev((k - 0.5) * width, 1))
    mon.on_receive(*ev(inside, 1))
    assert dict(mon.receive_records())[("DATA", 1)][0] == {k - 1: 1, k: 1}


def test_record_bulk_is_bin_exact_beside_the_window():
    # record_bulk goes through bin_index per packet and neither reads nor
    # moves the per-packet window.
    mon = TrafficMonitor(bin_width=0.1)
    mon.on_receive(*ev(0.25, 1))
    mon.record_bulk("recv", "DATA", 1, 0.0, 0.1, 0b1111, 1000)  # t = 0, .1, .2, .3
    mon.on_receive(*ev(0.26, 1))
    assert mon.series(["DATA"], 1) == [1, 1, 3, 1]


def test_t_end_on_boundary_yields_exactly_k_bins():
    mon = TrafficMonitor(bin_width=0.1)
    assert len(mon.series(["DATA"], 1, t_end=0.3)) == 3
    assert len(mon.series(["DATA"], 1, t_end=0.30000000000000004)) == 3


# ------------------------------------------------------- empty-series edges


def test_empty_series_contract():
    mon = TrafficMonitor(bin_width=0.1)
    # No data, no t_end: empty.
    assert mon.series(["DATA"], 1) == []
    assert mon.send_series(["DATA"], 1) == []
    assert list(mon.drop_records()) == []
    assert mon.mean_series(["DATA"], [1, 2]) == []
    assert mon.node_traffic_series(["DATA"], 1) == []
    # t_end = 0.0 is zero bins, not a clamped [0].
    assert mon.series(["DATA"], 1, t_end=0.0) == []
    # Sub-bin t_end still rounds up to one bin.
    assert mon.series(["DATA"], 1, t_end=0.05) == [0]


def test_series_extends_past_t_end_when_data_does():
    mon = TrafficMonitor(bin_width=0.1)
    mon.on_receive(*ev(0.55, 1))
    assert mon.series(["DATA"], 1, t_end=0.2) == [0, 0, 0, 0, 0, 1]


# ------------------------------------------------------ per-(kind,node) drops


def test_drops_binned_per_kind_and_node():
    mon = TrafficMonitor(bin_width=0.1)
    mon.on_drop(*ev(0.05, 1, kind="DATA"))
    mon.on_drop(*ev(0.05, 1, kind="FEC"))
    mon.on_drop(*ev(0.15, 2, kind="DATA"))
    # Aggregate stays backward compatible.
    assert mon.drops == 3
    assert dict(mon.drop_records()) == {
        ("DATA", 1): ({0: 1}, 1, 1000),
        ("FEC", 1): ({0: 1}, 1, 1000),
        ("DATA", 2): ({1: 1}, 1, 1000),
    }


# ----------------------------------------------------------- export/reload


def test_load_record_round_trips_every_series():
    mon = TrafficMonitor(bin_width=0.1)
    mon.on_receive(*ev(0.05, 1, kind="DATA", size=100))
    mon.on_receive(*ev(0.3, 1, kind="FEC", size=50))
    mon.on_send(*ev(0.1, 0, kind="NACK"))
    mon.on_drop(*ev(0.2, 2, kind="DATA"))

    rebuilt = TrafficMonitor(bin_width=0.1)
    for (kind, node), (bins, packets, nbytes) in mon.receive_records():
        rebuilt.load_record("recv", kind, node, bins, packets, nbytes)
    for (kind, node), bins in mon.send_records():
        rebuilt.load_record("send", kind, node, bins)
    for (kind, node), (bins, packets, nbytes) in mon.drop_records():
        rebuilt.load_record("drop", kind, node, bins, packets, nbytes)

    assert rebuilt.series(["DATA", "FEC"], 1) == mon.series(["DATA", "FEC"], 1)
    assert rebuilt.send_series(["NACK"], 0) == mon.send_series(["NACK"], 0)
    assert dict(rebuilt.drop_records()) == dict(mon.drop_records())
    assert rebuilt.sends == mon.sends
    assert rebuilt.drops == mon.drops
    assert rebuilt.total_bytes(["DATA", "FEC"]) == mon.total_bytes(["DATA", "FEC"])


def test_load_record_accepts_string_bin_keys():
    mon = TrafficMonitor(bin_width=0.1)
    mon.load_record("recv", "DATA", 1, {"3": 2})
    assert mon.series(["DATA"], 1) == [0, 0, 0, 2]
    assert mon.total(["DATA"]) == 2


def test_load_record_rejects_unknown_direction():
    mon = TrafficMonitor()
    with pytest.raises(ValueError):
        mon.load_record("sideways", "DATA", 1, {})
