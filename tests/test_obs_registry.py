"""Unit tests for repro.obs.binning and repro.obs.registry."""

from __future__ import annotations

import pytest

from repro.obs.binning import BOUNDARY_RTOL, bin_index, n_bins
from repro.obs.registry import MetricsRegistry, TimeHistogram


# ----------------------------------------------------------------- binning


def test_bin_index_boundary_times():
    # int(0.3 / 0.1) == 2 — the bug this module exists to fix.
    assert bin_index(0.3, 0.1) == 3
    for k in range(200):
        assert bin_index(k * 0.1, 0.1) == k
    # Accumulated float error also snaps onto the boundary.
    assert bin_index(0.1 + 0.1 + 0.1, 0.1) == 3


def test_bin_index_interior_times():
    assert bin_index(0.0, 0.1) == 0
    assert bin_index(0.05, 0.1) == 0
    assert bin_index(0.2999, 0.1) == 2
    assert bin_index(0.3001, 0.1) == 3
    assert bin_index(12.34, 0.1) == 123


def test_bin_index_far_from_boundary_never_snaps():
    # The snap tolerance is relative and tiny; mid-bin times are untouched.
    assert bin_index(0.15, 0.1) == 1
    assert bin_index(1000.05, 0.1) == 10000


def test_n_bins_contract():
    assert n_bins(0.0, 0.1) == 0
    assert n_bins(-1.0, 0.1) == 0
    assert n_bins(0.3, 0.1) == 3
    assert n_bins(0.05, 0.1) == 1
    assert n_bins(0.31, 0.1) == 4
    for k in range(1, 100):
        assert n_bins(k * 0.1, 0.1) == k


def test_boundary_rtol_is_tight():
    # A time visibly inside a bin (1e-6 of a bin width) must not snap.
    assert BOUNDARY_RTOL < 1e-6
    assert bin_index(0.3 - 1e-6, 0.1) == 2


# ---------------------------------------------------------------- registry


def test_counter_identity_and_increment():
    reg = MetricsRegistry()
    c = reg.counter("repairs", zone=3, protocol="sharqfec")
    # Same (name, labels) in any keyword order resolves to the same object.
    assert reg.counter("repairs", protocol="sharqfec", zone=3) is c
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_set_and_add():
    reg = MetricsRegistry()
    g = reg.gauge("depth")
    g.set(2.0)
    g.add(-0.5)
    assert g.value == 1.5


def test_histogram_boundary_binning():
    hist = TimeHistogram("h", (), 0.1)
    hist.observe(0.3)
    hist.observe(0.05, amount=2.0)
    assert hist.bins == {3: 1.0, 0: 2.0}
    assert hist.series() == [2.0, 0, 0, 1.0]
    assert hist.series(t_end=0.6) == [2.0, 0, 0, 1.0, 0, 0]
    assert hist.count == 2
    assert hist.total == 3.0


def test_histogram_bin_width_conflict_raises():
    reg = MetricsRegistry()
    reg.histogram("h", 0.1, zone=1)
    with pytest.raises(ValueError):
        reg.histogram("h", 0.2, zone=1)


def test_labeled_totals_collapses_other_labels():
    reg = MetricsRegistry()
    reg.counter("repairs_sent", zone=1, protocol="a").inc(2)
    reg.counter("repairs_sent", zone=1, protocol="b").inc(3)
    reg.counter("repairs_sent", zone=2, protocol="a").inc(7)
    reg.counter("other", zone=1).inc(100)
    assert reg.labeled_totals("repairs_sent", "zone") == {1: 5, 2: 7}


def test_snapshot_restore_round_trip():
    reg = MetricsRegistry()
    reg.counter("nacks", zone=2).inc(9)
    reg.gauge("completion").set(0.75)
    reg.histogram("traffic", 0.1, kind="DATA").observe(0.3, 4.0)
    snap = reg.snapshot()

    rebuilt = MetricsRegistry()
    rebuilt.restore(snap)
    assert rebuilt.counter("nacks", zone=2).value == 9
    assert rebuilt.gauge("completion").value == 0.75
    hist = rebuilt.histogram("traffic", 0.1, kind="DATA")
    assert hist.bins == {3: 4.0}
    assert hist.total == 4.0
    assert rebuilt.snapshot() == snap
