"""Tests that the Figure 8 table reproduces the paper's published values."""

from __future__ import annotations

import pytest

from repro.analysis.state_table import state_reduction_table
from repro.topology.national import NationalParams


def test_default_receiver_counts():
    p = NationalParams()
    assert p.n_receivers == 10_000_210
    assert p.n_session_members == 10_000_211
    assert p.n_subscribers == 10_000_000


def test_published_rtts_per_receiver():
    rows = {r.level: r for r in state_reduction_table()}
    assert rows["National"].rtts_maintained == 10
    assert rows["Regional"].rtts_maintained == 30
    assert rows["City"].rtts_maintained == 130
    assert rows["Suburb"].rtts_maintained == 630


def test_published_traffic_numerators():
    rows = {r.level: r for r in state_reduction_table()}
    assert rows["National"].scoped_traffic == 100
    assert rows["Regional"].scoped_traffic == 500
    assert rows["City"].scoped_traffic == 10_500
    # The paper prints "35,5000" here, inconsistent with its own formula;
    # the formula (sum of n^2 over observable zones) gives 260,500.
    assert rows["Suburb"].scoped_traffic == 260_500


def test_published_state_ratios():
    rows = {r.level: r for r in state_reduction_table()}
    for level, expected in [("National", 1), ("Regional", 3), ("City", 13), ("Suburb", 63)]:
        row = rows[level]
        assert row.scoped_state * 1_000_021 == expected * row.nonscoped_state


def test_nonscoped_traffic_is_n_squared():
    rows = state_reduction_table()
    n = NationalParams().n_session_members - 1
    assert all(r.nonscoped_traffic == n * n for r in rows)


def test_ratios_are_tiny():
    for row in state_reduction_table():
        assert row.scoped_traffic / row.nonscoped_traffic < 1e-6
        assert row.scoped_state / row.nonscoped_state < 1e-4


def test_zone_counts():
    rows = {r.level: r for r in state_reduction_table()}
    assert rows["National"].n_zones == 1
    assert rows["Regional"].n_zones == 10
    assert rows["City"].n_zones == 200
    assert rows["Suburb"].n_zones == 20_000


def test_scales_with_parameters():
    small = NationalParams(regions=2, cities_per_region=2, suburbs_per_city=2, subscribers_per_suburb=10)
    rows = {r.level: r for r in state_reduction_table(small)}
    assert rows["Suburb"].rtts_maintained == 2 + 2 + 2 + 10
    assert rows["Suburb"].scoped_traffic == 4 + 4 + 4 + 100
