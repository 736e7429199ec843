"""Tests for time-series helpers and the report renderer."""

from __future__ import annotations

import pytest

from repro.analysis.report import render_series, render_table
from repro.analysis.timeseries import repair_tail_length, series_stats


def test_series_stats_basics():
    st = series_stats([0, 3, 1, 3, 0])
    assert st.total == 7
    assert st.peak == 3
    assert st.peak_index == 1  # first occurrence
    assert st.mean_active == pytest.approx(7 / 3)


def test_series_stats_empty():
    st = series_stats([])
    assert st.total == 0 and st.peak == 0 and st.mean_active == 0


def test_repair_tail_length():
    # Data ends at index 4; traffic continues through index 9.
    series = [10] * 5 + [2, 1, 1, 0.4, 0.8]
    assert repair_tail_length(series, data_end_index=4) == 5
    assert repair_tail_length(series, data_end_index=4, threshold=0.9) == 3
    assert repair_tail_length([10, 10], data_end_index=4) == 0


def test_render_table_alignment():
    out = render_table(["a", "bbb"], [[1, 2], [333, 4]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bbb" in lines[1]
    assert len({len(l) for l in lines[2:]}) <= 2  # consistent widths


def test_render_series_sampling():
    out = render_series({"x": [1.0] * 10}, bin_width=0.1, every=5)
    rows = [l for l in out.splitlines() if l and l[0].isdigit()]
    assert len(rows) == 2  # bins 0 and 5


def test_render_series_multiple_curves_align():
    out = render_series({"a": [1.0, 2.0], "b": [3.0]}, bin_width=0.1)
    rows = [l for l in out.splitlines() if l and l[0].isdigit()]
    assert len(rows) == 2
    assert "3.0" in rows[0]
    assert "2.0" in rows[1]
    assert "3.0" not in rows[1]  # b has no value in bin 1


def test_render_series_empty():
    assert render_series({}, title="nothing") == "nothing"
