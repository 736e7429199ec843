"""Tests for SRM adaptive timers."""

from __future__ import annotations

import pytest

from repro.core.config import C1, C1_BOUNDS, C2, C2_BOUNDS, D1, D2
from repro.srm.timers import AdaptiveTimerState


def test_window_scales_with_distance():
    state = AdaptiveTimerState.for_requests(False)
    lo1, hi1 = state.window(0.01)
    lo2, hi2 = state.window(0.02)
    assert lo2 == pytest.approx(2 * lo1)
    assert hi2 == pytest.approx(2 * hi1)


def test_initial_windows_match_config():
    req = AdaptiveTimerState.for_requests(True)
    lo, hi = req.window(1.0)
    assert lo == pytest.approx(C1)
    assert hi == pytest.approx(C1 + C2)
    rep = AdaptiveTimerState.for_replies(True)
    lo, hi = rep.window(1.0)
    assert lo == pytest.approx(D1)
    assert hi == pytest.approx(D1 + D2)


def test_duplicates_widen_window():
    state = AdaptiveTimerState.for_requests(True)
    start0, width0 = state.start, state.width
    for _ in range(5):
        state.record_event(duplicates=3, delay_ratio=1.0)
    assert state.start > start0
    assert state.width > width0


def test_quiet_events_tighten_window():
    state = AdaptiveTimerState.for_requests(True)
    width0 = state.width
    for _ in range(20):
        state.record_event(duplicates=0, delay_ratio=2.0)
    assert state.width < width0


def test_bounds_respected():
    state = AdaptiveTimerState.for_requests(True)
    for _ in range(200):
        state.record_event(duplicates=10, delay_ratio=1.0)
    assert state.start <= C1_BOUNDS[1]
    assert state.width <= C2_BOUNDS[1]
    for _ in range(500):
        state.record_event(duplicates=0, delay_ratio=2.0)
    assert state.start >= C1_BOUNDS[0]
    assert state.width >= C2_BOUNDS[0]


def test_disabled_adaptation_is_static():
    state = AdaptiveTimerState.for_requests(False)
    start0, width0 = state.start, state.width
    for _ in range(50):
        state.record_event(duplicates=5, delay_ratio=0.1)
    assert state.start == start0
    assert state.width == width0


def test_averages_are_ewma():
    state = AdaptiveTimerState.for_requests(False)
    state.record_event(4, 1.0)
    assert state.ave_dup == pytest.approx(1.0)  # 0.75*0 + 0.25*4
    state.record_event(4, 1.0)
    assert state.ave_dup == pytest.approx(1.75)


def test_zero_distance_window_positive():
    state = AdaptiveTimerState.for_requests(True)
    lo, hi = state.window(0.0)
    assert 0 < lo < hi
