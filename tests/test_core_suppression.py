"""Tests for the suppression timer draws (§4)."""

from __future__ import annotations

import random

import pytest

from repro.core.config import C1, C2, MAX_BACKOFF_EXPONENT
from repro.core.suppression import reply_delay, request_delay


def test_request_window_at_i1():
    """i=1 gives 2·U[C1·d, (C1+C2)·d] = U[4d, 8d] with C1=C2=2."""
    rng = random.Random(1)
    d = 0.05
    draws = [request_delay(rng, d, 1) for _ in range(500)]
    assert min(draws) >= 4 * d - 1e-12
    assert max(draws) <= 8 * d + 1e-12
    # The draws should actually spread across the window.
    assert max(draws) - min(draws) > d


def test_request_backoff_doubles():
    rng = random.Random(2)
    d = 0.05
    low_i = [request_delay(rng, d, 1) for _ in range(200)]
    high_i = [request_delay(rng, d, 2) for _ in range(200)]
    assert min(high_i) >= 2 * min(low_i) * 0.99


def test_request_backoff_capped():
    rng = random.Random(3)
    capped = request_delay(rng, 0.05, 99)
    ceiling = (2.0 ** MAX_BACKOFF_EXPONENT) * (C1 + C2) * 0.05
    assert capped <= ceiling


def test_request_exponent_floor_is_one():
    """The paper's i starts at 1; i=0 must be treated as 1."""
    rng = random.Random(4)
    d = 0.05
    draws = [request_delay(rng, d, 0) for _ in range(200)]
    assert min(draws) >= 4 * d - 1e-12


def test_reply_window():
    """Replies draw U[D1·d, (D1+D2)·d] = U[d, 2d] with D1=D2=1 — no backoff."""
    rng = random.Random(5)
    d = 0.02
    draws = [reply_delay(rng, d) for _ in range(500)]
    assert min(draws) >= d - 1e-12
    assert max(draws) <= 2 * d + 1e-12


def test_zero_distance_does_not_collapse():
    rng = random.Random(6)
    assert request_delay(rng, 0.0, 1) > 0
    assert reply_delay(rng, 0.0) > 0


def test_delays_scale_with_distance():
    rng1, rng2 = random.Random(7), random.Random(7)
    near = [reply_delay(rng1, 0.01) for _ in range(100)]
    far = [reply_delay(rng2, 0.1) for _ in range(100)]
    assert sum(far) / sum(near) == pytest.approx(10.0, rel=0.01)
