"""Suppression timer delay draws (§4).

Request timers (loss → NACK):

    delay ~ 2^i · U[C1·d, (C1+C2)·d]

with C1 = C2 = 2, ``d`` the receiver's one-way transit-time estimate to the
source, and ``i`` a backoff exponent that starts at 1, grows when NACKs that
do not raise the ZLC are heard, and resets to 1 when a repair arrives.

Reply timers (NACK → repair):

    delay ~ U[D1·d, (D1+D2)·d]

with D1 = D2 = 1 and ``d`` the one-way estimate to the NACK's sender.  SRM's
reply back-off is deliberately omitted for SHARQFEC (§4).
"""

from __future__ import annotations

import random

from repro.core.config import C1, C2, D1, D2, MAX_BACKOFF_EXPONENT


def request_delay(rng: random.Random, distance: float, backoff_exponent: int) -> float:
    """Draw a request (NACK) suppression delay.

    Args:
        distance: one-way transit-time estimate to the source, seconds.
        backoff_exponent: the paper's ``i`` (>= 1).
    """
    d = max(distance, 1e-6)
    i = min(max(backoff_exponent, 1), MAX_BACKOFF_EXPONENT)
    lo = C1 * d
    hi = (C1 + C2) * d
    return (2.0 ** i) * rng.uniform(lo, hi)


def reply_delay(rng: random.Random, distance: float) -> float:
    """Draw a reply (repair) suppression delay.

    Args:
        distance: one-way transit-time estimate to the NACK sender, seconds.
    """
    d = max(distance, 1e-6)
    lo = D1 * d
    hi = (D1 + D2) * d
    return rng.uniform(lo, hi)
