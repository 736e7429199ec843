"""Adaptive timer adjustment for SRM.

Implements the spirit of the adaptive-timer algorithm in Floyd et al.'s SRM
paper (ToN '97): each member tracks, per loss-recovery event, how many
duplicate requests (or repairs) it observed and how its own delay compared
to its peers', then nudges its timer constants:

* too many duplicates → widen/shift the window outward (more suppression),
* no duplicates and consistently slow → pull the window inward (less
  latency).

The published pseudocode keys off exact averages of duplicates and delay
ratios; our reconstruction keeps the same control direction and the same
EWMA smoothing, with bounds from :mod:`repro.core.config`.
This is a documented approximation (see DESIGN.md): the original constants
are tuned to ns-1 details that do not transfer exactly.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.config import C1, C1_BOUNDS, C2, C2_BOUNDS, D1, D1_BOUNDS, D2, D2_BOUNDS


class AdaptiveTimerState:
    """Per-member adaptive C1/C2 (requests) or D1/D2 (replies)."""

    def __init__(
        self,
        start: float,
        width: float,
        bounds_start: Tuple[float, float],
        bounds_width: Tuple[float, float],
        enabled: bool = True,
    ) -> None:
        self.start = start
        self.width = width
        self._bounds_start = bounds_start
        self._bounds_width = bounds_width
        self.enabled = enabled
        self.ave_dup = 0.0
        self.ave_delay_ratio = 1.0
        self._events = 0

    def record_event(self, duplicates: int, delay_ratio: float) -> None:
        """Fold one recovery event into the averages and adapt.

        Args:
            duplicates: duplicate requests (or repairs) observed for the
                event beyond the first.
            delay_ratio: our timer draw relative to the base distance — a
                proxy for "were we early or late vs our peers".
        """
        self.ave_dup = 0.75 * self.ave_dup + 0.25 * duplicates
        self.ave_delay_ratio = 0.75 * self.ave_delay_ratio + 0.25 * delay_ratio
        self._events += 1
        if self.enabled:
            self._adapt()

    def _adapt(self) -> None:
        if self.ave_dup >= 1.0:
            # Duplicates: spread the window out.
            self.start += 0.1
            self.width += 0.5
        elif self.ave_dup < 0.25:
            # Quiet: tighten for faster recovery, width first.
            self.width -= 0.1
            if self.ave_delay_ratio > 1.0:
                self.start -= 0.05
        lo, hi = self._bounds_start
        self.start = min(max(self.start, lo), hi)
        lo, hi = self._bounds_width
        self.width = min(max(self.width, lo), hi)

    def window(self, distance: float) -> Tuple[float, float]:
        """The [lo, hi] delay window for a given one-way distance."""
        d = max(distance, 1e-6)
        return self.start * d, (self.start + self.width) * d

    @classmethod
    def for_requests(cls, enabled: bool) -> "AdaptiveTimerState":
        """Request-timer state seeded from C1/C2."""
        return cls(C1, C2, C1_BOUNDS, C2_BOUNDS, enabled)

    @classmethod
    def for_replies(cls, enabled: bool) -> "AdaptiveTimerState":
        """Reply-timer state seeded from D1/D2."""
        return cls(D1, D2, D1_BOUNDS, D2_BOUNDS, enabled)
