"""Helpers over the per-interval traffic series of §6.2's figures."""

from __future__ import annotations

from typing import Dict, NamedTuple, Sequence


class SeriesStats(NamedTuple):
    """Summary of one traffic series.

    Attributes:
        total: sum over all intervals.
        peak: largest single-interval value.
        peak_index: interval index of the peak.
        mean_active: mean over intervals with nonzero traffic.
    """

    total: float
    peak: float
    peak_index: int
    mean_active: float


def series_stats(series: Sequence[float]) -> SeriesStats:
    """Summarize a per-interval series (empty series → all zeros)."""
    if not series:
        return SeriesStats(0.0, 0.0, 0, 0.0)
    total = float(sum(series))
    peak = max(series)
    peak_index = max(range(len(series)), key=lambda i: series[i])
    active = [v for v in series if v > 0]
    mean_active = total / len(active) if active else 0.0
    return SeriesStats(total, float(peak), peak_index, mean_active)


def repair_tail_length(
    series: Sequence[float],
    data_end_index: int,
    threshold: float = 0.5,
) -> int:
    """Intervals after the stream's end that still carry traffic.

    The paper points at SRM's "significant repair tail" (Fig 14); this is
    that tail measured in intervals: the last index with traffic above
    ``threshold``, minus the data-end index (0 when nothing trails).
    """
    last = -1
    for i, v in enumerate(series):
        if v > threshold:
            last = i
    return max(0, last - data_end_index)
