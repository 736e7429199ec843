"""Exact time-to-bin arithmetic shared by every interval-binning consumer.

The paper's traffic figures count packets over 0.1 s intervals, and binary
floating point cannot represent 0.1: the naive ``int(t / width)`` misplaces
arrivals that land exactly on a bin boundary (``0.3 / 0.1`` is
``2.9999999999999996``, so an arrival at t = 0.3 s lands in bin 2 instead
of bin 3).  These helpers snap quotients that sit within a relative epsilon
of an integer back onto it, so the half-open bin convention
``bin k = [k*width, (k+1)*width)`` holds for boundary times regardless of
how the time was computed.

Everything that bins by time — :class:`repro.net.monitor.TrafficMonitor`,
the :class:`repro.obs.registry.TimeHistogram`, the series padding in the
figure pipeline — goes through :func:`bin_index` / :func:`n_bins` so the
whole tree shares one definition of "which bin is t in".
"""

from __future__ import annotations

import math

#: Relative tolerance for recognizing "t is exactly a bin boundary up to
#: float error".  Simulation times come out of sums of latencies and
#: serialization delays, so accumulated error is a few ulps — 1e-9 relative
#: is orders of magnitude above that while still far below any physically
#: distinct event spacing.
BOUNDARY_RTOL = 1e-9


def bin_index(time: float, bin_width: float) -> int:
    """The index of the half-open bin ``[k*bin_width, (k+1)*bin_width)``
    containing ``time``, robust to float bin-edge error.

    An arrival at exactly ``t = k * bin_width`` lands in bin ``k`` even
    when the division rounds just below ``k``.
    """
    q = time / bin_width
    nearest = round(q)
    if abs(q - nearest) <= BOUNDARY_RTOL * max(1.0, abs(nearest)):
        return int(nearest)
    return int(math.floor(q))


def n_bins(t_end: float, bin_width: float) -> int:
    """Number of bins covering ``[0, t_end)`` (0 when ``t_end <= 0``).

    ``ceil`` with the same boundary snap as :func:`bin_index`: an end time
    of exactly ``k * bin_width`` needs ``k`` bins, not ``k + 1`` when the
    quotient rounds just above ``k`` (nor ``k`` when just below... the
    snap makes both directions exact).
    """
    if t_end <= 0.0:
        return 0
    q = t_end / bin_width
    nearest = round(q)
    if abs(q - nearest) <= BOUNDARY_RTOL * max(1.0, abs(nearest)):
        return int(nearest)
    return int(math.ceil(q))
