"""Figure 19: NACK traffic — SHARQFEC(ns,ni,so) vs full SHARQFEC.

Paper claims: hierarchy + injection yields NACK rates less than or equal to
the minimum seen for ECSRM.
"""

from __future__ import annotations

from repro.analysis.timeseries import series_stats
from repro.experiments import traffic_sim


def test_fig19_nack_suppression(benchmark, n_packets, seed):
    fig = benchmark.pedantic(
        traffic_sim.figure, args=("fig19",), kwargs={"n_packets": n_packets, "seed": seed},
        rounds=1, iterations=1,
    )
    print()
    print(fig.render(every=10))
    ecsrm = series_stats(fig.series["SHARQFEC(ns,ni,so)"])
    full = series_stats(fig.series["SHARQFEC"])
    # "less than or equal to" (§6.2) — allow equality within 5%.
    assert full.total <= 1.05 * ecsrm.total
