"""Figure 21: NACK traffic seen by the source.

Paper claims: scoping confines most requests to the smaller zones, so far
fewer NACKs reach the source than under the non-scoped protocol.
"""

from __future__ import annotations

from repro.analysis.timeseries import series_stats
from repro.experiments import traffic_sim


def test_fig21_source_nacks(benchmark, n_packets, seed):
    fig = benchmark.pedantic(
        traffic_sim.figure, args=("fig21",), kwargs={"n_packets": n_packets, "seed": seed},
        rounds=1, iterations=1,
    )
    print()
    print(fig.render(every=10))
    ecsrm = series_stats(fig.series["SHARQFEC(ns,ni,so)"])
    full = series_stats(fig.series["SHARQFEC"])
    assert full.total < ecsrm.total
