"""Figure 15: NACK traffic — SRM vs SHARQFEC(ns,ni,so)/ECSRM.

Paper claim: grouped "how many more packets" NACKs suppress dramatically
better than SRM's per-packet requests.
"""

from __future__ import annotations

from repro.analysis.timeseries import series_stats
from repro.experiments import traffic_sim


def test_fig15_nack_srm_vs_ecsrm(benchmark, n_packets, seed):
    fig = benchmark.pedantic(
        traffic_sim.figure, args=("fig15",), kwargs={"n_packets": n_packets, "seed": seed},
        rounds=1, iterations=1,
    )
    print()
    print(fig.render(every=10))
    srm = series_stats(fig.series["SRM"])
    ecsrm = series_stats(fig.series["SHARQFEC(ns,ni,so)"])
    assert srm.total > 3.0 * ecsrm.total
    assert srm.peak > 2.0 * ecsrm.peak
