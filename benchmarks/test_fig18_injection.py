"""Figure 18: SHARQFEC(ni) vs SHARQFEC — preemptive injection under scoping.

Paper claims (confirming Rubenstein et al.): proactive FEC injection does
not increase bandwidth, also inside the scoped hierarchy.
"""

from __future__ import annotations

from repro.analysis.timeseries import series_stats
from repro.experiments import traffic_sim


def test_fig18_injection_no_bandwidth_increase(benchmark, n_packets, seed):
    fig = benchmark.pedantic(
        traffic_sim.figure, args=("fig18",), kwargs={"n_packets": n_packets, "seed": seed},
        rounds=1, iterations=1,
    )
    print()
    print(fig.render(every=10))
    no_injection = series_stats(fig.series["SHARQFEC(ni)"])
    full = series_stats(fig.series["SHARQFEC"])
    # Injection must not inflate the data+repair volume materially.
    assert full.total <= 1.10 * no_injection.total
    for run in fig.runs.values():
        assert run.completion == 1.0
