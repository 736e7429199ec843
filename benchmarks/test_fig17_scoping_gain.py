"""Figure 17: SHARQFEC(ns,ni,so) vs full SHARQFEC — the scoping payoff.

Paper claims: adding the scoped hierarchy "achieves the desired result of
improved suppression", with traffic peaks reduced significantly.
"""

from __future__ import annotations

from repro.analysis.timeseries import series_stats
from repro.experiments import traffic_sim


def test_fig17_scoping_gain(benchmark, n_packets, seed):
    fig = benchmark.pedantic(
        traffic_sim.figure, args=("fig17",), kwargs={"n_packets": n_packets, "seed": seed},
        rounds=1, iterations=1,
    )
    print()
    print(fig.render(every=10))
    ecsrm = series_stats(fig.series["SHARQFEC(ns,ni,so)"])
    full = series_stats(fig.series["SHARQFEC"])
    # "Peaks ... all reduced significantly" (§6.2): ~20-30% lower at both
    # the short bench scale and the paper's 1024-packet scale; totals no
    # worse.
    assert full.peak < 0.95 * ecsrm.peak
    assert full.total <= 1.02 * ecsrm.total
    for run in fig.runs.values():
        assert run.completion == 1.0
    print(f"  peaks: SHARQFEC={full.peak:.1f} ECSRM={ecsrm.peak:.1f}")
