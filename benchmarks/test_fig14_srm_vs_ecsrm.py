"""Figure 14: average data+repair traffic — SRM vs SHARQFEC(ns,ni,so)/ECSRM.

Paper claims: hybrid ARQ/FEC with sender-only repairs suppresses far better
than SRM; SRM additionally shows a significant repair tail (lost repairs +
exponential back-off).
"""

from __future__ import annotations

from repro.analysis.timeseries import repair_tail_length, series_stats
from repro.experiments import traffic_sim


def test_fig14_data_repair_srm_vs_ecsrm(benchmark, n_packets, seed):
    fig = benchmark.pedantic(
        traffic_sim.figure, args=("fig14",), kwargs={"n_packets": n_packets, "seed": seed},
        rounds=1, iterations=1,
    )
    print()
    print(fig.render(every=10))
    srm = series_stats(fig.series["SRM"])
    ecsrm = series_stats(fig.series["SHARQFEC(ns,ni,so)"])
    # Who wins: ECSRM, by a wide margin in both volume and peak.
    assert srm.total > 1.5 * ecsrm.total
    assert srm.peak > 1.5 * ecsrm.peak
    # Both recover everything.
    assert fig.runs["SRM"].completion == 1.0
    assert fig.runs["SHARQFEC(ns,ni,so)"].completion == 1.0
    # Repair tails (intervals of traffic past the stream's end) are
    # reported, not asserted: the paper attributes SRM's tail to repair
    # losses with exponential back-off, but our SRM runs the adaptive
    # timers ("best possible performance"), which shortens it.
    end = fig.runs["SRM"].data_end_index()
    print(
        f"  repair tails (0.1s bins past data end): "
        f"SRM={repair_tail_length(fig.series['SRM'], end)} "
        f"ECSRM={repair_tail_length(fig.series['SHARQFEC(ns,ni,so)'], end)}"
    )
