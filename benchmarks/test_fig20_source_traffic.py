"""Figure 20: data+repair traffic seen by the source / network core.

Paper claims: SHARQFEC's hierarchy localizes repairs inside the scoped
regions, so the traffic crossing the source (beyond the original stream) is
minimal compared to the non-scoped sender-only protocol.
"""

from __future__ import annotations

from repro.analysis.timeseries import series_stats
from repro.experiments import traffic_sim


def test_fig20_source_traffic(benchmark, n_packets, seed):
    fig = benchmark.pedantic(
        traffic_sim.figure, args=("fig20",), kwargs={"n_packets": n_packets, "seed": seed},
        rounds=1, iterations=1,
    )
    print()
    print(fig.render(every=10))
    ecsrm = series_stats(fig.series["SHARQFEC(ns,ni,so)"])
    full = series_stats(fig.series["SHARQFEC"])
    # Repair volume above the original transmissions, at the source.
    ecsrm_extra = ecsrm.total - n_packets
    full_extra = full.total - n_packets
    assert full_extra < ecsrm_extra
    # The extra core traffic stays a small fraction of the stream itself
    # ("the volume of additional traffic above the original transmissions
    # is minimal", §6.2).
    assert full_extra < n_packets
    print(f"  extra@source: SHARQFEC={full_extra:.0f} ECSRM={ecsrm_extra:.0f} "
          f"(stream={n_packets})")
