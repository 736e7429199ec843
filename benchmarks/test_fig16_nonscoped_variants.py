"""Figure 16: SHARQFEC(ns,ni) vs SHARQFEC(ns) — non-scoped receiver repairs.

Paper claims: letting all receivers repair (ns,ni) suppresses *worse* than
sender-only ECSRM; turning source injection on (ns) improves matters but
not past ECSRM.
"""

from __future__ import annotations

from repro.analysis.timeseries import series_stats
from repro.experiments import traffic_sim


def test_fig16_nonscoped_variants(benchmark, n_packets, seed):
    fig = benchmark.pedantic(
        traffic_sim.figure, args=("fig16",), kwargs={"n_packets": n_packets, "seed": seed},
        rounds=1, iterations=1,
    )
    print()
    print(fig.render(every=10))
    nsni = series_stats(fig.series["SHARQFEC(ns,ni)"])
    ns = series_stats(fig.series["SHARQFEC(ns)"])
    # Injection improves the no-injection case once its EWMA warms up; at
    # short bench streams the predictor is still learning, so allow a small
    # overshoot (at the paper's 1024 packets (ns) is clearly below (ns,ni)).
    assert ns.total <= 1.10 * nsni.total
    # Both deliver everything.
    for run in fig.runs.values():
        assert run.completion == 1.0
    # And both are worse than sender-only ECSRM (the paper's point): compare
    # against the cached ECSRM run from the same parameter set.
    ecsrm = series_stats(
        traffic_sim.figure("fig14", n_packets=n_packets, seed=seed).series["SHARQFEC(ns,ni,so)"]
    )
    assert nsni.total > ecsrm.total
    assert ns.total > ecsrm.total
