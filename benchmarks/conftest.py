"""Benchmark fixtures.

Each benchmark regenerates one paper figure/table and asserts its *shape*
(who wins, by roughly what factor) rather than absolute numbers — the
substrate is our simulator, not the authors' ns-1 testbed.

Traffic benches share protocol runs through ``traffic_sim``'s cache, so the
first figure touching a variant pays its simulation cost and later figures
reuse it.  ``SHARQFEC_BENCH_PACKETS`` (default 128) sets the stream length;
export 1024 to reproduce the paper's full-scale runs.
"""

from __future__ import annotations

import os

import pytest


def bench_packets() -> int:
    return int(os.environ.get("SHARQFEC_BENCH_PACKETS", "128"))


@pytest.fixture(scope="session")
def n_packets() -> int:
    return bench_packets()


@pytest.fixture(scope="session")
def seed() -> int:
    return int(os.environ.get("SHARQFEC_BENCH_SEED", "1"))


def pytest_terminal_summary(terminalreporter) -> None:
    """Report wall clock and events/sec for every protocol run this session.

    The shape assertions say nothing about speed, but every cached run
    already carries its wall time and event count — surfacing them makes
    perf regressions visible in ordinary benchmark output long before
    ``benchmarks/e2e/bench.py`` runs.
    """
    try:
        from repro.experiments.traffic_sim import _run_cache
    except ImportError:
        return
    if not _run_cache:
        return
    terminalreporter.section("traffic simulation throughput")
    for (protocol, n_packets, seed_, drain, _obs), run in sorted(
        _run_cache.items(), key=lambda item: item[0][:4]
    ):
        rate = run.events / run.wall_seconds if run.wall_seconds > 0 else float("inf")
        terminalreporter.write_line(
            f"{protocol:<10} n={n_packets:<5} seed={seed_} drain={drain:g}: "
            f"{run.wall_seconds:.3f}s wall, {run.events} events, {rate:,.0f} events/s"
        )
