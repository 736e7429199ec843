"""Tests for the experiment drivers and the CLI plumbing.

Heavy figure runs live in benchmarks/; these tests exercise the drivers at
small packet counts and check the registry/CLI contract.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.experiments.cli import main as cli_main
from repro.experiments.common import (
    DATA_REPAIR_KINDS,
    TrafficRunResult,
    run_traffic,
    variant_config,
)
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.experiments.session_sim import ROLES, pick_sender, run_rtt_experiment
from repro.experiments import traffic_sim


def test_variant_config_parsing():
    cfg = variant_config("SHARQFEC", 64)
    assert cfg.scoping and cfg.injection and not cfg.sender_only
    cfg = variant_config("SHARQFEC(ns,ni,so)", 64)
    assert not cfg.scoping and not cfg.injection and cfg.sender_only
    cfg = variant_config("SHARQFEC(ni)", 64)
    assert cfg.scoping and not cfg.injection
    # Only the exact names: an alias would share its twin's run slug.
    for name in (
        "SHARQFEC(xyz)", "TCP", "SRM", "SHARQFEC()", "SHARQFEC(ni,ns)",
        "SHARQFEC(ns, ni)", "SHARQFEC(ns,ns)", "SHARQFEC(so)",
    ):
        with pytest.raises(ConfigError):
            variant_config(name, 64)


def test_run_traffic_sharqfec_small():
    result = run_traffic("SHARQFEC", n_packets=32, seed=1, drain=8.0)
    assert result.completion == 1.0
    assert result.protocol == "SHARQFEC"
    series = result.data_repair_series()
    assert len(series) > 60  # covers t=0..6s of silence plus the stream
    # The stream occupies ~10 packets per 0.1s bin from t=6.
    assert max(series) >= 8
    assert sum(series[:55]) == 0  # nothing before the data starts


def test_run_traffic_srm_small():
    result = run_traffic("SRM", n_packets=32, seed=1, drain=8.0)
    assert result.completion == 1.0
    assert sum(result.data_repair_series()) > 0
    assert result.events > 0


def test_nack_series_counts_only_nacks():
    result = run_traffic("SHARQFEC(ns,ni,so)", n_packets=32, seed=2, drain=8.0)
    nacks = sum(result.nack_series())
    assert nacks >= 0
    data_repair = sum(result.data_repair_series())
    assert data_repair > nacks


def test_source_series_includes_sends():
    result = run_traffic("SHARQFEC(ns,ni,so)", n_packets=32, seed=2, drain=8.0)
    src = result.source_data_repair_series()
    # At minimum the 32 data packets the source transmitted.
    assert sum(src) >= 32


def test_traffic_run_cache_reuses_results():
    traffic_sim.clear_cache()
    fig = traffic_sim.figure("fig14", n_packets=24, seed=5, drain=6.0)
    fig2 = traffic_sim.figure("fig15", n_packets=24, seed=5, drain=6.0)
    # Same underlying runs: object identity via the module cache.
    assert fig.runs["SRM"] is fig2.runs["SRM"]
    traffic_sim.clear_cache()


def test_figure_result_render_contains_stats():
    traffic_sim.clear_cache()
    fig = traffic_sim.figure("fig17", n_packets=24, seed=5, drain=6.0)
    text = fig.render(every=10)
    assert "fig17" in text
    assert "SHARQFEC(ns,ni,so)" in text
    assert "peak" in text
    traffic_sim.clear_cache()


def test_pick_sender_roles():
    from repro.sim import Simulator
    from repro.topology import build_figure10

    topo = build_figure10(Simulator())
    seen = set()
    for role in ROLES:
        sender = pick_sender(topo, role)
        assert sender in topo.receivers
        seen.add(sender)
    assert len(seen) == 3
    with pytest.raises(ConfigError):
        pick_sender(topo, "nonsense")


def test_rtt_experiment_quick():
    result = run_rtt_experiment(role="child", n_nacks=2, interval=2.0,
                                first_nack_at=10.0, seed=2)
    assert len(result.rounds) == 2
    final = result.final_round()
    assert final.fraction_within(0.10) > 0.5
    assert result.improves_over_time()


def test_registry_covers_all_figures():
    expected = {"fig1", "fig8"} | {f"fig{i}" for i in range(11, 22)}
    expected |= {"scaling", "latejoin"}  # measured extras beyond the figures
    assert set(EXPERIMENTS) == expected


def test_run_experiment_analytic_figures():
    out1 = run_experiment("fig1")
    assert "27.0%" in out1 and "9.73%" in out1
    out8 = run_experiment("fig8")
    assert "630" in out8 and "10500" in out8.replace(",", "")


def test_run_experiment_unknown():
    with pytest.raises(ConfigError):
        run_experiment("fig99")


def test_cli_list(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig14" in out and "fig8" in out


def test_cli_analytic_figure(capsys):
    assert cli_main(["fig8"]) == 0
    out = capsys.readouterr().out
    assert "Suburb" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["national", "--progress", "1"],
        ["national", "--csv", "out"],
        ["fig8", "--fidelity", "hybrid"],
        ["fig8", "--regions", "2"],
        ["fig8", "--cities", "2"],
        ["all", "--suburbs", "2"],
        ["fig14", "--subscribers", "2"],
    ],
)
def test_cli_rejects_a_flag_the_experiment_would_ignore(argv, capsys):
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(argv[1] + " ") and captured.err.count("\n") == 1
