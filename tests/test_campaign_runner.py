"""End-to-end campaign execution, resume, and statistical report tests.

One module-scoped mini campaign (2 scenarios × 2 protocols × 2 seeds at
8 packets) is simulated once; every test reads from that directory.
"""

from __future__ import annotations

import json
import os
import shutil

import pytest

from repro.analysis.obsload import load_metrics, mean_series_from_export
from repro.campaign.report import analyze_campaign, render_markdown, write_report
from repro.campaign.runner import (
    INDEX_FORMAT,
    cell_paths,
    load_index,
    run_campaign,
)
from repro.campaign.spec import CampaignSpec, ScenarioSpec, spec_from_dict
from repro.errors import CampaignError
from repro.experiments.common import (
    DATA_REPAIR_KINDS,
    ObservabilityOptions,
    run_slug,
    run_traffic,
)

PACKETS = 8
SEEDS = (1, 2)
PROTOCOLS = ("SRM", "SHARQFEC")


def _mini_spec(**overrides) -> CampaignSpec:
    data = {
        "name": "mini",
        "protocols": list(PROTOCOLS),
        "seeds": list(SEEDS),
        "packets": PACKETS,
        "scenarios": [
            {"name": "baseline"},
            {
                "name": "lossy",
                "faults": [
                    {
                        "kind": "set_loss",
                        "time": 0.5,
                        "a": 8,
                        "b": 11,
                        "rate": 0.3,
                    }
                ],
            },
        ],
    }
    data.update(overrides)
    return spec_from_dict(data)


@pytest.fixture(scope="module")
def campaign_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("campaign") / "mini")
    report = run_campaign(_mini_spec(), out, workers=2)
    assert not report.failed, [o.error for o in report.failed]
    return out


def test_all_cells_ran_with_exports(campaign_dir):
    spec = _mini_spec()
    index = load_index(campaign_dir)
    assert index["format"] == INDEX_FORMAT
    assert index["spec_digest"] == spec.digest()
    assert len(index["runs"]) == 8
    for cell in spec.cells():
        metrics_rel, trace_rel = cell_paths(spec, cell)
        assert trace_rel is None  # capture_trace defaults off
        path = os.path.join(campaign_dir, metrics_rel)
        assert os.path.exists(path), metrics_rel
        export = load_metrics(path)
        assert export.manifest["seed"] == cell.seed
        params = export.manifest["params"]
        assert params["drain"] == spec.drain
        if cell.scenario == "lossy":
            assert params["fault_plan"]["name"] == "lossy"
        else:
            assert params["fault_plan"] is None


def test_scenario_slugs_cannot_collide(campaign_dir):
    spec = _mini_spec()
    slugs = {}
    for cell in spec.cells():
        slugs.setdefault(cell.scenario, set()).add(
            cell.slug(spec.scenario(cell.scenario).fault_plan())
        )
    # Fault-free cells keep the historical naming; faulted ones carry the
    # params digest, so the two scenarios never share a basename.
    assert run_slug("SRM", PACKETS, 1) in slugs["baseline"]
    assert slugs["baseline"].isdisjoint(slugs["lossy"])
    assert all("_h" in slug for slug in slugs["lossy"])


def test_resume_skips_everything(campaign_dir):
    report = run_campaign(_mini_spec(), campaign_dir, workers=2)
    assert len(report.skipped) == 8
    assert report.ran == [] and report.failed == []
    # Canonical grid order regardless of what happened.
    assert [(o.scenario, o.protocol, o.seed) for o in report.outcomes] == [
        (c.scenario, c.protocol, c.seed) for c in _mini_spec().cells()
    ]


def test_resume_reruns_only_missing_cell(campaign_dir, tmp_path):
    clone = str(tmp_path / "clone")
    shutil.copytree(campaign_dir, clone)
    spec = _mini_spec()
    victim = spec.cells()[0]
    metrics_rel, _ = cell_paths(spec, victim)
    os.remove(os.path.join(clone, metrics_rel))
    report = run_campaign(spec, clone, workers=1)
    assert len(report.ran) == 1 and len(report.skipped) == 7
    ran = report.ran[0]
    assert (ran.scenario, ran.protocol, ran.seed) == (
        victim.scenario,
        victim.protocol,
        victim.seed,
    )
    assert os.path.exists(os.path.join(clone, metrics_rel))


def test_fresh_mode_reruns_despite_index(campaign_dir, tmp_path):
    clone = str(tmp_path / "clone")
    shutil.copytree(campaign_dir, clone)
    spec = _mini_spec(seeds=[1], protocols=["SRM"], scenarios=[{"name": "baseline"}])
    # Different grid ⇒ different digest ⇒ resume against the directory is
    # refused rather than silently mixing two campaigns' runs.
    with pytest.raises(CampaignError, match="different spec"):
        run_campaign(spec, clone)


def test_failed_cell_is_recorded_not_raised(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr("repro.campaign.runner.run_traffic", boom)
    spec = _mini_spec(seeds=[1], protocols=["SRM"], scenarios=[{"name": "baseline"}])
    out = str(tmp_path / "failing")
    report = run_campaign(spec, out, workers=1)
    assert len(report.failed) == 1
    assert "RuntimeError: injected failure" in report.failed[0].error
    entry = load_index(out)["runs"]["baseline/srm_p8_s1"]
    assert entry["status"] == "failed"
    with pytest.raises(CampaignError, match="no completed runs"):
        analyze_campaign(out)


def test_churn_scenario_runs_through_a_campaign(tmp_path):
    """Churn steps act on the protocol's receivers, not the network: a
    cell whose injector is armed without the protocol dies with
    ``FaultError: receiver churn needs a protocol``."""
    spec = _mini_spec(
        seeds=[1],
        protocols=["SHARQFEC"],
        scenarios=[
            {
                "name": "crash",
                "faults": [
                    {"kind": "crash_restart", "time": 6.02, "node": 11, "down_for": 0.5}
                ],
            }
        ],
    )
    report = run_campaign(spec, str(tmp_path / "churn"), workers=1)
    (cell,) = report.outcomes
    assert cell.status == "done", cell.error
    # The default 10 s drain is ample for the restarted receiver to resync.
    assert cell.completion == 1.0


def test_seed1_cell_matches_single_run_bit_for_bit(campaign_dir, tmp_path):
    """The campaign's baseline seed-1 run IS the single-run figure series."""
    spec = _mini_spec()
    solo_dir = str(tmp_path / "solo")
    run_traffic(
        "SHARQFEC",
        n_packets=PACKETS,
        seed=1,
        drain=spec.drain,
        obs=ObservabilityOptions(metrics_dir=solo_dir),
    )
    solo_path = os.path.join(solo_dir, f"{run_slug('SHARQFEC', PACKETS, 1)}.metrics.jsonl")
    cell = next(
        c
        for c in spec.cells()
        if (c.scenario, c.protocol, c.seed) == ("baseline", "SHARQFEC", 1)
    )
    campaign_path = os.path.join(campaign_dir, cell_paths(spec, cell)[0])
    receivers = [int(r) for r in load_metrics(solo_path).run_summary["receivers"]]
    solo = mean_series_from_export(solo_path, DATA_REPAIR_KINDS, receivers)
    ours = mean_series_from_export(campaign_path, DATA_REPAIR_KINDS, receivers)
    assert ours == solo  # bit-for-bit, not approx


def test_report_cells_and_intervals(campaign_dir):
    report = analyze_campaign(campaign_dir)
    assert report["campaign"] == "mini"
    assert report["bin_width"] > 0
    cells = report["cells"]
    assert {(c["scenario"], c["protocol"]) for c in cells} == {
        (s, p) for s in ("baseline", "lossy") for p in PROTOCOLS
    }
    for cell in cells:
        assert cell["seeds"] == list(SEEDS)
        comp = cell["completion"]
        assert comp["lo"] <= comp["mean"] <= comp["hi"]
        for label in ("data_repair", "nack"):
            series = cell["series"][label]
            assert len(series["mean"]) == len(series["lo"]) == len(series["hi"])
            for lo, mean, hi in zip(series["lo"], series["mean"], series["hi"]):
                assert lo <= mean + 1e-12 and mean <= hi + 1e-12
            assert len(series["per_seed_total"]) == len(SEEDS)
            total = series["total"]
            assert total["lo"] <= total["mean"] <= total["hi"]
        assert "repair_tail_bins" in cell


def test_report_mean_is_seed_average(campaign_dir, tmp_path):
    spec = _mini_spec()
    report = analyze_campaign(campaign_dir)
    cell = next(
        c
        for c in report["cells"]
        if (c["scenario"], c["protocol"]) == ("baseline", "SHARQFEC")
    )
    per_seed = []
    for seed in SEEDS:
        grid_cell = next(
            c
            for c in spec.cells()
            if (c.scenario, c.protocol, c.seed) == ("baseline", "SHARQFEC", seed)
        )
        path = os.path.join(campaign_dir, cell_paths(spec, grid_cell)[0])
        receivers = [int(r) for r in load_metrics(path).run_summary["receivers"]]
        per_seed.append(mean_series_from_export(path, DATA_REPAIR_KINDS, receivers))
    width = max(len(s) for s in per_seed)
    expected = [
        sum((s[i] if i < len(s) else 0.0) for s in per_seed) / len(per_seed)
        for i in range(width)
    ]
    assert cell["series"]["data_repair"]["mean"] == pytest.approx(expected)


def test_report_warmup_cuts_series(campaign_dir):
    full = analyze_campaign(campaign_dir)
    cut = analyze_campaign(campaign_dir, warmup=2.0)
    assert cut["warmup"] == 2.0
    bins = int(round(2.0 / full["bin_width"]))
    for whole, trimmed in zip(full["cells"], cut["cells"]):
        full_len = len(whole["series"]["data_repair"]["mean"])
        cut_len = len(trimmed["series"]["data_repair"]["mean"])
        assert cut_len == max(0, full_len - bins)


def test_report_comparisons_pair_protocols(campaign_dir):
    report = analyze_campaign(campaign_dir)
    comparisons = report["comparisons"]
    assert {(c["scenario"], c["a"], c["b"]) for c in comparisons} == {
        ("baseline", "SHARQFEC", "SRM"),
        ("lossy", "SHARQFEC", "SRM"),
    }
    for comp in comparisons:
        dr = comp["data_repair"]
        assert dr["total_ratio"] is None or dr["total_ratio"] > 0
        assert 0.0 <= dr["shape_distance"] <= 1.0


def test_bootstrap_report_is_deterministic(campaign_dir):
    a = analyze_campaign(campaign_dir, ci_method="bootstrap")
    b = analyze_campaign(campaign_dir, ci_method="bootstrap")
    assert a == b  # identical CI bands across invocations, process-stable


def test_write_report_emits_json_and_markdown(campaign_dir, tmp_path):
    report = analyze_campaign(campaign_dir)
    json_path, md_path = write_report(str(tmp_path), report)
    reloaded = json.load(open(json_path))
    assert reloaded["format"] == report["format"]
    assert reloaded["cells"] == json.loads(json.dumps(report["cells"]))
    markdown = open(md_path).read()
    assert markdown == render_markdown(report)
    assert "| baseline | SHARQFEC |" in markdown
    assert "## Cross-protocol shape comparisons" in markdown


def test_cli_round_trip_resumes_and_reports(campaign_dir, tmp_path, capsys):
    from repro.campaign.cli import main

    spec_path = tmp_path / "mini.json"
    spec_path.write_text(json.dumps(_mini_spec().to_dict()))
    # Same spec ⇒ same digest ⇒ the CLI run resumes the existing directory.
    assert main(["run", str(spec_path), "--out", campaign_dir]) == 0
    out = capsys.readouterr().out
    assert "8 skipped" in out
    assert main(["report", campaign_dir]) == 0
    out = capsys.readouterr().out
    assert "Campaign report: mini" in out
    assert os.path.exists(os.path.join(campaign_dir, "report.json"))
    assert os.path.exists(os.path.join(campaign_dir, "report.md"))


def test_cli_rejects_bad_spec(tmp_path, capsys):
    from repro.campaign.cli import main

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x"}))
    assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert "missing required key" in capsys.readouterr().err


def test_top_level_cli_dispatches_campaign(tmp_path, capsys):
    from repro.experiments.cli import main as sharqfec_main

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x"}))
    assert sharqfec_main(["campaign", "run", str(bad)]) == 2
    assert "missing required key" in capsys.readouterr().err
