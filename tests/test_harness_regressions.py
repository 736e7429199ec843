"""Regression tests for the run-harness bugs the campaign work exposed.

Each test fails on the pre-fix harness:

* ``run_traffic`` leaked its observer/reporter (and wrote no export) when
  ``check_invariants`` raised;
* ``run_slug`` ignored fault plan/drain, so differing runs overwrote each
  other's export files;
* a figure's cached unobserved run stood in for an observed one, so it
  exported nothing;
* wall-clock used non-monotonic ``time.time()``;
* ``load_metrics`` silently guessed a missing ``bin_width``;
* ``--progress`` counted its own ticks in the run's event total.
"""

from __future__ import annotations

import inspect
import io
import json
import os

import pytest

from repro.analysis.obsload import ObsLoadError, load_metrics, read_jsonl
from repro.errors import InvariantViolation
from repro.experiments import traffic_sim
from repro.experiments.common import ObservabilityOptions, run_slug, run_traffic
from repro.faults.plan import FaultPlan
from repro.obs.export import FORMAT
from repro.obs.progress import ProgressReporter
from repro.obs.recorder import RunObserver

N_PACKETS = 8


# --------------------------------------------------- teardown on failed runs


def test_failed_invariant_still_detaches_stops_and_exports(tmp_path, monkeypatch):
    """An InvariantViolation must not leak the observer/reporter, and the
    partial export must land on disk with the error recorded."""
    calls = {"stop": 0, "detach": 0}
    orig_stop = ProgressReporter.stop
    orig_detach = RunObserver.detach

    def counting_stop(self):
        calls["stop"] += 1
        return orig_stop(self)

    def counting_detach(self):
        calls["detach"] += 1
        return orig_detach(self)

    monkeypatch.setattr(ProgressReporter, "stop", counting_stop)
    monkeypatch.setattr(RunObserver, "detach", counting_detach)

    # A 99%-loss wall on child 8's subtree keeps those receivers physically
    # connected (so they count as survivors) but undeliverable within the
    # horizon — the eventual-delivery invariant fires deterministically at
    # this seed.
    plan = (
        FaultPlan("loss-wall").set_loss(0.5, 1, 8, 0.99).set_loss(0.5, 8, 11, 0.99)
    )
    options = ObservabilityOptions(
        metrics_dir=str(tmp_path / "metrics"),
        trace_dir=str(tmp_path / "trace"),
        progress_interval=1000.0,
        progress_stream=open(os.devnull, "w"),
    )
    with pytest.raises(InvariantViolation):
        run_traffic(
            "SHARQFEC",
            n_packets=N_PACKETS,
            seed=1,
            drain=4.0,
            fault_plan=plan,
            check_invariants=True,
            obs=options,
        )
    assert calls["stop"] >= 1, "reporter leaked on invariant failure"
    assert calls["detach"] == 1, "observer leaked on invariant failure"

    slug = run_slug("SHARQFEC", N_PACKETS, 1, drain=4.0, fault_plan=plan)
    metrics_path = os.path.join(options.metrics_dir, f"{slug}.metrics.jsonl")
    trace_path = os.path.join(options.trace_dir, f"{slug}.trace.jsonl")
    assert os.path.exists(metrics_path), "partial metrics export missing"
    assert os.path.exists(trace_path), "partial trace export missing"
    records = list(read_jsonl(metrics_path))
    assert records[0]["format"] == FORMAT
    run_record = next(r for r in records if r.get("record") == "run")
    assert "InvariantViolation" in run_record["error"]
    # The run itself was observed: real traffic records made it out.
    assert any(r.get("record") == "traffic" for r in records)


def test_progress_reporting_leaves_the_run_record_unchanged(tmp_path):
    results = {}
    for progress in (None, 1.0):
        options = ObservabilityOptions(
            metrics_dir=str(tmp_path / f"progress_{progress}"),
            progress_interval=progress,
            progress_stream=io.StringIO(),
        )
        result = run_traffic("SHARQFEC", n_packets=N_PACKETS, seed=1, drain=4.0, obs=options)
        slug = run_slug("SHARQFEC", N_PACKETS, 1, drain=4.0)
        with open(os.path.join(options.metrics_dir, f"{slug}.metrics.jsonl"), "rb") as fh:
            results[progress] = (result.events, fh.read())
    assert results[1.0] == results[None]


# ------------------------------------------------------- export-slug collisions


def test_run_slug_distinguishes_fault_plans_and_drain():
    base = run_slug("SHARQFEC", 64, 1)
    assert base == "sharqfec_p64_s1"  # historical name preserved
    plan_a = FaultPlan("a").link_down(2.0, 0, 1)
    plan_b = FaultPlan("b").link_down(2.0, 0, 2)
    slugs = {
        base,
        run_slug("SHARQFEC", 64, 1, fault_plan=plan_a),
        run_slug("SHARQFEC", 64, 1, fault_plan=plan_b),
        run_slug("SHARQFEC", 64, 1, drain=3.0),
    }
    assert len(slugs) == 4, f"colliding slugs: {slugs}"
    # Deterministic: the same parameters always digest the same way.
    plan_a2 = FaultPlan("a").link_down(2.0, 0, 1)
    assert run_slug("SHARQFEC", 64, 1, fault_plan=plan_a) == run_slug(
        "SHARQFEC", 64, 1, fault_plan=plan_a2
    )


def test_observed_runs_with_different_fault_plans_do_not_overwrite(tmp_path):
    options = ObservabilityOptions(metrics_dir=str(tmp_path))
    plan = FaultPlan("flap").link_down(2.0, 0, 1).link_up(2.5, 0, 1)
    run_traffic("SHARQFEC", n_packets=N_PACKETS, seed=3, obs=options)
    run_traffic("SHARQFEC", n_packets=N_PACKETS, seed=3, fault_plan=plan, obs=options)
    files = sorted(os.listdir(tmp_path))
    assert len(files) == 2, f"fault-plan run overwrote the baseline: {files}"
    # The manifest records the full plan, not just its digest.
    with_plan = os.path.join(
        str(tmp_path), f"{run_slug('SHARQFEC', N_PACKETS, 3, fault_plan=plan)}"
        ".metrics.jsonl"
    )
    manifest = next(read_jsonl(with_plan))
    assert manifest["params"]["fault_plan"]["name"] == "flap"
    assert len(manifest["params"]["fault_plan"]["actions"]) == 2


# ------------------------------------------------- figure run cache and export


def test_a_cached_unobserved_run_does_not_stand_in_for_an_observed_one(tmp_path):
    """Figures share runs through a cache.  A run cached without export
    options must not answer a request that asks for an export, and figures
    sharing a variant under the same options still simulate it once."""
    traffic_sim.clear_cache()
    try:
        plain = traffic_sim.figure("fig14", n_packets=N_PACKETS, drain=2.0)
        options = ObservabilityOptions(metrics_dir=str(tmp_path))
        figures = [
            traffic_sim.figure(figure_id, n_packets=N_PACKETS, drain=2.0, obs=options)
            for figure_id in traffic_sim.FIGURES
        ]
    finally:
        traffic_sim.clear_cache()
    variants = {v for _title, _desc, _kind, pair in traffic_sim.FIGURES.values() for v in pair}
    assert len(variants) == 6
    assert sorted(os.listdir(tmp_path)) == sorted(
        f"{run_slug(v, N_PACKETS, 1, drain=2.0)}.metrics.jsonl" for v in variants
    )
    observed_runs = {id(run) for fig in figures for run in fig.runs.values()}
    assert len(observed_runs) == 6  # 6 runs for Figures 14-21, not 16
    assert figures[0].runs["SRM"] is not plain.runs["SRM"]


# ------------------------------------------------------- monotonic wall clock


def test_wall_seconds_immune_to_wall_clock_steps(monkeypatch):
    """An NTP step (time.time jumping backwards mid-run) must not produce
    a negative wall_seconds."""
    import time as time_module

    start = 1_700_000_000.0
    ticks = iter([start, start - 3600.0])  # NTP step backwards mid-run

    def stepping_time() -> float:
        return next(ticks, start - 3600.0)

    monkeypatch.setattr(time_module, "time", stepping_time)
    result = run_traffic("SHARQFEC", n_packets=4, seed=1, drain=2.0)
    assert result.wall_seconds >= 0.0


def test_harness_modules_use_monotonic_timers():
    """No benchmark-facing wall timing goes through non-monotonic time.time."""
    import repro.engine.sharded as sharded
    import repro.experiments.common as common

    for module in (common, sharded):
        assert "time.time(" not in inspect.getsource(module), module.__name__


# --------------------------------------------------- strict manifest parsing


def _metrics_file(tmp_path, manifest: dict) -> str:
    path = tmp_path / "m.metrics.jsonl"
    path.write_text(json.dumps(manifest) + "\n")
    return str(path)


def test_load_metrics_rejects_missing_or_zero_bin_width(tmp_path):
    base = {"record": "manifest", "format": FORMAT, "kind": "metrics"}
    with pytest.raises(ObsLoadError, match="bin_width"):
        load_metrics(_metrics_file(tmp_path, base))
    with pytest.raises(ObsLoadError, match="bin_width"):
        load_metrics(_metrics_file(tmp_path, {**base, "bin_width": 0}))
    with pytest.raises(ObsLoadError, match="bin_width"):
        load_metrics(_metrics_file(tmp_path, {**base, "bin_width": "wide"}))
    # A valid width still loads.
    export = load_metrics(_metrics_file(tmp_path, {**base, "bin_width": 0.5}))
    assert export.bin_width == 0.5
