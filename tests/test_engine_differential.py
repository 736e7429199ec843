"""Differential equivalence: the sharded engine vs the reference engine.

The zone-parallel engine's core guarantee (docs/SCALING.md) is that
worker packing is invisible: for a fixed spec, the merged metrics and
trace JSONL exports are *byte-identical* whether the logical shards run
in one process (:func:`repro.engine.run_reference`) or across any number
of worker processes (:func:`repro.engine.run_sharded`).  These tests
hold both engines to that on the Figure 10 topology and a small national
hierarchy, with and without an active fault plan, and check that the
merged export round-trips through the standard analysis loaders.
"""

from __future__ import annotations

import pytest

from repro.analysis.obsload import load_metrics, monitor_from_export
from repro.engine import run_reference, run_sharded
from repro.experiments.national_scale import national_spec
from repro.faults.plan import FaultPlan
from repro.scenario import RunSpec, export_run

# Small-but-real shapes: every run finishes in a couple of seconds while
# still exercising multi-shard plans (fig10: residue + 7 top zones;
# national: residue + 2 regions).
SMALL_NATIONAL = dict(
    regions=2,
    cities_per_region=2,
    suburbs_per_city=2,
    subscribers_per_suburb=3,
)
#: In the 2x2x2x3 national build the region caches are nodes 1 and 16;
#: 0 is the source, so 0<->16 is a shard-boundary link.
BOUNDARY_LINK = (0, 16)


def _small_national_spec(**overrides) -> RunSpec:
    params = dict(SMALL_NATIONAL, n_packets=8, drain=3.0)
    params.update(overrides)
    return national_spec(**params)


def _export(merged, directory):
    """Write both merged exports into ``directory``; returns their paths."""
    return export_run(
        merged.record(),
        monitor=merged.monitor,
        registry=merged.registry,
        trace=merged.trace,
        metrics_dir=str(directory),
        trace_dir=str(directory),
    )


def _exports(merged, tmp_path, name):
    """Write both merged exports and return their raw bytes."""
    metrics, trace = _export(merged, tmp_path / name)
    with open(metrics, "rb") as m, open(trace, "rb") as t:
        return m.read(), t.read()


def test_fig10_workers_match_reference(tmp_path):
    spec = RunSpec(topology="figure10", n_packets=8, drain=3.0, capture_trace=True)
    reference = run_reference(spec)
    assert reference.plan.n_shards > 1
    assert reference.completion > 0.0
    ref_metrics, ref_trace = _exports(reference, tmp_path, "ref")
    for workers in (1, 2, 4):
        merged = run_sharded(spec, workers=workers)
        metrics, trace = _exports(merged, tmp_path, f"w{workers}")
        assert metrics == ref_metrics, f"metrics diverged at workers={workers}"
        assert trace == ref_trace, f"trace diverged at workers={workers}"


def test_national_workers_match_reference(tmp_path):
    spec = _small_national_spec(capture_trace=True)
    reference = run_reference(spec)
    assert reference.completion == 1.0
    ref_metrics, ref_trace = _exports(reference, tmp_path, "ref")
    for workers in (1, 2):
        merged = run_sharded(spec, workers=workers)
        metrics, trace = _exports(merged, tmp_path, f"w{workers}")
        assert metrics == ref_metrics, f"metrics diverged at workers={workers}"
        assert trace == ref_trace, f"trace diverged at workers={workers}"


def test_session_echo_index_never_crosses_a_shard_pipe(tmp_path):
    """Hearers share one ``peer_id -> entry`` index per session PDU.  In
    the reference engine a PDU reaches the next logical shard as the same
    object, index and all; between worker processes it is pickled, which
    drops the index, and the far side builds its own.  Same bytes out."""
    spec = _small_national_spec(seed=3)
    reference = run_reference(spec)
    assert reference.completion == 1.0
    merged = run_sharded(spec, workers=2)
    assert merged.events == reference.events
    assert _exports(merged, tmp_path, "w2") == _exports(reference, tmp_path, "ref")


def test_national_fault_plan_matches(tmp_path):
    """Equivalence must survive burst loss *and* a boundary-link flap.

    Both fault kinds are scheduled on the source->region boundary link —
    the exact place where the shards' worlds meet — under a
    Gilbert-Elliott model whose chain draws come from the run RNG.
    """
    a, b = BOUNDARY_LINK
    plan = (
        FaultPlan("diff-ge")
        .gilbert_elliott(6.5, a, b, p_gb=0.3, p_bg=0.4, loss_bad=1.0)
        .link_down(8.0, a, b)
        .link_up(9.0, a, b)
    )
    spec = _small_national_spec(fault_plan=plan)
    reference = run_reference(spec)
    ref_metrics, _ = _exports(reference, tmp_path, "ref")
    for workers in (2, 3):
        merged = run_sharded(spec, workers=workers)
        metrics, _ = _exports(merged, tmp_path, f"w{workers}")
        assert metrics == ref_metrics, f"metrics diverged at workers={workers}"
    # Fault counters must appear exactly once in the merge, not once per
    # shard: only shard 0's observer records global (replicated) events.
    export = load_metrics(_export(reference, tmp_path / "ref")[0])
    faults = {dict(labels)["kind"]: n for labels, n in export.counters["faults"].items()}
    assert faults == {
        "gilbert_elliott": 1,
        "link_down": 1,
        "link_up": 1,
    }
    assert export.counter_total("reconvergences") == 1


def test_monitor_rebuilds_from_merged_export(tmp_path):
    """The merged metrics file round-trips through obsload unchanged."""
    spec = _small_national_spec()
    merged = run_sharded(spec, workers=2)
    rebuilt = monitor_from_export(_export(merged, tmp_path)[0])
    original = merged.monitor
    assert rebuilt.total_packets() == original.total_packets()
    assert dict(rebuilt.receive_records()) == dict(original.receive_records())
    assert dict(rebuilt.send_records()) == dict(original.send_records())
    assert dict(rebuilt.drop_records()) == dict(original.drop_records())


def test_fixed_shard_count_replays_byte_identically(tmp_path):
    """Same spec + same worker count twice -> byte-identical exports."""
    spec = _small_national_spec(seed=7)
    first, _ = _exports(run_sharded(spec, workers=2), tmp_path, "first")
    second, _ = _exports(run_sharded(spec, workers=2), tmp_path, "second")
    assert first == second


def test_manifest_is_shard_annotated(tmp_path):
    spec = _small_national_spec()
    merged = run_reference(spec)
    export = load_metrics(_export(merged, tmp_path)[0])
    manifest = export.manifest
    assert manifest["engine"] == "sharded"
    assert manifest["n_shards"] == merged.plan.n_shards
    assert manifest["shards"][0] == "residue"
    assert manifest["lookahead"] == pytest.approx(merged.plan.lookahead)
