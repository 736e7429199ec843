"""End-to-end export/reload tests: run → JSONL → loaders → identical series."""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis.obsload import (
    ObsLoadError,
    load_metrics,
    load_trace,
    mean_series_from_export,
    monitor_from_export,
    read_jsonl,
)
from repro.experiments.common import (
    DATA_REPAIR_KINDS,
    ObservabilityOptions,
    run_slug,
    run_traffic,
)
from repro.obs.export import (
    FORMAT,
    build_manifest,
    export_metrics,
    git_revision,
)
from repro.net.monitor import TrafficMonitor

N_PACKETS = 12
SEED = 5


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    """One observed SHARQFEC run exported to disk (shared by the tests)."""
    root = tmp_path_factory.mktemp("obs")
    options = ObservabilityOptions(
        metrics_dir=str(root / "metrics"),
        trace_dir=str(root / "trace"),
    )
    result = run_traffic("SHARQFEC", n_packets=N_PACKETS, seed=SEED, drain=5.0, obs=options)
    slug = run_slug("SHARQFEC", N_PACKETS, SEED, drain=5.0)
    return {
        "result": result,
        "metrics": os.path.join(options.metrics_dir, f"{slug}.metrics.jsonl"),
        "trace": os.path.join(options.trace_dir, f"{slug}.trace.jsonl"),
    }


def test_manifest_pins_run_parameters(exported):
    manifest = next(read_jsonl(exported["metrics"]))
    assert manifest["record"] == "manifest"
    assert manifest["format"] == FORMAT
    assert manifest["seed"] == SEED
    assert manifest["protocol"] == "SHARQFEC"
    assert manifest["topology"] == "figure10"
    assert manifest["n_packets"] == N_PACKETS
    assert manifest["bin_width"] == pytest.approx(0.1)
    assert manifest["git_rev"] == git_revision()
    assert isinstance(manifest["config"], dict)
    assert manifest["config"]["n_packets"] == N_PACKETS


def test_reloaded_monitor_reproduces_series_bit_for_bit(exported):
    result = exported["result"]
    rebuilt = monitor_from_export(exported["metrics"])
    assert rebuilt.bin_width == result.monitor.bin_width
    for node in result.receivers + [result.source]:
        assert rebuilt.series(DATA_REPAIR_KINDS, node, t_end=result.run_end) == (
            result.monitor.series(DATA_REPAIR_KINDS, node, t_end=result.run_end)
        )
        assert rebuilt.series(["NACK"], node, t_end=result.run_end) == (
            result.monitor.series(["NACK"], node, t_end=result.run_end)
        )
    assert rebuilt.mean_series(
        DATA_REPAIR_KINDS, result.receivers, t_end=result.run_end
    ) == result.monitor.mean_series(
        DATA_REPAIR_KINDS, result.receivers, t_end=result.run_end
    )
    assert rebuilt.send_series(
        DATA_REPAIR_KINDS, result.source, t_end=result.run_end
    ) == result.monitor.send_series(
        DATA_REPAIR_KINDS, result.source, t_end=result.run_end
    )
    assert rebuilt.drops == result.monitor.drops
    assert rebuilt.sends == result.monitor.sends
    assert dict(rebuilt.drop_records()) == dict(result.monitor.drop_records())


def test_figure_series_rebuild_from_disk(exported):
    """The Figure 14-style mean-receiver curve rebuilt purely from JSONL."""
    result = exported["result"]
    series = mean_series_from_export(
        exported["metrics"], DATA_REPAIR_KINDS, result.receivers
    )
    assert series == result.data_repair_series()
    assert len(series) > 0


def test_run_summary_and_counters(exported):
    result = exported["result"]
    export = load_metrics(exported["metrics"])
    assert export.run_summary is not None
    assert export.run_summary["completion"] == result.completion
    assert export.run_summary["n_packets"] == N_PACKETS
    assert export.run_summary["run_end"] == result.run_end
    # Protocol NACK counters agree with the protocol's own total.
    assert export.counter_total("nacks_sent") == result.nacks_sent


def test_trace_export_loads_and_covers_run(exported):
    result = exported["result"]
    trace = load_trace(exported["trace"])
    assert trace.manifest["kind"] == "trace"
    cats = trace.categories()
    assert cats.get("pkt.send", 0) > 0
    assert cats.get("pkt.recv", 0) > 0
    # The CBR source sends exactly n_packets DATA packets.
    data_sends = [
        r
        for r in trace.filter("pkt.send")
        if r["detail"].get("kind") == "DATA" and r["node"] == result.source
    ]
    assert len(data_sends) == N_PACKETS
    assert all(isinstance(r["t"], float) for r in trace.records)


def test_loader_rejects_bad_files(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ObsLoadError):
        load_metrics(str(empty))

    headerless = tmp_path / "headerless.jsonl"
    headerless.write_text(json.dumps({"record": "traffic"}) + "\n")
    with pytest.raises(ObsLoadError):
        load_metrics(str(headerless))

    badformat = tmp_path / "badformat.jsonl"
    badformat.write_text(
        json.dumps({"record": "manifest", "format": "someone.else.v9"}) + "\n"
    )
    with pytest.raises(ObsLoadError):
        load_trace(str(badformat))

    badjson = tmp_path / "bad.jsonl"
    badjson.write_text("{not json\n")
    with pytest.raises(ObsLoadError):
        list(read_jsonl(str(badjson)))


def test_export_metrics_standalone_monitor(tmp_path):
    """export_metrics works without a registry (monitor-only round trip)."""
    mon = TrafficMonitor(bin_width=0.1)
    mon.on_receive(0.3, 1, "DATA", 1000)
    mon.on_drop(0.4, 2, "FEC", 500)
    path = str(tmp_path / "m.jsonl")
    export_metrics(
        path,
        build_manifest("metrics", run="unit", seed=0, bin_width=0.1),
        monitor=mon,
    )
    rebuilt = monitor_from_export(path)
    assert rebuilt.series(["DATA"], 1) == [0, 0, 0, 1]
    assert dict(rebuilt.drop_records())[("FEC", 2)] == ({4: 1}, 1, 500)
    assert rebuilt.total_bytes(["DATA"]) == 1000
