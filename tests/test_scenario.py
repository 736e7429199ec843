"""The scenario pipeline's two single-owner decisions, seen from outside.

``repro.scenario`` owns how a world is assembled and what a finished run
writes down; ``run_traffic`` (one simulator) and ``run_reference`` (one
world per logical shard) are thin drivers over it.  These tests hold the
two drivers to one record schema and the package to its layering.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.analysis.obsload import load_metrics
from repro.engine import plan_for_spec, run_reference
from repro.errors import EngineError
from repro.experiments.common import ObservabilityOptions, run_traffic
from repro.faults.plan import FaultPlan
from repro.scenario import RunSpec, export_run

N_PACKETS = 8
DRAIN = 3.0


def test_both_drivers_export_one_record_schema(tmp_path):
    """Same Figure 10 scenario through each driver: same keys, same spec
    fields; only what the drivers really differ in (loss streams, shard
    annotation) may differ in value."""
    single_dir = str(tmp_path / "single")
    run_traffic(
        "SHARQFEC",
        n_packets=N_PACKETS,
        seed=2,
        drain=DRAIN,
        obs=ObservabilityOptions(metrics_dir=single_dir),
    )
    spec = RunSpec(n_packets=N_PACKETS, seed=2, drain=DRAIN)
    merged = run_reference(spec)
    sharded_path, _ = export_run(
        merged.record(),
        monitor=merged.monitor,
        registry=merged.registry,
        metrics_dir=str(tmp_path / "sharded"),
    )
    single = load_metrics(f"{single_dir}/{spec.slug}.metrics.jsonl")
    sharded = load_metrics(sharded_path)

    assert set(single.manifest) == set(sharded.manifest)
    assert set(single.run_summary) == set(sharded.run_summary)
    for key in ("run", "seed", "topology", "protocol", "config", "bin_width", "params"):
        assert single.manifest[key] == sharded.manifest[key], key
    for key in ("protocol", "fidelity", "n_packets", "seed", "data_start",
                "data_end", "run_end", "receivers", "source"):
        assert single.run_summary[key] == sharded.run_summary[key], key
    assert (single.manifest["engine"], sharded.manifest["engine"]) == ("single", "sharded")
    assert sharded.manifest["n_shards"] == merged.plan.n_shards


def test_engine_does_not_import_experiments():
    """``experiments`` drives ``engine``, never the reverse: both sit on
    ``repro.scenario``."""
    code = (
        "import sys; import repro.engine; "
        "up = [m for m in sys.modules if m.startswith('repro.experiments')]; "
        "assert not up, up"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env={"PYTHONPATH": "src"})


def test_only_the_windowed_driver_refuses_receiver_churn():
    """Every shard replicates the tree membership, so churn has no sharded
    meaning; one simulator runs it (the campaign suite covers that end)."""
    plan = FaultPlan("churn").crash_restart(6.02, 11, 0.5)
    spec = RunSpec(n_packets=N_PACKETS, fault_plan=plan)
    spec.validate()
    with pytest.raises(EngineError, match="churn"):
        plan_for_spec(spec)
