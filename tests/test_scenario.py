"""The scenario pipeline's two single-owner decisions, seen from outside.

``repro.scenario`` owns how a world is assembled and what a finished run
writes down; ``run_traffic`` (one simulator) and ``run_reference`` (one
world per logical shard) are thin drivers over it.  These tests hold the
two drivers to one record schema, the package to its layering and both
drivers to one memory policy (``collector_paused``).
"""

from __future__ import annotations

import contextlib
import gc
import subprocess
import sys

import pytest

from repro.analysis.obsload import load_metrics
from repro.engine import plan_for_spec, run_reference
from repro.engine.sharded import _worker_main
from repro.errors import ConfigError, EngineError, InvariantViolation
from repro.experiments.common import ObservabilityOptions, run_traffic
from repro.faults.plan import FaultPlan
from repro.net.network import Network
from repro.scenario import RunSpec, collector_paused, export_run
from repro.sim.scheduler import Simulator

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


def _churn_spec() -> RunSpec:
    plan = FaultPlan("churn").crash_restart(6.02, 11, 0.5)
    return RunSpec(n_packets=N_PACKETS, fault_plan=plan)


def test_only_the_windowed_driver_refuses_receiver_churn():
    """Every shard replicates the tree membership, so churn has no sharded
    meaning; one simulator runs it (the campaign suite covers that end)."""
    spec = _churn_spec()
    spec.validate()
    with pytest.raises(EngineError, match="churn"):
        plan_for_spec(spec)


# ------------------------------------------------------- the memory policy


@contextlib.contextmanager
def _collector(enabled: bool):
    """The caller's side: collector on or off, passes counted, then restored."""
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    gc.callbacks.append(count)
    try:
        yield passes
    finally:
        gc.callbacks.remove(count)
        (gc.enable if was_enabled else gc.disable)()


def test_pause_collects_once_then_disables_then_restores():
    with _collector(enabled=True) as passes:
        with collector_paused():
            assert not gc.isenabled()
            assert passes == [2]  # the one full collection, on entry
        assert gc.isenabled()


def test_pause_leaves_a_disabled_collector_alone():
    with _collector(enabled=False) as passes:
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
        assert passes == []  # the caller decides when to collect, still


def test_pause_restores_when_the_body_raises():
    with _collector(enabled=True):
        with pytest.raises(KeyError):
            with collector_paused():
                raise KeyError("boom")
        assert gc.isenabled()


def _unknown_variant():
    run_traffic("SHARQFEC(xx)", n_packets=N_PACKETS)  # raises at assembly


def _severed_receiver():
    # tests/test_harness_regressions.py's loss wall: connected, undeliverable.
    plan = FaultPlan("loss-wall").set_loss(0.5, 1, 8, 0.99).set_loss(0.5, 8, 11, 0.99)
    run_traffic("SHARQFEC", n_packets=N_PACKETS, seed=1, drain=4.0,
                fault_plan=plan, check_invariants=True)


def _refused_spec():
    run_reference(_churn_spec())


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("call, error", [
    (_unknown_variant, ConfigError),
    (_severed_receiver, InvariantViolation),
    (_refused_spec, EngineError),
])
def test_a_driver_that_raises_leaves_the_collector_as_found(call, error, enabled):
    with _collector(enabled) as passes:
        with pytest.raises(error):
            call()
        assert gc.isenabled() == enabled
        if not enabled:
            assert passes == []


@pytest.mark.parametrize("enabled", [True, False])
def test_drivers_run_paused_and_return_the_collector_as_found(enabled, monkeypatch):
    seen = []
    run = Simulator.run

    def watched_run(self, until=None):
        seen.append(gc.isenabled())
        return run(self, until=until)

    monkeypatch.setattr(Simulator, "run", watched_run)
    spec = RunSpec(n_packets=N_PACKETS, seed=2, drain=DRAIN)
    with _collector(enabled) as passes:
        run_traffic("SHARQFEC", n_packets=N_PACKETS, seed=2, drain=DRAIN)
        assert gc.isenabled() == enabled
        run_reference(spec)
        assert gc.isenabled() == enabled
        if not enabled:
            assert passes == []
    assert seen and not any(seen)


class _FinishAtOnce:
    """The parent's end of a shard worker's pipe, asking only for results."""

    def __init__(self):
        self.collector_on = []
        self.sent = []

    def recv(self):
        self.collector_on.append(gc.isenabled())
        return ("finish",)

    def send(self, message):
        self.sent.append(message)

    def close(self):
        pass


def test_shard_worker_runs_paused_too():
    """``engine.w2_speedup`` compares worker processes with the reference
    driver; both sides get the same memory policy."""
    spec = RunSpec(n_packets=N_PACKETS, seed=2, drain=DRAIN)
    plan = plan_for_spec(spec)
    conn = _FinishAtOnce()
    with _collector(enabled=True):
        _worker_main(conn, spec, plan, [0])
        assert gc.isenabled()
    assert conn.collector_on == [False]
    (status, results), = conn.sent
    assert status == "ok" and [r.index for r in results] == [0]


def _live_networks() -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is Network)


def test_back_to_back_runs_do_not_pile_up_dead_worlds():
    """A finished world is one big cycle and the pause never visits it, so
    each driver call collects on entry.  Leave that out and three dropped
    runs leave three worlds behind (measured: campaign_grid peak RSS 71 ->
    122 MB); with it, only the last is still waiting."""
    gc.collect()
    before = _live_networks()  # other modules' fixtures may hold some
    for seed in (1, 2, 3):
        run_traffic("SHARQFEC", n_packets=16, seed=seed, drain=DRAIN)
    assert _live_networks() - before <= 1
