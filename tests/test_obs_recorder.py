"""Unit tests for RunObserver, summarize_detail, and ProgressReporter."""

from __future__ import annotations

import io

import pytest

from repro.net.packet import Packet
from repro.obs.progress import ProgressReporter
from repro.obs.recorder import (
    RunObserver,
    default_trace_categories,
    fault_categories,
    summarize_detail,
)
from repro.sim.scheduler import Simulator


# ---------------------------------------------------------------- observer


def test_protocol_counters_and_zone_queries():
    sim = Simulator(seed=1)
    obs = RunObserver(sim).attach()
    sim.tracer.emit(1.0, "sharqfec.nack", 5, {"zone": 2, "group": 0})
    sim.tracer.emit(1.1, "sharqfec.repair", 3, {"zone": 2, "group": 0, "index": 4})
    sim.tracer.emit(1.2, "sharqfec.repair", 3, {"zone": 7, "group": 0, "index": 5})
    sim.tracer.emit(1.3, "sharqfec.inject", 3, {"zone": 2, "group": 1, "n": 4})
    sim.tracer.emit(2.0, "srm.nack", 9, {"seq": 3})
    obs.detach()
    assert obs.registry.counter_values("repairs_sent") == {
        (("protocol", "sharqfec"), ("zone", 2)): 1,
        (("protocol", "sharqfec"), ("zone", 7)): 1,
    }
    assert obs.registry.counter("nacks_sent", protocol="sharqfec", zone=2).value == 1
    assert obs.registry.counter("nacks_sent", protocol="srm", zone=-1).value == 1
    assert obs.registry.counter("injections", protocol="sharqfec", zone=2).value == 1
    assert obs.registry.counter(
        "injected_packets", protocol="sharqfec", zone=2
    ).value == 4
    hist = obs.registry.histogram(
        "repairs_sent_per_interval", 0.1, protocol="sharqfec", zone=2
    )
    assert hist.bins == {11: 1}


def test_fault_and_reconvergence_counters():
    sim = Simulator(seed=1)
    obs = RunObserver(sim).attach()
    kinds = fault_categories()
    assert kinds and all(cat.startswith("fault.") for cat in kinds)
    sim.tracer.emit(1.0, kinds[0], -1, {"detail": "x"})
    sim.tracer.emit(1.5, kinds[0], -1, None)
    sim.tracer.emit(2.0, "net.reconverge", -1, None)
    obs.detach()
    kind = kinds[0].partition(".")[2]
    assert obs.registry.labeled_totals("faults", "kind") == {kind: 2}
    assert obs.registry.counter("reconvergences").value == 1


def test_detach_restores_zero_cost():
    sim = Simulator(seed=1)
    assert not sim.tracer.wants("sharqfec.repair")
    obs = RunObserver(sim).attach()
    assert sim.tracer.wants("sharqfec.repair")
    obs.detach()
    assert not sim.tracer.wants("sharqfec.repair")
    obs.detach()  # idempotent


def test_observer_context_manager():
    sim = Simulator(seed=1)
    with RunObserver(sim) as obs:
        sim.tracer.emit(1.0, "srm.repair", 2, {"seq": 1})
    assert obs.registry.counter("repairs_sent", protocol="srm", zone=-1).value == 1
    assert not sim.tracer.wants("srm.repair")


def test_default_trace_categories_cover_faults():
    cats = default_trace_categories()
    assert "pkt.recv" in cats
    assert "sharqfec.repair" in cats
    assert "net.reconverge" in cats
    assert set(fault_categories()) <= set(cats)
    assert len(cats) == len(set(cats))


# ---------------------------------------------------------------- details


def test_summarize_detail_shapes():
    assert summarize_detail(None) is None
    assert summarize_detail(3) == 3
    assert summarize_detail({"zone": 1}) == {"zone": 1}
    pkt = Packet(src=4, group=16, size_bytes=1000, kind="FEC")
    summary = summarize_detail(pkt)
    assert summary["kind"] == "FEC"
    assert summary["src"] == 4
    assert summary["group"] == 16
    assert summary["size_bytes"] == 1000
    # Objects with none of the known attributes stringify.
    assert isinstance(summarize_detail(object()), str)


# --------------------------------------------------------------- progress


def test_progress_reporter_lines():
    sim = Simulator(seed=1)
    for i in range(100):
        sim.at(i * 0.2, lambda: None)
    stream = io.StringIO()
    reporter = ProgressReporter(sim, interval=5.0, stream=stream, label="demo").start()
    sim.run(until=20.0)
    reporter.stop()
    # Ticks at t=5, 10, 15, 20.
    assert len(reporter.lines) == 4
    assert all("demo" in line and "events=" in line for line in reporter.lines)
    assert stream.getvalue().count("\n") == 4


def test_progress_reporter_rejects_bad_interval():
    with pytest.raises(ValueError):
        ProgressReporter(Simulator(seed=1), interval=0.0)


def test_detaching_an_observer_from_a_listener_keeps_the_record_for_the_rest():
    # A stop-on-first-fault hook detaches the observer from inside an emit;
    # listeners registered after the observer's must still get that record.
    sim = Simulator(seed=1)
    obs = RunObserver(sim, capture_trace=True)
    after = []
    sim.tracer.subscribe("pkt.send", lambda record: obs.detach())
    obs.attach()
    sim.tracer.subscribe("pkt.send", after.append)
    sim.tracer.emit(1.0, "pkt.send", 0, None)
    sim.tracer.emit(2.0, "pkt.send", 0, None)
    assert [r.time for r in obs.trace_records] == [1.0]
    assert [r.time for r in after] == [1.0, 2.0]


def test_capture_without_a_sink_appends_straight_to_the_list():
    sim = Simulator(seed=1)
    obs = RunObserver(sim, capture_trace=True).attach()
    pkt = Packet(src=0, group=1, size_bytes=8, kind="DATA")
    sim.tracer.emit(1.0, "pkt.send", 0, pkt)
    sim.tracer.emit(1.1, "sharqfec.repair", 3, {"zone": 2})
    obs.detach()
    sim.tracer.emit(1.2, "pkt.send", 0, pkt)
    assert [r.category for r in obs.trace_records] == ["pkt.send", "sharqfec.repair"]
    assert obs.registry.counter("repairs_sent", protocol="sharqfec", zone=2).value == 1
    assert not sim.tracer.wants("pkt.send")


def test_cached_metric_handles_leave_the_registry_snapshot_unchanged():
    # Handles are looked up once per (category, zone); the snapshot —
    # names, labels, insertion order, values — is what the uncached
    # registry calls produced.
    sim = Simulator(seed=1)
    obs = RunObserver(sim).attach()
    for t in (0.05, 0.15, 0.16):
        sim.tracer.emit(t, "sharqfec.nack", 5, {"zone": 2})
        sim.tracer.emit(t, "sharqfec.inject", 5, {"zone": 2, "n": 3})
    obs.detach()
    obs.attach()  # a second attach finds the same metrics again
    sim.tracer.emit(0.3, "sharqfec.nack", 5, {"zone": 2})
    obs.detach()
    labels = {"protocol": "sharqfec", "zone": 2}
    assert obs.registry.snapshot() == [
        {"record": "counter", "name": "nacks_sent", "labels": labels, "value": 4},
        {"record": "counter", "name": "injections", "labels": labels, "value": 3},
        {"record": "counter", "name": "injected_packets", "labels": labels, "value": 9},
        {"record": "hist", "name": "nacks_sent_per_interval", "labels": labels,
         "bin_width": 0.1, "count": 4, "total": 4.0, "bins": {"0": 1, "1": 2, "3": 1}},
    ]
