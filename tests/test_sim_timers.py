"""Unit tests for cancellable timers."""

from __future__ import annotations

import pytest

from repro.sim.scheduler import Simulator
from repro.sim.timers import Timer, TimerError, TimerTable


def test_timer_fires_once():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now), name="t")
    timer.start(2.0)
    sim.run()
    assert fired == [2.0]
    assert not timer.running


def test_timer_cancel_prevents_fire():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(1))
    timer.start(1.0)
    timer.cancel()
    sim.run()
    assert fired == []


def test_start_while_running_raises():
    sim = Simulator()
    timer = Timer(sim, lambda: None, name="dup")
    timer.start(1.0)
    with pytest.raises(TimerError):
        timer.start(2.0)


def test_restart_replaces_pending_expiry():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(1.0)
    timer.restart(3.0)
    sim.run()
    assert fired == [3.0]


def test_restart_works_when_idle():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.restart(1.5)
    sim.run()
    assert fired == [1.5]


def test_expires_at_reports_absolute_time():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    timer = Timer(sim, lambda: None)
    timer.start(2.0)
    assert timer.expires_at == 3.0


def test_timer_can_rearm_itself_from_callback():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: None)

    def tick():
        fired.append(sim.now)
        if len(fired) < 3:
            timer.start(1.0)

    timer._callback = tick  # rebind for the self-rearm scenario
    timer.start(1.0)
    sim.run()
    assert fired == [1.0, 2.0, 3.0]


def test_timer_table_builds_a_timer_on_first_index_only():
    sim = Simulator()
    fired = []
    table = TimerTable(sim, lambda key: fired.append((key, sim.now)), name="tbl")
    table.cancel("a")
    table.cancel_all()
    assert table.get("a") is None and len(table) == 0
    table["a"].start(1.0)
    table["b"].restart(2.0)
    assert table["a"] is table["a"] and table["a"].name == "tbl"
    table.cancel("b")
    sim.run()
    assert fired == [("a", 1.0)]
    assert sorted(table) == ["a", "b"]
