"""Unit tests for the simulator core."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import COMPACT_MIN_DEAD
from repro.sim.scheduler import SimulationError, Simulator
from repro.testing import property_max_examples


def test_clock_advances_with_events():
    sim = Simulator()
    times = []
    sim.schedule(1.0, lambda: times.append(sim.now))
    sim.schedule(2.5, lambda: times.append(sim.now))
    end = sim.run()
    assert times == [1.0, 2.5]
    assert end == 2.5


def test_run_until_horizon_stops_before_late_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(5.0, lambda: fired.append(5))
    end = sim.run(until=3.0)
    assert fired == [1]
    assert end == 3.0
    assert sim.pending == 1
    # A second run picks up where the first stopped.
    sim.run()
    assert fired == [1, 5]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_at_in_the_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(0.5, lambda: None)


def test_events_scheduled_during_run_fire():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(1.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 4.0


def test_stop_halts_run():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
    sim.schedule(2.0, lambda: fired.append(2))
    sim.run()
    assert fired == [1]
    assert sim.pending == 1


def test_cancel_scheduled_event():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, lambda: fired.append(1))
    sim.cancel(event)
    sim.run()
    assert fired == []


def test_max_events_guard():
    sim = Simulator()

    def forever():
        sim.schedule(0.001, forever)

    sim.schedule(0.0, forever)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_step_fires_one_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append("a"))
    sim.schedule(2.0, lambda: fired.append("b"))
    assert sim.step()
    assert fired == ["a"]
    assert sim.step()
    assert not sim.step()


def test_reset_clears_state():
    sim = Simulator(seed=1)
    sim.schedule(1.0, lambda: None)
    sim.run()
    sim.schedule(1.0, lambda: None)
    sim.reset(seed=2)
    assert sim.now == 0.0
    assert sim.pending == 0
    assert sim.rng.seed == 2


def test_run_not_reentrant():
    sim = Simulator()

    def recurse():
        sim.run()

    sim.schedule(0.1, recurse)
    with pytest.raises(SimulationError):
        sim.run()


def test_run_until_advances_clock_even_when_idle():
    sim = Simulator()
    end = sim.run(until=7.0)
    assert end == 7.0
    assert sim.now == 7.0


@settings(max_examples=property_max_examples(40), deadline=None)
@given(
    early=st.lists(st.floats(0.0, 10.0), max_size=20),
    doomed=st.lists(
        st.floats(1.0, 10.0, exclude_min=True),
        min_size=2 * COMPACT_MIN_DEAD,
        max_size=3 * COMPACT_MIN_DEAD,
    ),
    late=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=20),
    horizon=st.one_of(st.none(), st.floats(0.0, 20.0)),
    data=st.data(),
)
def test_compaction_inside_a_callback_keeps_the_run_whole(early, doomed, late, horizon, data):
    """A callback at t=1 cancels enough timers to compact the queue, then
    schedules more.  The run loop holds the heap list across callbacks, so
    compaction must refill that list in place: every live event still
    fires in (time, seq) order and ``pending`` stays exact throughout."""
    sim = Simulator()
    fired = []
    expected = {}  # label -> (time, seq) of every event that must fire
    compactions = []
    compact = sim.queue._compact

    def counting_compact():
        compactions.append(sim.now)
        compact()

    sim.queue._compact = counting_compact

    def schedule(delay, label):
        event = sim.schedule(delay, fired.append, label)
        expected[label] = (event.time, event.seq)
        return event

    for i, delay in enumerate(early):
        schedule(delay, ("early", i))
    doomed_events = [schedule(delay, ("doomed", i)) for i, delay in enumerate(doomed)]
    keep = data.draw(st.sets(st.integers(0, len(doomed) - 1), max_size=len(doomed) // 4))

    def purge():
        for i, event in enumerate(doomed_events):
            if i not in keep:
                sim.cancel(event)
                del expected[("doomed", i)]
        assert compactions, "the cancels must compact mid-run"
        for i, delay in enumerate(late):
            schedule(delay, ("late", i))
        assert sim.pending == len(expected) - len(fired)

    sim.schedule(1.0, purge)

    def in_order():
        return [label for _, label in sorted((when, label) for label, when in expected.items())]

    if horizon is not None:
        sim.run(until=horizon)
        before = [label for label in in_order() if expected[label][0] <= horizon]
        assert fired == before
        purge_pending = horizon < 1.0
        assert sim.pending == len(expected) - len(before) + purge_pending
    sim.run()
    assert fired == in_order()
    assert sim.pending == 0
    assert sim.queue.heap_size == 0 and sim.queue.tombstones == 0
