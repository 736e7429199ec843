"""Edge-case tests pinning the simulation clock's contract.

Everything above the simulator drives it through
:class:`repro.transport.api.Clock` plus ``run``/``stop``/``step``/``reset``,
so the behaviors callers lean on — seed-stable replay after ``reset``,
``run(until=...)`` leaving the clock exactly at the horizon, rejection of
past-time scheduling, and the pending/fired/cancelled life-cycle rules of
``reschedule``/``rearm`` — are contract, not implementation detail.  These
tests keep :class:`~repro.sim.scheduler.Simulator` honest about each clause.
"""

from __future__ import annotations

import pytest

from repro.sim.scheduler import SimulationError, Simulator
from repro.transport.api import Clock


def test_simulator_satisfies_engine_protocol():
    assert isinstance(Simulator(), Clock)


def test_reset_with_seed_replays_identically():
    """reset(seed) must restore clock, counters, tie-break order and RNG
    streams — a shard replayed from the same spec is byte-identical."""

    def exercise(sim):
        log = []
        # Two events at the same instant: order is the scheduling order
        # (tie-break counter), which reset must rewind too.
        sim.schedule(1.0, lambda: log.append(("a", sim.now)))
        sim.schedule(1.0, lambda: log.append(("b", sim.now)))
        sim.schedule(2.0, lambda: log.append(("rng", sim.rng.stream("net.loss.s1").random())))
        sim.run()
        return log, sim.now, sim.events_fired

    sim = Simulator(seed=42)
    first = exercise(sim)
    sim.reset(seed=42)
    assert sim.now == 0.0
    assert sim.pending == 0
    assert sim.events_fired == 0
    second = exercise(sim)
    assert first == second


def test_reset_without_seed_keeps_rng_state():
    sim = Simulator(seed=7)
    registry = sim.rng
    before = sim.rng.stream("x").random()
    sim.reset()
    # Seedless reset keeps the registry (streams continue, not replay)...
    assert sim.rng is registry
    # ...while reseeding rebuilds it, replaying draws from the start.
    sim.reset(seed=7)
    assert sim.rng is not registry
    assert sim.rng.stream("x").random() == before


def test_reschedule_fired_event_raises():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.reschedule(event, 1.0)


def test_reschedule_cancelled_event_raises():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.cancel(event)
    with pytest.raises(ValueError):
        sim.reschedule(event, 1.0)


def test_reschedule_pending_event_moves_it():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, lambda: fired.append(sim.now))
    sim.reschedule(event, 5.0)
    sim.run()
    assert fired == [5.0]
    assert sim.events_fired == 1


def test_rearm_unfired_event_raises():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    with pytest.raises(ValueError):
        sim.rearm(event, 1.0)


def test_rearm_cancelled_event_raises():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.cancel(event)
    sim.run()
    with pytest.raises(ValueError):
        sim.rearm(event, 1.0)


def test_rearm_fired_event_fires_again():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, lambda: fired.append(sim.now))
    sim.run()
    sim.rearm(event, 2.0)
    sim.run()
    assert fired == [1.0, 3.0]


def test_stop_only_interrupts_the_running_run():
    sim = Simulator()
    fired = []
    # stop() before run() must not pre-empt the next run.
    sim.stop()
    sim.schedule(1.0, lambda: fired.append("first"))
    sim.run()
    assert fired == ["first"]


def test_step_after_stop_still_fires():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: (fired.append("a"), sim.stop()))
    sim.schedule(2.0, lambda: fired.append("b"))
    sim.run()
    assert fired == ["a"]  # stopped mid-run
    assert sim.step() is True  # stop() does not poison single-stepping
    assert fired == ["a", "b"]
    assert sim.step() is False  # empty queue


def test_run_resumes_after_stop():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: (fired.append("a"), sim.stop()))
    sim.schedule(2.0, lambda: fired.append("b"))
    assert sim.run() == 1.0
    assert sim.run() == 2.0
    assert fired == ["a", "b"]


def test_run_until_advances_clock_to_horizon():
    """run(until=t) leaves now == t even with no events — the windowed
    lockstep depends on every shard's clock landing exactly on each
    barrier so injected arrivals are never 'in the past'."""
    sim = Simulator()
    assert sim.run(until=3.5) == 3.5
    assert sim.now == 3.5
    sim.schedule(10.0, lambda: None)
    assert sim.run(until=7.25) == 7.25
    assert sim.pending == 1


def test_past_time_scheduling_is_rejected():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(SimulationError):
        sim.at(4.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.call_at(4.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)
    event = sim.at(6.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.reschedule(event, -1.0)


def test_scheduling_at_now_is_allowed():
    """Boundary injection at exactly the barrier time must be legal."""
    sim = Simulator()
    sim.run(until=5.0)
    fired = []
    sim.call_at(5.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [5.0]


def test_max_events_safety_valve():
    sim = Simulator()

    def rearm_forever():
        sim.schedule(0.1, rearm_forever)

    sim.schedule(0.1, rearm_forever)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)
    assert sim.events_fired == 100


# ------------------------------------------------- batches of same-time events
#
# A multicast hop pushes the children it reaches at one instant as one heap
# entry (``EventQueue.push_batch``).  The contract stays at child
# granularity: each item is one event for ``events_fired``, ``max_events``,
# ``stop()`` and ``step()``; only ``pending`` counts the entry once.


def _batch(sim, log, items, stop_at=None):
    """Push ``items`` as one batch at t=1; the ``stop_at`` item schedules a
    zero-delay call and stops the run."""

    def fire(tag, item):
        log.append((sim.now, tag, item))
        if item == stop_at:
            sim.schedule(0.0, lambda: log.append((sim.now, "zero", None)))
            sim.stop()

    sim.queue.push_batch(1.0, fire, "batch", list(items))


def test_batch_is_one_pending_entry_of_several_events():
    sim = Simulator()
    log = []
    _batch(sim, log, "abc")
    assert sim.pending == 1
    sim.run()
    assert log == [(1.0, "batch", "a"), (1.0, "batch", "b"), (1.0, "batch", "c")]
    assert sim.events_fired == 3
    assert sim.pending == 0


def test_stop_inside_a_batch_returns_after_that_item():
    """The rest of the batch keeps the popped entry's (time, seq): it stays
    ahead of a same-time event scheduled after the batch, and of the
    zero-delay call the stopping item scheduled."""
    sim = Simulator()
    log = []
    _batch(sim, log, "abcd", stop_at="b")
    sim.at(1.0, lambda: log.append((sim.now, "later", None)))
    assert sim.run() == 1.0
    assert [entry[2] for entry in log] == ["a", "b"]
    assert sim.events_fired == 2
    assert sim.pending == 3  # the rest of the batch, "later" and "zero"
    sim.run()
    assert log[2:] == [
        (1.0, "batch", "c"), (1.0, "batch", "d"), (1.0, "later", None), (1.0, "zero", None)
    ]
    assert sim.events_fired == 6


def test_stop_on_the_last_item_leaves_nothing_behind():
    sim = Simulator()
    log = []
    _batch(sim, log, "ab", stop_at="b")
    sim.run()
    assert sim.pending == 1 and sim.events_fired == 2  # only the zero-delay call


def test_step_fires_one_item_of_a_batch():
    sim = Simulator()
    log = []
    _batch(sim, log, "abc")
    sim.at(1.0, lambda: log.append((sim.now, "later", None)))
    for expected in ("a", "b", "c", None):
        assert sim.step() is True
        assert log[-1][2] == expected
    assert sim.step() is False
    assert sim.events_fired == 4


def test_max_events_raises_at_the_same_item_as_one_entry_per_item():
    def drive(batched):
        sim = Simulator()
        log = []
        if batched:
            _batch(sim, log, "abcde")
        else:
            for item in "abcde":
                sim.call_at(1.0, lambda item=item: log.append((sim.now, "batch", item)))
        sim.at(1.0, lambda: log.append((sim.now, "later", None)))
        with pytest.raises(SimulationError):
            sim.run(max_events=3)
        cut = (list(log), sim.events_fired)
        sim.run()
        return cut, log, sim.events_fired

    assert drive(True) == drive(False)
    (cut, fired), log, total = drive(True)
    assert [entry[2] for entry in cut] == ["a", "b", "c"] and fired == 3
    assert [entry[2] for entry in log] == ["a", "b", "c", "d", "e", None] and total == 6


def test_a_raising_item_leaves_the_rest_of_its_batch_queued():
    def drive(batched):
        sim = Simulator()
        log = []

        def fire(tag, item):
            if item == "b":
                raise RuntimeError(item)
            log.append(item)

        if batched:
            sim.queue.push_batch(1.0, fire, "batch", list("abc"))
        else:
            for item in "abc":
                sim.call_at(1.0, fire, "batch", item)
        with pytest.raises(RuntimeError):
            sim.run()
        cut = (list(log), sim.events_fired, sim.pending)
        sim.run()
        return cut, log, sim.events_fired

    assert drive(True)[1:] == drive(False)[1:] == (["a", "c"], 2)
    assert drive(True)[0] == (["a"], 1, 1)
