"""Unit tests for the tracer."""

from __future__ import annotations

import pytest

from repro.sim.trace import Tracer


def test_subscribe_exact_category():
    tracer = Tracer()
    got = []
    tracer.subscribe("pkt.recv", got.append)
    tracer.emit(1.0, "pkt.recv", 3, "hello")
    tracer.emit(1.0, "pkt.send", 3, "ignored")
    assert len(got) == 1
    assert got[0].category == "pkt.recv"
    assert got[0].node == 3
    assert got[0].detail == "hello"


def test_subscribe_all_categories():
    tracer = Tracer()
    got = []
    tracer.subscribe(None, got.append)
    tracer.emit(1.0, "a", 0)
    tracer.emit(2.0, "b", 1)
    assert [r.category for r in got] == ["a", "b"]


def test_unsubscribe():
    tracer = Tracer()
    got = []
    tracer.subscribe("x", got.append)
    tracer.unsubscribe("x", got.append)
    tracer.emit(0.0, "x", 0)
    assert got == []


def test_unsubscribe_unknown_raises():
    tracer = Tracer()
    with pytest.raises(KeyError):
        tracer.unsubscribe("never", lambda r: None)


def test_disabled_tracer_emits_nothing():
    tracer = Tracer()
    got = []
    tracer.subscribe(None, got.append)
    tracer.enabled = False
    tracer.emit(0.0, "x", 0)
    assert got == []


def test_has_listeners():
    tracer = Tracer()
    assert not tracer.has_listeners("x")
    tracer.subscribe("x", lambda r: None)
    assert tracer.has_listeners("x")
    assert not tracer.has_listeners("y")
    tracer.subscribe(None, lambda r: None)
    assert tracer.has_listeners("y")


def test_listener_that_unsubscribes_itself_does_not_starve_the_next():
    # Regression: emit iterated the live listener list, so removing entry 0
    # from inside its callback shifted entry 1 under the iterator and that
    # record never reached it.
    tracer = Tracer()
    got = []

    def one_shot(record):
        got.append(("one_shot", record.time))
        tracer.unsubscribe("x", one_shot)

    tracer.subscribe("x", one_shot)
    tracer.subscribe("x", lambda record: got.append(("steady", record.time)))
    tracer.emit(1.0, "x", 0)
    tracer.emit(2.0, "x", 0)
    assert got == [("one_shot", 1.0), ("steady", 1.0), ("steady", 2.0)]


def test_catch_all_listener_may_unsubscribe_itself_mid_emit():
    tracer = Tracer()
    got = []

    def one_shot(record):
        got.append("one_shot")
        tracer.unsubscribe(None, one_shot)

    tracer.subscribe(None, one_shot)
    tracer.subscribe(None, lambda record: got.append("steady"))
    tracer.emit(1.0, "x", 0)
    assert got == ["one_shot", "steady"]
    assert tracer.has_listeners("x")


def test_listener_subscribed_mid_emit_first_sees_the_next_record():
    tracer = Tracer()
    got = []
    late = lambda record: got.append(("late", record.time))  # noqa: E731

    def recruiter(record):
        if record.time == 1.0:
            tracer.subscribe("x", late)

    tracer.subscribe("x", recruiter)
    tracer.emit(1.0, "x", 0)
    tracer.emit(2.0, "x", 0)
    assert got == [("late", 2.0)]


def test_unsubscribe_removes_one_registration_of_a_listener_subscribed_twice():
    tracer = Tracer()
    got = []
    tracer.subscribe("x", got.append)
    tracer.subscribe("x", got.append)
    tracer.unsubscribe("x", got.append)
    tracer.emit(1.0, "x", 0)
    assert len(got) == 1
    tracer.unsubscribe("x", got.append)
    assert not tracer.has_listeners("x")
    with pytest.raises(ValueError):
        tracer.unsubscribe("x", got.append)
