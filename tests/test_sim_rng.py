"""Unit tests for named RNG streams."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import RngRegistry
from repro.testing import property_max_examples


def test_same_seed_same_draws():
    a = RngRegistry(seed=7)
    b = RngRegistry(seed=7)
    assert [a.stream("x").random() for _ in range(10)] == [
        b.stream("x").random() for _ in range(10)
    ]


def test_different_streams_are_independent():
    reg = RngRegistry(seed=7)
    xs = [reg.stream("x").random() for _ in range(5)]
    # Consuming from "y" must not perturb "x"'s future draws.
    reg2 = RngRegistry(seed=7)
    _ = [reg2.stream("y").random() for _ in range(100)]
    xs2 = [reg2.stream("x").random() for _ in range(5)]
    assert xs == xs2


def test_different_seeds_differ():
    a = RngRegistry(seed=1)
    b = RngRegistry(seed=2)
    assert a.stream("x").random() != b.stream("x").random()


def test_stream_is_cached():
    reg = RngRegistry(seed=0)
    assert reg.stream("s") is reg.stream("s")


def test_uniform_within_bounds():
    reg = RngRegistry(seed=3)
    for _ in range(100):
        v = reg.uniform("u", 2.0, 3.0)
        assert 2.0 <= v <= 3.0


def test_bernoulli_extremes():
    reg = RngRegistry(seed=3)
    assert not reg.bernoulli("b", 0.0)
    assert reg.bernoulli("b", 1.0)


def test_bernoulli_rate_roughly_respected():
    reg = RngRegistry(seed=5)
    hits = sum(reg.bernoulli("b", 0.3) for _ in range(10000))
    assert 2700 < hits < 3300


def test_fork_is_deterministic_and_distinct():
    reg = RngRegistry(seed=9)
    f1 = reg.fork("run-1")
    f1_again = RngRegistry(seed=9).fork("run-1")
    f2 = reg.fork("run-2")
    assert f1.stream("x").random() == f1_again.stream("x").random()
    assert f1.seed != f2.seed
    assert f1.seed != reg.seed


@settings(max_examples=property_max_examples(100), deadline=None)
@given(
    seed=st.integers(0, 2**63),
    names=st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=6, unique=True),
    schedule=st.lists(st.integers(0, 5), max_size=60),
)
def test_creating_a_stream_later_changes_no_draw(seed, names, schedule):
    """Agents build their streams at their first draw, not when the world
    is built.  That is exact only if a stream's draws depend on its name
    alone: not on which streams exist, in what order they were created,
    or what was drawn from them in between."""
    shared = RngRegistry(seed)
    drawn = {name: [] for name in names}
    for pick in schedule:
        name = names[pick % len(names)]
        drawn[name].append(shared.stream(name).random())
    for name in names:
        fresh = RngRegistry(seed).stream(name)
        assert drawn[name] == [fresh.random() for _ in drawn[name]]
