"""AsyncioClock: the wall-clock Clock adapter behind the agents' timer surface.

Every test runs a real event loop (``asyncio.run``) because the clock is a
thin veneer over ``loop.call_at`` — there is nothing meaningful to test
without one.  Delays are kept in the few-millisecond range so the whole
module stays fast.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.sim.timers import Timer
from repro.transport.api import Clock, TimerHandle
from repro.transport.clock import AsyncioClock, WallTimerHandle


async def _drain(clock: AsyncioClock, until: float, timeout: float = 2.0) -> None:
    """Sleep (in small steps) until clock time ``until`` or ``timeout``."""
    deadline = clock.now + timeout
    while clock.now < until and clock.now < deadline:
        await asyncio.sleep(0.002)


def test_satisfies_clock_protocol():
    async def main():
        clock = AsyncioClock()
        assert isinstance(clock, Clock)
        handle = clock.schedule(10.0, lambda: None)
        assert isinstance(handle, TimerHandle)
        clock.cancel(handle)

    asyncio.run(main())


def test_now_starts_near_zero_and_advances():
    async def main():
        clock = AsyncioClock()
        first = clock.now
        assert 0.0 <= first < 0.5
        await asyncio.sleep(0.02)
        assert clock.now > first

    asyncio.run(main())


def test_schedule_fires_with_args_and_counts():
    async def main():
        clock = AsyncioClock()
        fired = []
        handle = clock.schedule(0.01, fired.append, "payload")
        assert not handle.fired and not handle.cancelled
        await _drain(clock, handle.time + 0.05)
        assert fired == ["payload"]
        assert handle.fired and not handle.cancelled
        assert clock.events_fired == 1

    asyncio.run(main())


def test_at_in_the_past_clamps_instead_of_raising():
    """A wall clock runs "late" by construction; past targets mean ASAP."""

    async def main():
        clock = AsyncioClock()
        await asyncio.sleep(0.01)
        fired = []
        handle = clock.at(0.0, fired.append, "late")
        await _drain(clock, clock.now + 0.05)
        assert fired == ["late"]
        # The handle keeps the requested (past) time; only execution clamps.
        assert handle.time == 0.0

    asyncio.run(main())


def test_cancel_prevents_firing_and_is_idempotent():
    async def main():
        clock = AsyncioClock()
        fired = []
        handle = clock.schedule(0.01, fired.append, "never")
        clock.cancel(handle)
        clock.cancel(handle)  # idempotent
        assert handle.cancelled and not handle.fired
        await _drain(clock, 0.05)
        assert fired == []
        assert clock.events_fired == 0

    asyncio.run(main())


def test_cancel_after_firing_is_a_noop():
    async def main():
        clock = AsyncioClock()
        fired = []
        handle = clock.schedule(0.005, fired.append, 1)
        await _drain(clock, handle.time + 0.05)
        assert fired == [1]
        clock.cancel(handle)
        assert handle.fired and not handle.cancelled

    asyncio.run(main())


def test_reschedule_moves_a_pending_handle():
    async def main():
        clock = AsyncioClock()
        fired = []
        handle = clock.schedule(0.005, fired.append, "moved")
        same = clock.reschedule(handle, 0.05)
        assert same is handle
        await _drain(clock, 0.02)
        assert fired == []  # original expiry came and went un-fired
        await _drain(clock, handle.time + 0.05)
        assert fired == ["moved"]

    asyncio.run(main())


def test_reschedule_rejects_cancelled_and_fired_handles():
    async def main():
        clock = AsyncioClock()
        cancelled = clock.schedule(1.0, lambda: None)
        clock.cancel(cancelled)
        with pytest.raises(ValueError):
            clock.reschedule(cancelled, 0.1)

        fired = clock.schedule(0.001, lambda: None)
        await _drain(clock, fired.time + 0.05)
        assert fired.fired
        with pytest.raises(ValueError, match="rearm"):
            clock.reschedule(fired, 0.1)

    asyncio.run(main())


def test_rearm_recycles_a_fired_handle():
    async def main():
        clock = AsyncioClock()
        fired = []
        handle = clock.schedule(0.002, fired.append, "x")
        await _drain(clock, handle.time + 0.05)
        assert fired == ["x"] and handle.fired
        clock.rearm(handle, 0.002)
        assert not handle.fired  # pending again, same object
        await _drain(clock, handle.time + 0.05)
        assert fired == ["x", "x"]
        assert clock.events_fired == 2

    asyncio.run(main())


def test_rearm_rejects_pending_and_cancelled_handles():
    async def main():
        clock = AsyncioClock()
        pending = clock.schedule(1.0, lambda: None)
        with pytest.raises(ValueError, match="reschedule"):
            clock.rearm(pending, 0.1)
        clock.cancel(pending)
        with pytest.raises(ValueError):
            clock.rearm(pending, 0.1)

    asyncio.run(main())


def test_named_rng_streams_stay_deterministic():
    """Protocol *choices* remain reproducible on a wall clock."""

    async def main():
        a = AsyncioClock(seed=42)
        b = AsyncioClock(seed=42)
        draws_a = [a.rng.stream("sharqfec.reply.3").random() for _ in range(5)]
        draws_b = [b.rng.stream("sharqfec.reply.3").random() for _ in range(5)]
        assert draws_a == draws_b
        c = AsyncioClock(seed=43)
        assert [c.rng.stream("sharqfec.reply.3").random() for _ in range(5)] != draws_a

    asyncio.run(main())


def test_timer_runs_unchanged_over_the_wall_clock():
    """`repro.sim.timers.Timer` — the agents' timer — on an AsyncioClock."""

    async def main():
        clock = AsyncioClock()
        fired = []
        timer = Timer(clock, lambda: fired.append(clock.now), name="ldp")
        timer.start(0.005)
        assert timer.running
        timer.restart(0.01)  # in-place reschedule of the pending expiry
        await _drain(clock, 0.06)
        assert len(fired) == 1
        assert not timer.running

        # Fired event is recycled by restart (rearm path), then cancel works.
        timer.restart(0.005)
        assert timer.running
        timer.cancel()
        timer.cancel()
        await _drain(clock, clock.now + 0.02)
        assert len(fired) == 1

    asyncio.run(main())


def test_repr_is_stable():
    async def main():
        handle = WallTimerHandle(1.5, lambda: None, ())
        assert "pending" in repr(handle)

    asyncio.run(main())
