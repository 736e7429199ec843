"""``AsyncioClock``: the wall-clock :class:`~repro.transport.api.Clock`.

Adapts a live ``asyncio`` event loop to the exact timer surface the protocol
agents (via :class:`repro.sim.timers.Timer`) already program against, so the
unchanged state machines run in real time.  Differences from the simulation
clock are confined to what wall time forces:

* ``now`` is ``loop.time()`` relative to the clock's construction instant,
  so runs start near ``t=0`` just like a simulation;
* scheduling in the *past* clamps to "now" instead of raising — a real
  callback chain always runs slightly after the instant it reasoned about,
  and punishing that would make every agent race its own latency;
* handles are :class:`WallTimerHandle`, satisfying the same
  ``time``/``cancelled``/``fired`` surface as simulation events.

The RNG registry and tracer ride along unchanged: named streams keep their
per-``(seed, name)`` determinism (protocol *choices* stay reproducible even
though packet *timings* no longer are), and trace subscriptions work as in
simulation.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Optional, Tuple

from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer


class WallTimerHandle:
    """A scheduled callback on an :class:`AsyncioClock`.

    Satisfies :class:`repro.transport.api.TimerHandle`; reused in place by
    the ``reschedule``/``rearm`` lifecycle exactly like a simulation
    :class:`~repro.sim.events.Event`.
    """

    __slots__ = ("time", "callback", "args", "_handle", "_cancelled", "_fired")

    def __init__(self, time: float, callback: Callable[..., Any], args: Tuple[Any, ...]) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self._handle: Optional[asyncio.TimerHandle] = None
        self._cancelled = False
        self._fired = False

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def fired(self) -> bool:
        return self._fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else ("fired" if self._fired else "pending")
        return f"<WallTimerHandle t={self.time:.6f} {state}>"


class AsyncioClock:
    """Wall time + asyncio timers behind the :class:`Clock` interface."""

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None, seed: int = 0) -> None:
        self._loop = loop if loop is not None else asyncio.get_event_loop()
        self._epoch = self._loop.time()
        self.rng = RngRegistry(seed)
        self.tracer = Tracer()
        self.events_fired = 0

    # ------------------------------------------------------------------ time

    @property
    def now(self) -> float:
        """Seconds of wall time since this clock was constructed."""
        return self._loop.time() - self._epoch

    # ------------------------------------------------------------- scheduling

    def _arm(self, handle: WallTimerHandle, time: float) -> None:
        handle.time = time
        # Clamp, don't raise: wall callbacks always run a hair late, so a
        # "past" target just means "as soon as the loop gets to it".
        when = self._epoch + max(time, self.now)
        handle._handle = self._loop.call_at(when, self._fire, handle)

    def _fire(self, handle: WallTimerHandle) -> None:
        handle._fired = True
        handle._handle = None
        self.events_fired += 1
        handle.callback(*handle.args)

    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> WallTimerHandle:
        """Run ``callback(*args)`` ``delay`` seconds from now."""
        return self.at(self.now + delay, callback, *args)

    def at(self, time: float, callback: Callable[..., Any], *args: Any) -> WallTimerHandle:
        """Run ``callback(*args)`` at absolute clock time ``time``."""
        handle = WallTimerHandle(time, callback, args)
        self._arm(handle, time)
        return handle

    def call_at(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`at` (no cancellable handle)."""
        self.at(time, callback, *args)

    # ---------------------------------------------------------- handle lifecycle

    def cancel(self, event: WallTimerHandle) -> None:
        """Cancel a handle; idempotent, and a no-op on fired handles."""
        if event._cancelled or event._fired:
            return
        if event._handle is not None:
            event._handle.cancel()
            event._handle = None
        event._cancelled = True

    def reschedule(self, event: WallTimerHandle, delay: float) -> WallTimerHandle:
        """Re-arm a *pending* handle ``delay`` seconds from now."""
        if event._cancelled:
            raise ValueError("cannot reschedule a cancelled timer handle")
        if event._fired:
            raise ValueError("cannot reschedule a fired timer handle; use rearm")
        if event._handle is not None:
            event._handle.cancel()
        self._arm(event, self.now + delay)
        return event

    def rearm(self, event: WallTimerHandle, delay: float) -> WallTimerHandle:
        """Re-arm a *fired* handle ``delay`` seconds from now."""
        if event._cancelled:
            raise ValueError("cannot rearm a cancelled timer handle")
        if not event._fired:
            raise ValueError("cannot rearm a pending timer handle; use reschedule")
        event._fired = False
        self._arm(event, self.now + delay)
        return event
