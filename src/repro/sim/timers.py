"""Cancellable, restartable timers built on the event queue.

SHARQFEC agents juggle many timers per packet group (LDP timer, request
timer, reply timer, session timer, ZCR timers).  ``Timer`` wraps the raw
event-cancellation dance into start/restart/cancel semantics.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Hashable, Optional

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - annotation only (avoids an import cycle)
    from repro.transport.api import Clock


class TimerError(RuntimeError):
    """Raised on invalid timer operations (e.g. starting a running timer)."""


class Timer:
    """A one-shot timer bound to a :class:`Clock` and a callback.

    The callback receives no arguments; bind context with a closure or
    ``functools.partial``.  ``restart`` cancels any pending expiry first, so
    it is always safe to call.
    """

    __slots__ = ("_clock", "_callback", "_event", "name")

    def __init__(self, clock: "Clock", callback: Callable[[], Any], name: str = "") -> None:
        self._clock = clock
        self._callback = callback
        self._event: Optional[Event] = None
        self.name = name

    @property
    def running(self) -> bool:
        """True while an expiry is pending."""
        event = self._event
        return event is not None and not event.cancelled and not event.fired

    @property
    def expires_at(self) -> Optional[float]:
        """Absolute expiry time, or None if not running."""
        if self.running:
            assert self._event is not None
            return self._event.time
        return None

    def start(self, delay: float) -> None:
        """Arm the timer ``delay`` seconds from now.  Errors if running."""
        event = self._event
        if event is not None and not event.cancelled:
            if not event.fired:
                raise TimerError(f"timer {self.name!r} already running")
            self._clock.rearm(event, delay)
        else:
            self._event = self._clock.schedule(delay, self._fire)

    def restart(self, delay: float) -> None:
        """(Re-)arm ``delay`` seconds from now, cancelling any pending expiry.

        A pending expiry is re-armed *in place* and a fired one is recycled
        (the event object is reused and only its heap entry is replaced) —
        suppression-style protocols restart timers far more often than they
        let them fire, so this avoids an allocation and a cancel per
        re-draw, and repeating timers allocate once over their lifetime.
        """
        event = self._event
        if event is None or event.cancelled:
            self._event = self._clock.schedule(delay, self._fire)
        elif event.fired:
            self._clock.rearm(event, delay)
        else:
            self._clock.reschedule(event, delay)

    def cancel(self) -> None:
        """Disarm the timer if pending (idempotent)."""
        if self._event is not None:
            self._clock.cancel(self._event)
            self._event = None

    def _fire(self) -> None:
        # The fired event object is retained so restart()/start() can
        # recycle it via Clock.rearm instead of allocating a new one.
        self._callback()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.running:
            return f"<Timer {self.name!r} expires@{self.expires_at:.6f}>"
        return f"<Timer {self.name!r} idle>"


class TimerTable(dict):
    """Per-key timers, each built on its first ``table[key]``.

    The callback receives the key.  A key whose timer is never armed costs
    nothing, so lookups that only cancel or test ``running`` use ``get``
    (or :meth:`cancel`) and build nothing.
    """

    __slots__ = ("_clock", "_callback", "_name")

    def __init__(self, clock: "Clock", callback: Callable[[Any], Any], name: str = "") -> None:
        super().__init__()
        self._clock = clock
        self._callback = callback
        self._name = name

    def __missing__(self, key: Hashable) -> Timer:
        timer = self[key] = Timer(self._clock, partial(self._callback, key), self._name)
        return timer

    def cancel(self, key: Hashable) -> None:
        """Disarm ``key``'s timer if it was ever built."""
        timer = self.get(key)
        if timer is not None:
            timer.cancel()

    def cancel_all(self) -> None:
        """Disarm every built timer."""
        for timer in self.values():
            timer.cancel()
