"""The simulator core: virtual clock + event loop.

``Simulator`` owns the event queue, the clock and the RNG registry.  Protocol
agents and the network model schedule callbacks on it; ``run()`` drains events
in time order until the horizon or until the queue empties.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.sim.events import Event, EventQueue
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer


class SimulationError(RuntimeError):
    """Raised for invalid scheduling requests (negative delay, time travel)."""


class Simulator:
    """Discrete-event simulator with a floating-point clock in seconds."""

    def __init__(self, seed: int = 0) -> None:
        #: Current virtual time in seconds.  A plain attribute, read once
        #: per event by the hot paths; only run/step/reset write it.
        self.now = 0.0
        self._queue = EventQueue()
        self._running = False
        self._stopped = False
        self.rng = RngRegistry(seed)
        self.tracer = Tracer()
        self._events_fired = 0

    # ------------------------------------------------------------------ clock

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (diagnostics / perf tests).

        One event is one callback fired: a timer, a scheduled call, or one
        packet's arrival at one node.  The children of a multicast hop that
        share a heap entry (``EventQueue.push_batch``) count one each.
        """
        return self._events_fired

    @property
    def pending(self) -> int:
        """Number of live heap entries still queued.

        A pending batch of same-instant arrivals counts once, however many
        events it will fire.
        """
        return len(self._queue)

    @property
    def queue(self) -> EventQueue:
        """The underlying event queue (hot paths may push directly)."""
        return self._queue

    # -------------------------------------------------------------- schedule

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
    ) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self._queue.push(self.now + delay, callback, args)

    def at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual ``time``."""
        if time < self.now:
            raise SimulationError(f"cannot schedule at {time!r}, now is {self.now!r}")
        return self._queue.push(time, callback, args)

    def call_at(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule a fire-and-forget callback with no cancellable handle.

        Same ordering semantics as :meth:`at` (one tie-break sequence is
        consumed either way); hot paths that never cancel use this to skip
        the Event allocation.
        """
        if time < self.now:
            raise SimulationError(f"cannot schedule at {time!r}, now is {self.now!r}")
        self._queue.push_call(time, callback, args)

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event (no-op if already cancelled or fired)."""
        self._queue.cancel(event)

    def reschedule(self, event: Event, delay: float) -> Event:
        """Re-arm a still-pending event ``delay`` seconds from now.

        Equivalent to cancel+schedule (same callback, same tie-break
        sequence consumption) but reuses the event object — the fast path
        for restart-heavy timers.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self._queue.reschedule(event, self.now + delay)

    def rearm(self, event: Event, delay: float) -> Event:
        """Re-arm an already-fired event ``delay`` seconds from now.

        Object reuse for repeating timers: same ordering semantics as
        :meth:`schedule` (one tie-break sequence consumed) without the
        Event allocation.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self._queue.rearm_fired(event, self.now + delay)

    # ------------------------------------------------------------------- run

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Drain the event queue.

        Args:
            until: stop once the next event would fire after this time; the
                clock is advanced to ``until`` when the horizon is hit.
            max_events: safety valve; raise if more events than this fire.

        Returns:
            The virtual time at which the run stopped.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        self._stopped = False
        fired = 0
        limit = math.inf if max_events is None else max_events
        # The simulator's hottest loop pops the queue's heap itself, under
        # EventQueue.pop's liveness rules and live/dead accounting.
        # Compaction refills the heap list in place, so this reference stays
        # valid across callbacks.
        queue = self._queue
        heap = queue._heap
        horizon = math.inf if until is None else until
        try:
            while heap and not self._stopped:
                entry = heap[0]
                if len(entry) == 3:
                    time, seq, event = entry
                    if event.seq != seq or event.cancelled:
                        heappop(heap)
                        queue._dead -= 1
                        continue
                    if time > horizon:
                        break
                    heappop(heap)
                    event.fired = True
                    queue._live -= 1
                    self.now = time
                    event.callback(*event.args)
                    fired += 1
                else:
                    time = entry[0]
                    if time > horizon:
                        break
                    heappop(heap)
                    queue._live -= 1
                    self.now = time
                    if len(entry) == 4:
                        entry[2](*entry[3])
                        fired += 1
                    else:
                        # A batch fires one event per item.  If it is cut
                        # short, its rest goes back under the same
                        # (time, seq), still ahead of everything else.
                        _, seq, callback, first, items = entry
                        done = 0
                        try:
                            for item in items:
                                done += 1
                                callback(first, item)
                                fired += 1
                                if self._stopped or fired >= limit:
                                    break
                        finally:
                            if done < len(items):
                                heappush(heap, (time, seq, callback, first, items[done:]))
                                queue._live += 1
                if fired >= limit:
                    self._events_fired += fired
                    fired = 0
                    raise SimulationError(f"exceeded max_events={max_events}")
            if until is not None and not self._stopped and self.now < until:
                self.now = until
            return self.now
        finally:
            self._events_fired += fired
            self._running = False

    def stop(self) -> None:
        """Request that ``run()`` return after the current event.

        Called from one item of a batch, the run returns after that item
        and the rest stay queued.
        """
        self._stopped = True

    def step(self) -> bool:
        """Fire exactly one event (one item of a batch).

        Returns False if the queue was empty.
        """
        event = self._queue.pop()
        if event is None:
            return False
        self.now = event.time
        event.fire()
        self._events_fired += 1
        return True

    def reset(self, seed: Optional[int] = None) -> None:
        """Clear all pending events and rewind the clock to zero."""
        self._queue.clear()
        self.now = 0.0
        self._events_fired = 0
        if seed is not None:
            self.rng = RngRegistry(seed)
