"""Event and event-queue primitives for the discrete-event engine.

Events are ordered by (time, sequence).  The sequence number is a global
monotonic counter so that two events scheduled for the same instant fire in
the order they were scheduled — this keeps runs deterministic, which matters
because every SHARQFEC experiment is seeded and expected to reproduce
bit-identical traffic series.

Performance notes (the event core is the simulator's hottest loop):

* The heap stores plain ``(time, seq, event)`` tuples, so ``heapq`` sift
  comparisons run entirely at C speed instead of dispatching into
  ``Event.__lt__`` per comparison.
* Cancellation is O(1) and lazy, as before — but suppression-style
  workloads (SRM/SHARQFEC request timers) cancel far more events than they
  fire, so the queue additionally *compacts*: once tombstones outnumber
  live entries past a floor, dead tuples are swept out in one O(n)
  ``heapify`` instead of being carried until they surface.
* ``reschedule`` re-arms a pending event in place: the old heap tuple is
  orphaned by bumping the event's sequence number (no new ``Event``
  allocation, no eager removal), which is what :class:`repro.sim.timers.
  Timer` uses for its restart-heavy suppression dance.
* ``push_call`` schedules a fire-and-forget callback with *no* Event
  handle at all — the heap entry is ``(time, seq, callback, args)``.
  ``Simulator.call_at`` and the sharded engine's cross-shard injections use
  it.  Entry kinds coexist safely: tuple comparison never reaches the third
  element because ``seq`` is globally unique.
* ``push_batch`` carries packet arrivals (the bulk of all events), which
  are never cancelled either.  The children one multicast hop reaches at
  the same instant share one heap entry ``(time, seq, callback, first,
  items)`` and one sequence number, and fire as ``callback(first, item)``
  in item order.  That is the order one entry per child would give, because
  same-time entries pushed by one loop take consecutive sequence numbers, so
  nothing else can fire between them.  Each item is still one event:
  ``Simulator.events_fired``, ``max_events``, ``stop()`` and ``step()`` all
  work per item, and an interrupted batch goes back on the heap under its
  own ``(time, seq)``.  ``len(queue)`` counts heap entries, so a pending
  batch counts once.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional, Tuple

#: Tombstones are swept only past this count, so small queues never pay
#: compaction overhead.
COMPACT_MIN_DEAD = 64


class Event:
    """A single scheduled callback.

    An event may be *cancelled*, in which case its heap entry stays behind
    as a tombstone and is skipped (or compacted away) later.  ``seq``
    identifies the event's *current* heap entry: rescheduling bumps it, so
    stale entries self-identify by carrying an out-of-date sequence.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        """Mark this event so it will not fire when popped."""
        self.cancelled = True

    def fire(self) -> None:
        """Invoke the callback (caller must check ``cancelled`` first)."""
        self.callback(*self.args)

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else (" fired" if self.fired else "")
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"<Event t={self.time:.6f} #{self.seq} {name}{state}>"


class EventQueue:
    """A binary-heap priority queue of :class:`Event` objects.

    Heap entries are ``(time, seq, event)`` tuples.  An entry is *live* iff
    the event is not cancelled and the entry's seq matches ``event.seq``
    (reschedules orphan their old entry by bumping the event's seq).
    ``Simulator.run`` pops the heap directly under the same rules.
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._next_seq = 0
        self._live = 0
        self._dead = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, time: float, callback: Callable[..., Any], args: Tuple[Any, ...] = ()) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time`` and return the event."""
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(time, seq, callback, args)
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def push_call(self, time: float, callback: Callable[..., Any], args: Tuple[Any, ...] = ()) -> None:
        """Schedule a fire-and-forget callback (no cancellable handle).

        Consumes a sequence number exactly like :meth:`push`, so mixing the
        two never perturbs tie-break ordering — only the allocation of the
        Event object is saved.
        """
        seq = self._next_seq
        self._next_seq = seq + 1
        heapq.heappush(self._heap, (time, seq, callback, args))
        self._live += 1

    def push_batch(
        self, time: float, callback: Callable[..., Any], first: Any, items: list
    ) -> None:
        """Schedule ``callback(first, item)`` for each item as one heap entry.

        The entry takes one sequence number, and its items fire in list
        order as consecutive events.  ``items`` may still be appended to
        until the entry fires, so a caller can push at its first item.
        """
        seq = self._next_seq
        self._next_seq = seq + 1
        heapq.heappush(self._heap, (time, seq, callback, first, items))
        self._live += 1

    def reschedule(self, event: Event, time: float) -> Event:
        """Re-arm a still-pending event at a new absolute ``time``.

        The event object is reused (its old heap entry becomes a tombstone)
        so restart-heavy timers do not allocate per re-arm.  The new entry
        consumes the next sequence number — exactly what a cancel+push pair
        would — so replay determinism is unaffected.  Fired or cancelled
        events cannot be re-armed; push a fresh one instead.
        """
        if event.fired or event.cancelled:
            raise ValueError(f"cannot reschedule {event!r}")
        seq = self._next_seq
        self._next_seq = seq + 1
        event.seq = seq
        event.time = time
        heapq.heappush(self._heap, (time, seq, event))
        self._dead += 1  # the orphaned prior entry
        if self._dead > COMPACT_MIN_DEAD and self._dead > self._live:
            self._compact()
        return event

    def rearm_fired(self, event: Event, time: float) -> Event:
        """Re-arm an event that already fired, reusing the object.

        The fired event's heap entry is gone (it was popped when it fired),
        so unlike :meth:`reschedule` no tombstone is left behind.  Consumes
        one sequence number, exactly like a fresh :meth:`push` — repeating
        timers use this so a fire-restart cycle allocates nothing.
        """
        if not event.fired or event.cancelled:
            raise ValueError(f"cannot rearm {event!r}: not a fired live event")
        seq = self._next_seq
        self._next_seq = seq + 1
        event.seq = seq
        event.time = time
        event.fired = False
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a previously pushed event.

        A no-op on events that already fired (their heap entry is gone;
        flipping the flag would corrupt the live count) and on doubly
        cancelled events.
        """
        if event.cancelled or event.fired:
            return
        event.cancelled = True
        self._live -= 1
        self._dead += 1
        if self._dead > COMPACT_MIN_DEAD and self._dead > self._live:
            self._compact()

    def _compact(self) -> None:
        """Sweep tombstones: rebuild the heap from live entries only.

        Handle-free ``push_call`` and ``push_batch`` entries (length 4 and
        5) are always live.  The list is refilled in place:
        ``Simulator.run`` holds a reference to it while a callback may be
        cancelling (and so compacting).
        """
        heap = self._heap
        heap[:] = [
            entry
            for entry in heap
            if len(entry) != 3
            or (entry[2].seq == entry[1] and not entry[2].cancelled)
        ]
        heapq.heapify(heap)
        self._dead = 0

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or ``None`` if empty.

        Handle-free entries are wrapped in an already-fired Event so
        single-stepping callers see a uniform interface.  A batch yields its
        first item, and the rest of it goes back under the same
        ``(time, seq)``, still ahead of everything else.
        """
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            if len(entry) == 3:
                time, seq, event = entry
                if event.seq != seq or event.cancelled:
                    self._dead -= 1
                    continue
            elif len(entry) == 4:
                event = Event(entry[0], entry[1], entry[2], entry[3])
            else:
                time, seq, callback, first, items = entry
                event = Event(time, seq, callback, (first, items[0]))
                if len(items) > 1:
                    # The rest stays one live entry.
                    heapq.heappush(heap, (time, seq, callback, first, items[1:]))
                    self._live += 1
            event.fired = True
            self._live -= 1
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the next live event without removing it."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if len(entry) != 3 or (
                entry[2].seq == entry[1] and not entry[2].cancelled
            ):
                return entry[0]
            heapq.heappop(heap)
            self._dead -= 1
        return None

    @property
    def tombstones(self) -> int:
        """Dead entries currently carried by the heap (diagnostics)."""
        return self._dead

    @property
    def heap_size(self) -> int:
        """Raw heap length including tombstones (diagnostics)."""
        return len(self._heap)

    def clear(self) -> None:
        """Drop every pending event and reset the tie-break counter.

        Resetting the counter matters for replay: a ``Simulator.reset()``
        followed by a re-run must schedule events with the same tie-break
        sequences as a fresh simulator, or same-time events would fire in a
        different order than the original run.
        """
        self._heap.clear()
        self._live = 0
        self._dead = 0
        self._next_seq = 0
