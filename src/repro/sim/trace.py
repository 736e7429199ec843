"""Lightweight tracing hooks.

The experiment drivers attach listeners to record packet events (send,
receive, drop) without the protocol code knowing who is watching.  Records
are cheap named tuples; heavy aggregation lives in ``repro.analysis``.

Tracing is designed to be zero-cost when off: the subscription table is
*versioned*, and :meth:`Tracer.wants` answers "would an emit for this
category reach anyone?" from a memo that survives until the table changes.
Hot-path code (the forwarding engine, protocol agents) caches ``wants``
answers against :attr:`Tracer.version` and skips both the ``emit`` call
and any ``detail`` payload construction entirely when nobody listens.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional, Tuple


class TraceRecord(NamedTuple):
    """One traced occurrence.

    Attributes:
        time: virtual time of the occurrence.
        category: coarse event class, e.g. ``"pkt.recv"`` or ``"timer"``.
        node: node identifier the event happened at (or -1 for global).
        detail: free-form payload (usually the packet or a small dict).
    """

    time: float
    category: str
    node: int
    detail: object


Listener = Callable[[TraceRecord], None]

# ``TraceRecord(...)`` runs the named tuple's Python-level ``__new__``; an
# observed run builds one record per hop, and this is the same object at
# half the cost.
_new_record = tuple.__new__


def _without(listeners: Tuple[Listener, ...], listener: Listener) -> Tuple[Listener, ...]:
    """``listeners`` minus the first entry equal to ``listener``."""
    index = listeners.index(listener)
    return listeners[:index] + listeners[index + 1:]


class Tracer:
    """Pub/sub dispatcher for trace records.

    Listeners subscribe to a category prefix; ``emit`` is a no-op when nobody
    listens, so tracing costs almost nothing in production runs.

    Listener tables are copy-on-write tuples: an ``emit`` in progress keeps
    iterating the tuple it started with, so a listener may subscribe or
    unsubscribe (itself included) from inside its callback and every
    listener registered when the record was emitted still receives it.
    """

    def __init__(self) -> None:
        self._listeners: Dict[str, Tuple[Listener, ...]] = {}
        self._any: Tuple[Listener, ...] = ()
        self._enabled = True
        #: Bumped on every subscription-table or enable/disable change.
        #: Callers caching :meth:`wants` answers compare it to decide when
        #: to refresh.  A plain attribute: hot paths read it per packet.
        self.version = 0
        self._wants_memo: Dict[str, bool] = {}

    @property
    def enabled(self) -> bool:
        """Master switch; False silences every emit."""
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        value = bool(value)
        if value != self._enabled:
            self._enabled = value
            self._bump()

    def _bump(self) -> None:
        self.version += 1
        self._wants_memo.clear()

    def subscribe(self, category: Optional[str], listener: Listener) -> None:
        """Register ``listener`` for ``category`` (None means every record)."""
        if category is None:
            self._any += (listener,)
        else:
            self._listeners[category] = self._listeners.get(category, ()) + (listener,)
        self._bump()

    def unsubscribe(self, category: Optional[str], listener: Listener) -> None:
        """Remove a previously registered listener (ValueError if absent)."""
        if category is None:
            self._any = _without(self._any, listener)
        else:
            self._listeners[category] = _without(self._listeners[category], listener)
        self._bump()

    def has_listeners(self, category: str) -> bool:
        """True if ``emit`` for this category would reach anyone."""
        if self._any:
            return True
        return bool(self._listeners.get(category))

    def wants(self, category: str) -> bool:
        """Memoized :meth:`has_listeners` that also honors ``enabled``.

        Protocol code should consult this (directly, or via a cached copy
        keyed on :attr:`version`) before building a ``detail`` payload, so
        tracing costs nothing when nobody listens.
        """
        memo = self._wants_memo
        answer = memo.get(category)
        if answer is None:
            answer = self._enabled and (
                bool(self._any) or bool(self._listeners.get(category))
            )
            memo[category] = answer
        return answer

    def emit(self, time: float, category: str, node: int, detail: object = None) -> None:
        """Dispatch a record to matching listeners."""
        if not self._enabled:
            return
        exact = self._listeners.get(category)
        if not exact and not self._any:
            return
        record = _new_record(TraceRecord, (time, category, node, detail))
        if exact:
            for listener in exact:
                listener(record)
        for listener in self._any:
            listener(record)
