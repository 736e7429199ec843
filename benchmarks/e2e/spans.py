"""Span recording for the traced pass, applied from outside ``src/``.

The benchmark may not edit the program, so a layer boundary is traced by
replacing a public method (on its class) or a public function (in every
``repro`` module that imported it by name) with a timing wrapper *before*
the scenario is built.  Each call becomes one span: name, start, end and
the span that was open when it started.  Spans stay in four flat arrays
(a 13 s SRM run makes ~3 million of them) and are reduced once at the end:
a span's self time is its duration minus the durations of its direct
children, so self times of all spans sum to the root's duration exactly.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from typing import Callable, Dict, Iterator, List, Tuple
from contextlib import contextmanager


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self.name_of = array("l")
        self.parent_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = [-1]

    def _intern(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        return index

    # ------------------------------------------------------------- recording

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A callable that runs ``fn`` inside a span called ``name``."""
        name_id = self._intern(name)
        name_of, parent_of, start, end = self.name_of, self.parent_of, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(name_of)
            name_of.append(name_id)
            parent_of.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Open a span around a block of benchmark code."""
        index = len(self.name_of)
        self.name_of.append(self._intern(name))
        self.parent_of.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[index] = time.perf_counter()
            self._stack.pop()

    def wrap_method(self, cls: type, method: str, name: str) -> None:
        """Trace ``cls.method`` for every instance created from now on."""
        setattr(cls, method, self.wrap(name, cls.__dict__[method]))

    def wrap_function(self, fn: Callable, name: str) -> None:
        """Trace ``fn`` wherever a loaded ``repro`` module has it bound."""
        traced = self.wrap(name, fn)
        rebound = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, traced)
                    rebound += 1
        if not rebound:
            raise LookupError(f"{name}: no loaded repro module binds {fn!r}")

    # -------------------------------------------------------------- reduction

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """``{name: (calls, total seconds, self seconds)}`` over all spans."""
        n = len(self.name_of)
        child_time = [0.0] * n
        start, end, parent_of = self.start, self.end, self.parent_of
        for i in range(n):
            parent = parent_of[i]
            if parent >= 0:
                child_time[parent] += end[i] - start[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        self_time = [0.0] * len(self.names)
        name_of = self.name_of
        for i in range(n):
            duration = end[i] - start[i]
            name_id = name_of[i]
            calls[name_id] += 1
            total[name_id] += duration
            self_time[name_id] += duration - child_time[i]
        return {
            name: (calls[i], total[i], self_time[i])
            for i, name in enumerate(self.names)
        }

    def write(self, path: str) -> None:
        """One header line, then one ``[name_index, start, end, parent]`` per span."""
        with open(path, "w") as handle:
            header = {"trace_id": self.trace_id, "names": self.names,
                      "columns": ["name", "start_s", "end_s", "parent"]}
            handle.write(json.dumps(header) + "\n")
            for name, start, end, parent in zip(self.name_of, self.start, self.end,
                                                self.parent_of):
                handle.write(f"[{name}, {start!r}, {end!r}, {parent}]\n")
