"""Discrete-event simulation engine.

This subpackage replaces the role the UCB/LBNL ``ns`` simulator played in the
SHARQFEC paper: a global virtual clock, an event heap, cancellable timers and
reproducible random-number streams.

Public API::

    from repro.sim import Simulator, Timer, RngRegistry

    sim = Simulator(seed=7)
    sim.schedule(1.5, lambda: print("fires at t=1.5"))
    sim.run(until=10.0)
"""

from repro.sim.events import Event, EventQueue
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Simulator, SimulationError
from repro.sim.timers import Timer, TimerError
from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "Event",
    "EventQueue",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "Timer",
    "TimerError",
    "TraceRecord",
    "Tracer",
]
