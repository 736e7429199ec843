"""SHARQFEC reproduction library.

A from-scratch Python implementation of the systems behind

    Kermode, "Scoped Hybrid Automatic Repeat reQuest with Forward Error
    Correction (SHARQFEC)", SIGCOMM 1998.

Public API
----------

The supported surface is re-exported here (lazily — importing ``repro``
stays cheap) and frozen in ``__all__``::

    from repro import Simulator, Network, SharqfecConfig, SharqfecProtocol

    sim = Simulator(seed=7)
    net = Network(sim)
    ...

Everything else under ``repro.*`` is implementation detail and may move
between releases.

Subpackages:

* :mod:`repro.sim` — discrete-event simulation engine (the paper used ns).
* :mod:`repro.net` — network model: links, nodes, routing, multicast.
* :mod:`repro.scoping` — administratively scoped zone hierarchies.
* :mod:`repro.fec` — GF(256) Reed–Solomon erasure codec.
* :mod:`repro.srm` — Scalable Reliable Multicast baseline.
* :mod:`repro.core` — the SHARQFEC protocol (the paper's contribution).
* :mod:`repro.transport` — Clock/Transport seams, wire codec, real UDP.
* :mod:`repro.analysis` — analytical models and traffic post-processing.
* :mod:`repro.topology` — topology builders, including the paper's Fig 10.
* :mod:`repro.experiments` — per-figure experiment drivers and CLI.
* :mod:`repro.faults` — deterministic fault injection (burst loss, link
  and node failures, zone partitions) for chaos runs.
* :mod:`repro.testing` — machine-checked protocol invariants shared by the
  test suite, the benchmarks and the experiment drivers.
"""

from typing import TYPE_CHECKING

from repro._version import __version__

# Curated name -> home module.  Resolved lazily on first attribute access
# (PEP 562) so `import repro` pulls in nothing beyond _version.
_EXPORTS = {
    # simulation engine
    "Simulator": "repro.sim.scheduler",
    "Timer": "repro.sim.timers",
    "RngRegistry": "repro.sim.rng",
    "Tracer": "repro.sim.trace",
    # simulated network fabric
    "Network": "repro.net.network",
    "Packet": "repro.net.packet",
    # scoping
    "ZoneHierarchy": "repro.scoping.zone",
    "ScopedChannels": "repro.scoping.channels",
    # protocols
    "SharqfecConfig": "repro.core.config",
    "SharqfecProtocol": "repro.core.protocol",
    "SrmConfig": "repro.srm.config",
    "SrmProtocol": "repro.srm.protocol",
    # faults + observability
    "FaultPlan": "repro.faults.plan",
    "FaultInjector": "repro.faults.injector",
    "RunObserver": "repro.obs.recorder",
    # transport seams + real-UDP mode (PR 9)
    "Clock": "repro.transport.api",
    "Transport": "repro.transport.api",
    "TimerHandle": "repro.transport.api",
    "WireError": "repro.errors",
    "ReproError": "repro.errors",
    "AsyncioClock": "repro.transport.clock",
    "UdpTransport": "repro.transport.udp",
    "UdpRelay": "repro.transport.udp",
    "NodeRuntime": "repro.transport.runtime",
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # cache: resolve once per process
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from repro.core.config import SharqfecConfig
    from repro.core.protocol import SharqfecProtocol
    from repro.errors import ReproError, WireError
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.net.network import Network
    from repro.net.packet import Packet
    from repro.obs.recorder import RunObserver
    from repro.scoping.channels import ScopedChannels
    from repro.scoping.zone import ZoneHierarchy
    from repro.sim.rng import RngRegistry
    from repro.sim.scheduler import Simulator
    from repro.sim.timers import Timer
    from repro.sim.trace import Tracer
    from repro.srm.config import SrmConfig
    from repro.srm.protocol import SrmProtocol
    from repro.transport.api import Clock, TimerHandle, Transport
    from repro.transport.clock import AsyncioClock
    from repro.transport.runtime import NodeRuntime
    from repro.transport.udp import UdpRelay, UdpTransport
