"""Shared run harness for the §6.2 data/repair traffic experiments.

Every traffic figure uses the same shape (§6.2): the Figure 10 topology,
sessions joining at t = 1 s, a CBR source of 1000-byte packets at
800 kbit/s starting at t = 6 s, groups of 16, and per-receiver traffic
binned over 0.1 s intervals.  ``run_traffic`` executes one protocol variant
under that shape and returns the binned series.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import time
from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.errors import ConfigError
from repro.faults.plan import FaultPlan
from repro.net.monitor import TrafficMonitor
from repro.obs.progress import ProgressReporter
# The spec-level names moved down to repro.scenario with the spec; they are
# imported back so ``common.variant_config`` etc. stay importable.
from repro.scenario import (
    DATA_START,
    DEFAULT_DRAIN,
    SESSION_START,
    VARIANTS,
    RunSpec,
    World,
    collector_paused,
    export_run,
    run_record,
    run_slug,
    variant_config,
)
from repro.sim.scheduler import Simulator
from repro.topology.figure10 import Figure10

#: Traffic-monitor kinds that make up "data and repair traffic".
DATA_REPAIR_KINDS = ("DATA", "FEC", "REPAIR")


@dataclass
class ObservabilityOptions:
    """Where (and whether) traffic runs export metrics/trace JSONL.

    Set ambiently via :func:`observe_runs`; the ``sharqfec`` CLI's
    ``--metrics-out`` / ``--trace-out`` / ``--progress`` flags build one of
    these.  Paths are directories: every protocol run writes
    ``<slug>_p<packets>_s<seed>.{metrics,trace}.jsonl`` inside them.
    """

    metrics_dir: Optional[str] = None
    trace_dir: Optional[str] = None
    progress_interval: Optional[float] = None
    progress_stream: Optional[object] = None

    @property
    def active(self) -> bool:
        return (
            self.metrics_dir is not None
            or self.trace_dir is not None
            or self.progress_interval is not None
        )


# Ambient export options.  A ContextVar (not a module global) so nested
# observe_runs blocks compose and concurrent runs — campaign executor
# threads/tasks — each see their own options instead of racing on one slot.
_observability: contextvars.ContextVar[Optional[ObservabilityOptions]] = (
    contextvars.ContextVar("sharqfec_observability", default=None)
)


def current_observability() -> Optional[ObservabilityOptions]:
    """The options :func:`run_traffic` would export under right now."""
    return _observability.get()


@contextlib.contextmanager
def observe_runs(options: Optional[ObservabilityOptions]) -> Iterator[None]:
    """Make every :func:`run_traffic` inside the block export per ``options``."""
    token = _observability.set(options)
    try:
        yield
    finally:
        _observability.reset(token)


def default_packets() -> int:
    """Packets per run: the paper's 1024, or ``SHARQFEC_PACKETS`` from the
    environment (benchmarks default to a faster 128)."""
    raw = os.environ.get("SHARQFEC_PACKETS", "1024")
    try:
        packets = int(raw)
    except ValueError:
        raise ConfigError(
            f"SHARQFEC_PACKETS must be an integer packet count, got {raw!r}"
        ) from None
    if packets <= 0:
        raise ConfigError(f"SHARQFEC_PACKETS must be positive, got {packets}")
    return packets


@dataclass
class TrafficRunResult:
    """Everything a figure needs from one protocol run."""

    protocol: str
    monitor: TrafficMonitor
    topology: Figure10
    data_start: float
    data_end: float
    run_end: float
    completion: float
    nacks_sent: int
    events: int
    wall_seconds: float
    seed: int

    @property
    def receivers(self) -> List[int]:
        return self.topology.receivers

    @property
    def source(self) -> int:
        return self.topology.source

    def data_repair_series(self) -> List[float]:
        """Mean data+repair packets per 0.1 s interval over all receivers —
        the y-axis of Figures 14, 16, 17, 18."""
        return self.monitor.mean_series(
            DATA_REPAIR_KINDS, self.receivers, t_end=self.run_end
        )

    def nack_series(self) -> List[float]:
        """Mean NACKs per interval over all receivers (Figures 15, 19)."""
        return self.monitor.mean_series(["NACK"], self.receivers, t_end=self.run_end)

    def source_data_repair_series(self) -> List[float]:
        """Data+repair packets per interval seen at the source (Figure 20).

        "Seen by the source" covers both directions: what the source itself
        transmits into the core plus what it receives back — sender-only
        protocols put all repair load in the first term, scoped SHARQFEC in
        neither (repairs stay inside the zones).
        """
        return [
            float(v)
            for v in self.monitor.node_traffic_series(
                DATA_REPAIR_KINDS, self.source, t_end=self.run_end
            )
        ]

    def source_nack_series(self) -> List[float]:
        """NACKs per interval seen at the source (Figure 21)."""
        return [
            float(v)
            for v in self.monitor.series(["NACK"], self.source, t_end=self.run_end)
        ]

    def data_end_index(self) -> int:
        """Bin index of the stream's final data packet."""
        from repro.obs.binning import bin_index

        return bin_index(self.data_end, self.monitor.bin_width)


@collector_paused()
def run_traffic(
    protocol: str,
    n_packets: Optional[int] = None,
    seed: int = 1,
    drain: float = DEFAULT_DRAIN,
    fault_plan: Optional[FaultPlan] = None,
    check_invariants: bool = False,
    obs: Optional[ObservabilityOptions] = None,
) -> TrafficRunResult:
    """Run one protocol variant on the Figure 10 topology.

    Args:
        protocol: a name from :data:`VARIANTS`.
        n_packets: CBR stream length (defaults to :func:`default_packets`).
        seed: master RNG seed (identical seeds share loss patterns as far
            as transmission orders allow).
        drain: extra simulated seconds after the stream ends, letting the
            repair tail play out.
        fault_plan: optional :class:`~repro.faults.FaultPlan` armed against
            the run (chaos experiments); injected faults land in the trace
            stream alongside the protocol's packet events.
        check_invariants: assert eventual delivery for every receiver still
            connected to the source at run end (raises
            :class:`~repro.errors.InvariantViolation` on failure).
            Connectivity is physical; since multicast never reroutes, a
            plan that permanently severs a Figure 10 tree edge leaves its
            receivers mesh-connected but undeliverable — use healing plans
            here, or filter receivers yourself.
        obs: explicit export options; defaults to the ambient ones set by
            :func:`observe_runs`.

    Teardown (reporter stop, observer detach, export of whatever the run
    observed) happens even when the run raises — a failed invariant still
    leaves its partial metrics/trace on disk, marked with an ``error``
    field in the run summary.  A scenario that cannot be assembled (unknown
    variant, a fault plan naming an absent node) raises before anything has
    run, so there is nothing to export.  The whole call runs under
    :func:`~repro.scenario.collector_paused`; the collector is back as the
    caller left it on return and on every raise.
    """
    if obs is None:
        obs = _observability.get()
    observed = obs is not None and obs.active
    spec = RunSpec(
        protocol=protocol,
        n_packets=n_packets if n_packets is not None else default_packets(),
        seed=seed,
        drain=drain,
        fault_plan=fault_plan,
        capture_trace=observed and obs.trace_dir is not None,
    )
    wall_start = time.perf_counter()
    sim = Simulator(seed=seed)
    world = World(spec, sim, observe=observed)
    proto = world.protocol
    reporter: Optional[ProgressReporter] = None
    if observed and obs.progress_interval is not None:
        reporter = ProgressReporter(
            sim,
            interval=obs.progress_interval,
            stream=obs.progress_stream,
            monitor=world.monitor,
            label=f"{protocol} seed={seed}",
        ).start()
    error: Optional[str] = None
    try:
        sim.run(until=spec.run_end)
        proto.stop()
        if check_invariants:
            from repro.testing.invariants import (
                assert_eventual_delivery,
                connected_receivers,
            )

            survivors = connected_receivers(world.network, world.source, world.receivers)
            assert_eventual_delivery(
                proto, receivers=survivors, context=f"{protocol} seed={seed}"
            )
    except BaseException as exc:
        error = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        if reporter is not None:
            reporter.stop()
        completion = proto.completion_fraction()
        nacks = proto.total_nacks_sent()
        # Model events only: the reporter's own ticks fire on the same clock.
        events = sim.events_fired - (len(reporter.lines) if reporter is not None else 0)
        if world.observer is not None:
            world.observer.detach()
            record = run_record(
                spec,
                completion=completion,
                nacks_sent=nacks,
                events=events,
                drops=world.monitor.drops,
                receivers=world.receivers,
                source=world.source,
                error=error,
            )
            export_run(
                record,
                monitor=world.monitor,
                registry=world.observer.registry,
                trace=world.observer.trace_records,
                metrics_dir=obs.metrics_dir,
                trace_dir=obs.trace_dir,
            )
    return TrafficRunResult(
        protocol=protocol,
        monitor=world.monitor,
        topology=world.topology,
        data_start=spec.data_start,
        data_end=spec.data_end,
        run_end=spec.run_end,
        completion=completion,
        nacks_sent=nacks,
        events=events,
        wall_seconds=time.perf_counter() - wall_start,
        seed=seed,
    )
