"""One scenario pipeline: spec -> world -> driver -> record.

Every run is the paper's §6.2 shape — a topology, a protocol variant,
sessions at t = 1 s, CBR data at t = 6 s, a drain.  This module owns the
two decisions all harnesses share: the order a world is assembled in
(:class:`World`) and what a finished run writes down (:func:`run_record`,
:func:`export_run`).  The drivers stay with their callers:
``experiments.common.run_traffic`` runs one world to ``spec.run_end``,
``repro.engine`` runs one world per logical shard in lookahead windows;
both run under :func:`collector_paused`, a bounded run's one
memory-management policy.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import os
import re
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.config import SharqfecConfig
from repro.core.protocol import SharqfecProtocol
from repro.errors import ConfigError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.net.monitor import TrafficMonitor
from repro.obs.export import build_manifest, export_metrics, export_trace
from repro.obs.recorder import RunObserver
from repro.obs.registry import MetricsRegistry
from repro.sim.scheduler import Simulator
from repro.srm.config import SrmConfig
from repro.srm.protocol import SrmProtocol
from repro.topology.figure10 import build_figure10
from repro.topology.national import NationalParams, build_national_network

#: Paper-style variant names a spec's ``protocol`` may carry.
VARIANTS = (
    "SRM",
    "SHARQFEC",
    "SHARQFEC(ns)",
    "SHARQFEC(ni)",
    "SHARQFEC(ns,ni)",
    "SHARQFEC(ns,ni,so)",
)

SESSION_START = 1.0
DATA_START = 6.0
#: Runs at the default drain with no fault plan keep the short legacy slug
#: (no parameter digest).
DEFAULT_DRAIN = 10.0


def variant_config(name: str, n_packets: int) -> SharqfecConfig:
    """Build the :class:`SharqfecConfig` for a paper-style variant name.

    Only the exact names in :data:`VARIANTS` are accepted: a run is keyed
    by its slug, so two spellings of one variant would share export files.
    """
    if name == "SRM" or name not in VARIANTS:
        raise ConfigError(f"unknown variant {name!r}; expected one of {VARIANTS[1:]}")
    flags = name[len("SHARQFEC"):].strip("()").split(",")
    return SharqfecConfig(
        n_packets=n_packets,
        scoping="ns" not in flags,
        injection="ni" not in flags,
        sender_only="so" in flags,
    )


def _plan_summary(fault_plan: Optional[FaultPlan]) -> Optional[Dict[str, object]]:
    if fault_plan is None:
        return None
    return {
        "name": fault_plan.name,
        "actions": [a.describe() for a in fault_plan.actions()],
    }


def run_slug(
    protocol: str,
    n_packets: int,
    seed: int,
    drain: float = DEFAULT_DRAIN,
    fault_plan: Optional[FaultPlan] = None,
) -> str:
    """Filesystem-safe basename for one run's export files.

    The default shape — drain 10 s, no fault plan — keeps the historical
    ``<proto>_p<N>_s<seed>`` name.  Any other run appends ``_h`` plus an
    8-hex-char digest of those parameters, so two runs differing only in,
    say, their fault plan can never overwrite each other's exports (the
    manifest's ``params`` decodes the digest).
    """
    slug = re.sub(r"[^a-z0-9]+", "_", protocol.lower()).strip("_")
    base = f"{slug}_p{n_packets}_s{seed}"
    if drain == DEFAULT_DRAIN and fault_plan is None:
        return base
    # "extra" is part of the digest's history; dropping the key would
    # rename every existing faulted or custom-drain export.
    payload = {"drain": drain, "fault_plan": _plan_summary(fault_plan), "extra": None}
    blob = json.dumps(payload, sort_keys=True, default=repr).encode()
    return f"{base}_h{hashlib.sha256(blob).hexdigest()[:8]}"


# ------------------------------------------------------------------ the spec


@dataclass(frozen=True)
class RunSpec:
    """A fully picklable description of one run (shard workers rebuild it all).

    ``topology_params`` is a tuple of ``(key, value)`` pairs passed to the
    topology builder (kept as a tuple so the spec hashes and pickles).
    """

    topology: str = "figure10"
    protocol: str = "SHARQFEC"
    n_packets: int = 64
    seed: int = 1
    session_start: float = SESSION_START
    data_start: float = DATA_START
    drain: float = DEFAULT_DRAIN
    bin_width: float = 0.1
    topology_params: Tuple[Tuple[str, object], ...] = ()
    fault_plan: Optional[FaultPlan] = None
    capture_trace: bool = False
    #: "packet" simulates every data packet hop by hop; "hybrid" swaps in
    #: the packet/flow fidelity protocol (see docs/HYBRID.md).
    fidelity: str = "packet"

    def validate(self) -> None:
        if self.topology not in ("figure10", "national"):
            raise ConfigError(f"unknown topology {self.topology!r}")
        if self.fidelity not in ("packet", "hybrid"):
            raise ConfigError(f"unknown fidelity {self.fidelity!r}")
        if self.fidelity == "hybrid" and self.protocol == "SRM":
            raise ConfigError("hybrid fidelity models SHARQFEC only, not SRM")

    def config(self) -> Union[SharqfecConfig, SrmConfig]:
        """The protocol configuration this spec's variant name stands for."""
        if self.protocol == "SRM":
            return SrmConfig(n_packets=self.n_packets)
        return variant_config(self.protocol, self.n_packets)

    @property
    def data_end(self) -> float:
        """When the CBR stream finishes."""
        return self.data_start + self.n_packets * self.config().inter_packet_interval

    @property
    def run_end(self) -> float:
        return self.data_end + self.drain

    @property
    def slug(self) -> str:
        """Basename of this run's export files."""
        return run_slug(
            self.protocol, self.n_packets, self.seed,
            drain=self.drain, fault_plan=self.fault_plan,
        )


# ----------------------------------------------------------------- the world


def build_topology(spec: RunSpec, sim: Simulator):
    """The spec's ``Figure10`` / ``NationalNetwork`` built on ``sim``; both
    carry ``network``, ``hierarchy``, ``source`` and ``receivers``."""
    spec.validate()
    params = dict(spec.topology_params)
    if spec.topology == "figure10":
        return build_figure10(sim, **params)
    max_nodes = int(params.pop("max_nodes", 200_000))
    return build_national_network(sim, NationalParams(**params), max_nodes=max_nodes)


class World:
    """One assembled run on one simulator: started, faults armed, not yet run.

    With ``shard`` (a :class:`~repro.engine.partition.LogicalShard`) this is
    one slice of a sharded run: packets for other shards' nodes go to
    ``on_boundary(arrival, node, packet)``, loss is drawn from the shard's
    own stream, real agents exist for the shard's nodes only, and only
    shard 0 observes run-global events (every shard replays the fault plan).
    ``observe=False`` attaches no :class:`RunObserver` (``self.observer`` is
    ``None`` and the forwarding path pays nothing).
    """

    def __init__(
        self,
        spec: RunSpec,
        sim: Simulator,
        shard=None,
        on_boundary: Optional[Callable[[float, int, object], None]] = None,
        observe: bool = True,
    ) -> None:
        self.topology = topo = build_topology(spec, sim)
        self.network = topo.network
        self.source: int = topo.source
        self.receivers: List[int] = topo.receivers
        if shard is not None:
            self.network.set_partition(shard.nodes, on_boundary, shard.loss_stream)
        self.monitor = TrafficMonitor(bin_width=spec.bin_width)
        self.network.add_observer(self.monitor)
        self.observer: Optional[RunObserver] = None
        if observe:
            self.observer = RunObserver(
                sim,
                bin_width=spec.bin_width,
                capture_trace=spec.capture_trace,
                global_events=shard is None or shard.index == 0,
            ).attach()
        config = spec.config()
        if spec.protocol == "SRM":
            if shard is not None:
                raise ConfigError("SRM has no sharded build (its session is one flat mesh)")
            self.protocol = SrmProtocol(self.network, config, self.source, self.receivers)
        else:
            protocol_cls = SharqfecProtocol
            if spec.fidelity == "hybrid":
                from repro.hybrid import HybridSharqfecProtocol

                protocol_cls = HybridSharqfecProtocol
            self.protocol = protocol_cls(
                self.network,
                config,
                self.source,
                self.receivers,
                topo.hierarchy,
                local_nodes=None if shard is None else shard.nodes,
            )
        self.protocol.start(spec.session_start, spec.data_start)
        if spec.fault_plan is not None:
            FaultInjector(self.network, spec.fault_plan, protocol=self.protocol).arm()


# ---------------------------------------------------------------- the driver


@contextlib.contextmanager
def collector_paused() -> Iterator[None]:
    """A bounded run's memory policy: collect once, then no cyclic passes.

    A run allocates millions of containers and frees every one of them by
    reference count: events, packets and trace records form no cycles
    (``repro.testing.cyclic_garbage_after`` pins that at 0, independent of
    stream length).  The cyclic collector cannot know; left on, it walks
    the whole live world each generation-2 pass and finds nothing.  The
    drivers therefore enter this around assemble -> run -> export.

    The collection on entry is what keeps memory flat: the previous run's
    world *is* cyclic (agents <-> timers <-> simulator) and, once dropped,
    would otherwise sit beside the new one for the whole pause.  A caller
    who already disabled the collector keeps every decision: nothing is
    collected, nothing re-enabled.  Use only around work of bounded
    lifetime.
    """
    if not gc.isenabled():
        yield
        return
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


# ---------------------------------------------------------------- the record


@dataclass
class RunRecord:
    """What a finished run writes down: the metrics file's ``run`` record
    and both files' manifest (bar its ``kind``; its ``run`` is the export
    basename)."""

    summary: Dict[str, object]
    manifest: Dict[str, object]


def run_record(
    spec: RunSpec,
    plan=None,
    *,
    completion: float,
    nacks_sent: int,
    events: int,
    drops: int,
    receivers: Sequence[int],
    source: int,
    error: Optional[str] = None,
) -> RunRecord:
    """One run's record from spec + totals (+ the shard plan of a windowed run).

    Nothing here may depend on the worker count or the wall clock: exports
    are byte-identical between the reference engine and any worker packing.
    """
    summary: Dict[str, object] = {
        "protocol": spec.protocol,
        "fidelity": spec.fidelity,
        "n_packets": spec.n_packets,
        "seed": spec.seed,
        "data_start": spec.data_start,
        "data_end": spec.data_end,
        "run_end": spec.run_end,
        "completion": completion,
        "nacks_sent": nacks_sent,
        "events": events,
        "drops": drops,
        "receivers": list(receivers),
        "source": source,
    }
    if error is not None:
        summary["error"] = error
    lookahead = None
    if plan is not None and math.isfinite(plan.lookahead):
        lookahead = plan.lookahead
    manifest = build_manifest(
        "",
        run=spec.slug,
        seed=spec.seed,
        topology=spec.topology,
        protocol=spec.protocol,
        config=spec.config(),
        bin_width=spec.bin_width,
        params={"drain": spec.drain, "fault_plan": _plan_summary(spec.fault_plan)},
        extra={
            "n_packets": spec.n_packets,
            "engine": "single" if plan is None else "sharded",
            "n_shards": 0 if plan is None else plan.n_shards,
            "shards": [] if plan is None else [shard.key for shard in plan.shards],
            "lookahead": lookahead,
            "sync_window": lookahead,
        },
    )
    return RunRecord(summary, manifest)


def export_run(
    record: RunRecord,
    *,
    monitor: TrafficMonitor,
    registry: MetricsRegistry,
    trace: Sequence[object] = (),
    metrics_dir: Optional[str] = None,
    trace_dir: Optional[str] = None,
) -> Tuple[Optional[str], Optional[str]]:
    """Write ``<slug>.metrics.jsonl`` / ``<slug>.trace.jsonl`` into the
    directories given; returns the two paths (``None`` where not written).

    ``trace`` holds one observer's :class:`~repro.sim.trace.TraceRecord`
    values or their dict form (what a merged sharded run carries after
    crossing process boundaries); both write the same lines.
    """
    slug = record.manifest["run"]
    metrics_path = trace_path = None
    if metrics_dir is not None:
        metrics_path = export_metrics(
            os.path.join(metrics_dir, f"{slug}.metrics.jsonl"),
            dict(record.manifest, kind="metrics"),
            monitor=monitor,
            registry=registry,
            run_summary=record.summary,
        )
    if trace_dir is not None:
        trace_path = export_trace(
            os.path.join(trace_dir, f"{slug}.trace.jsonl"),
            dict(record.manifest, kind="trace"),
            trace,
        )
    return metrics_path, trace_path
