"""Per-shard execution and result merging for the sharded engine.

A :class:`LogicalShardRunner` is one logical shard's complete world: its
own :class:`~repro.sim.scheduler.Simulator`, a full copy of the topology
(every shard must compute identical multicast trees), a protocol slice
with real agents only for owned nodes, its own traffic monitor and run
observer.  The runner is driven window-by-window by the engine and never
touches another shard except through picklable
:class:`~repro.engine.sync.CrossShardMessage` values — which is exactly
why the same code runs in-process (the reference engine) and in worker
processes (the multiprocessing engine) with byte-identical results.

Everything a shard reports back crosses a process boundary, so
:class:`ShardResult` is plain data: traffic records, a metrics-registry
snapshot, serialized trace dicts and scalar totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.engine.partition import LogicalShard, ShardPlan, plan_shards
from repro.engine.sync import CrossShardMessage, message_sort_key
from repro.errors import EngineError
from repro.faults.plan import CHURN_KINDS
from repro.net.monitor import TrafficMonitor
from repro.obs.export import trace_record_to_dict
from repro.obs.registry import MetricsRegistry
from repro.scenario import RunRecord, RunSpec, World, build_topology, run_record
from repro.sim.scheduler import Simulator


def plan_for_spec(spec: RunSpec) -> ShardPlan:
    """The spec's shard decomposition (built on a scratch simulator).

    Also where the windowed drivers refuse what only they cannot run:
    every shard replicates the whole tree membership, so receiver churn
    (which mutates it) has no sharded meaning.
    """
    if spec.fault_plan is not None:
        churn = sorted(
            {a.kind for a in spec.fault_plan.actions() if a.kind in CHURN_KINDS}
        )
        if churn:
            raise EngineError(
                f"fault plan contains churn actions {churn}; receiver churn "
                "mutates tree membership and is not supported by the sharded "
                "engine (run_traffic's single simulator accepts it)"
            )
    topo = build_topology(spec, Simulator(seed=spec.seed))
    return plan_shards(topo.hierarchy, topo.network.adjacency())


@dataclass
class ShardResult:
    """Everything one shard reports at run end (plain picklable data)."""

    index: int
    key: str
    #: The session source (replicated) and the receivers this shard owns.
    source: int
    receivers: List[int]
    groups_complete: int
    nacks: int
    events: int
    recv: List[Tuple[str, int, Dict[int, int], int, int]] = field(default_factory=list)
    send: List[Tuple[str, int, Dict[int, int]]] = field(default_factory=list)
    drop: List[Tuple[str, int, Dict[int, int], int, int]] = field(default_factory=list)
    registry: List[Dict[str, object]] = field(default_factory=list)
    trace: List[Dict[str, object]] = field(default_factory=list)


class LogicalShardRunner:
    """One logical shard's simulator, protocol slice and observers."""

    def __init__(self, spec: RunSpec, plan: ShardPlan, shard: LogicalShard) -> None:
        self.spec = spec
        self.plan = plan
        self.shard = shard
        self.outbox: List[CrossShardMessage] = []
        self._seq = 0
        self.sim = Simulator(seed=spec.seed)
        self.world = World(spec, self.sim, shard=shard, on_boundary=self._on_boundary)

    # ------------------------------------------------------------- windowing

    def _on_boundary(self, arrival: float, node: int, packet: object) -> None:
        self.outbox.append(
            CrossShardMessage(
                arrival, self.shard.index, self._seq, node, self.plan.owner[node], packet
            )
        )
        self._seq += 1

    def inject(self, messages: List[CrossShardMessage]) -> None:
        """Schedule exchanged packets for delivery at their arrival times.

        Sorted canonically so injection order — and therefore event
        tie-break sequencing — is independent of worker count.  ``call_at``
        raises if an arrival lies in the shard's past, which would mean
        the lookahead window was unsafe.
        """
        call_at = self.sim.call_at
        deliver = self.world.network.deliver_remote
        for message in sorted(messages, key=message_sort_key):
            call_at(message.arrival, deliver, message.packet, message.node)

    def run_until(self, t: float) -> None:
        self.sim.run(until=t)

    def drain_outbox(self) -> List[CrossShardMessage]:
        out = self.outbox
        self.outbox = []
        return out

    # --------------------------------------------------------------- results

    def finish(self) -> ShardResult:
        protocol = self.world.protocol
        monitor = self.world.monitor
        observer = self.world.observer
        protocol.stop()
        observer.detach()
        result = ShardResult(
            index=self.shard.index,
            key=self.shard.key,
            source=protocol.source_id,
            receivers=sorted(protocol.receivers),
            groups_complete=sum(
                r.groups_complete() for r in protocol.receivers.values()
            ),
            nacks=protocol.total_nacks_sent(),
            events=self.sim.events_fired,
            recv=[
                (kind, node, bins, packets, nbytes)
                for (kind, node), (bins, packets, nbytes) in monitor.receive_records()
            ],
            send=[
                (kind, node, bins)
                for (kind, node), bins in monitor.send_records()
            ],
            drop=[
                (kind, node, bins, packets, nbytes)
                for (kind, node), (bins, packets, nbytes) in monitor.drop_records()
            ],
            registry=observer.registry.snapshot(),
            trace=[trace_record_to_dict(r) for r in observer.trace_records],
        )
        self.world.network.drop_caches()
        return result


@dataclass
class MergedRun:
    """A complete run's merged, engine-agnostic output."""

    spec: RunSpec
    plan: ShardPlan
    monitor: TrafficMonitor
    registry: MetricsRegistry
    trace: List[Dict[str, object]]
    completion: float
    nacks: int
    events: int
    source: int
    receivers: List[int]
    #: 0 for the in-process reference engine, else the worker-process count.
    workers: int = 0
    wall_seconds: float = 0.0

    @property
    def n_receivers(self) -> int:
        return len(self.receivers)

    @property
    def drops(self) -> int:
        return self.monitor.drops

    def record(self) -> RunRecord:
        """This run's summary and shard-annotated manifest."""
        return run_record(
            self.spec,
            self.plan,
            completion=self.completion,
            nacks_sent=self.nacks,
            events=self.events,
            drops=self.drops,
            receivers=self.receivers,
            source=self.source,
        )


def merge_results(
    spec: RunSpec, plan: ShardPlan, results: List[ShardResult]
) -> MergedRun:
    """Fold per-shard results in canonical shard order.

    Every ingredient is either owned by exactly one shard (traffic series
    per node, agent counters) or recorded by only the primary shard
    (faults, reconvergence), and the folds are additive — so the merged
    output is a pure function of the logical-shard results, independent
    of how shards were packed onto workers.
    """
    if sorted(r.index for r in results) != list(range(plan.n_shards)):
        raise EngineError("merge requires exactly one result per logical shard")
    monitor = TrafficMonitor(bin_width=spec.bin_width)
    registry = MetricsRegistry()
    keyed: List[Tuple[float, int, int, Dict[str, object]]] = []
    groups_complete = 0
    receivers: List[int] = []
    nacks = 0
    events = 0
    for result in sorted(results, key=lambda r: r.index):
        for kind, node, bins, packets, nbytes in result.recv:
            monitor.load_record("recv", kind, node, bins, packets, nbytes)
        for kind, node, bins in result.send:
            monitor.load_record("send", kind, node, bins)
        for kind, node, bins, packets, nbytes in result.drop:
            monitor.load_record("drop", kind, node, bins, packets, nbytes)
        registry.merge(result.registry)
        keyed.extend(
            (record["t"], result.index, i, record)
            for i, record in enumerate(result.trace)
        )
        groups_complete += result.groups_complete
        receivers.extend(result.receivers)
        nacks += result.nacks
        events += result.events
    keyed.sort(key=lambda item: (item[0], item[1], item[2]))
    total = len(receivers) * spec.config().n_groups
    return MergedRun(
        spec=spec,
        plan=plan,
        monitor=monitor,
        registry=registry,
        trace=[record for _, _, _, record in keyed],
        completion=(groups_complete / total) if total else 1.0,
        nacks=nacks,
        events=events,
        source=results[0].source,
        receivers=sorted(receivers),
    )
