"""The run observer: tracer-wired metrics and structured trace capture.

:class:`RunObserver` is the "attach one object and the run becomes
measurable" entry point.  It subscribes to the simulator's versioned
:class:`~repro.sim.trace.Tracer` — so its entire cost disappears when it is
not attached (protocol hot paths consult ``tracer.wants`` before building
any payload) — and turns the emitted records into:

* per-zone repair/NACK/injection counters for SHARQFEC and flat counters
  for the SRM baseline (``sharqfec.repair`` / ``sharqfec.nack`` /
  ``sharqfec.inject`` / ``srm.repair`` / ``srm.nack`` categories);
* per-kind fault counters (``fault.<kind>``) and routing-reconvergence
  counts from the fault injector and the network;
* optionally, a structured in-memory trace (``capture_trace=True``) whose
  records the JSONL exporter serializes verbatim.

Everything lands in a :class:`~repro.obs.registry.MetricsRegistry`; the
:mod:`repro.obs.export` module writes the registry plus an attached
:class:`~repro.net.monitor.TrafficMonitor` out as JSONL.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.obs.registry import Counter, MetricsRegistry, TimeHistogram
from repro.sim.trace import TraceRecord, Tracer

#: Forwarding-engine packet categories (exact tracer categories).
PKT_CATEGORIES: Tuple[str, ...] = (
    "pkt.send",
    "pkt.recv",
    "pkt.drop",
    "pkt.qdrop",
    "pkt.nodedrop",
    "pkt.stifled",
)

#: Agent-level protocol categories (emitted by repro.core / repro.srm).
PROTOCOL_CATEGORIES: Tuple[str, ...] = (
    "sharqfec.nack",
    "sharqfec.repair",
    "sharqfec.inject",
    "srm.nack",
    "srm.repair",
)

#: Network-level control categories.
NET_CATEGORIES: Tuple[str, ...] = ("net.reconverge",)

#: ZCR election-lifecycle categories (emitted by repro.core.zcr /
#: repro.core.election / repro.core.agent).
ZCR_CATEGORIES: Tuple[str, ...] = (
    "zcr.challenge",
    "zcr.suspect",
    "zcr.election",
    "zcr.takeover",
    "zcr.deposed",
    "zcr.reconcile",
    "zcr.failover",
)


def fault_categories() -> Tuple[str, ...]:
    """Every ``fault.<kind>`` category the injector can emit."""
    from repro.faults.plan import KINDS

    return tuple(f"fault.{kind}" for kind in sorted(KINDS))


def default_trace_categories() -> Tuple[str, ...]:
    """The full structured-trace category set (packets included)."""
    return (
        PKT_CATEGORIES
        + PROTOCOL_CATEGORIES
        + NET_CATEGORIES
        + ZCR_CATEGORIES
        + fault_categories()
    )


#: Packet attributes worth exporting, in output order.
_DETAIL_ATTRS = (
    "kind",
    "src",
    "group",
    "size_bytes",
    "seq",
    "group_id",
    "index",
    "zone_id",
    "llc",
    "n_needed",
)


def summarize_detail(detail: object) -> object:
    """Reduce a trace record's payload to a JSON-serializable summary.

    Packets and PDUs collapse to their identifying fields; dicts pass
    through untouched (agent emits already use plain dicts); anything else
    is stringified.
    """
    if detail is None or isinstance(detail, (str, int, float, bool)):
        return detail
    if isinstance(detail, dict):
        return detail
    summary = {}
    for attr in _DETAIL_ATTRS:
        value = getattr(detail, attr, None)
        if value is not None:
            summary[attr] = value
    return summary if summary else str(detail)


class RunObserver:
    """Attachable, detachable observability for one simulation run."""

    def __init__(
        self,
        sim,
        *,
        bin_width: float = 0.1,
        capture_trace: bool = False,
        global_events: bool = True,
    ) -> None:
        """
        Args:
            sim: the :class:`~repro.sim.scheduler.Simulator` to observe.
            bin_width: interval width for the per-interval NACK / repair
                histograms.
            capture_trace: keep every record of the
                :func:`default_trace_categories` in :attr:`trace_records`
                for export.
            global_events: observe run-global events (fault injections,
                routing reconvergence).  A zone-sharded run replicates the
                fault plan into every shard, so exactly one shard's
                observer keeps this True — otherwise the merged counters
                would multiply by the shard count.
        """
        self.sim = sim
        self.tracer: Tracer = sim.tracer
        self.registry = MetricsRegistry()
        self.bin_width = float(bin_width)
        self.capture_trace = capture_trace
        self.global_events = global_events
        #: Captured records; listeners hold its ``append``, so it is only
        #: ever extended in place.
        self.trace_records: List[TraceRecord] = []
        self._subscriptions: List[Tuple[str, Callable[[TraceRecord], None]]] = []
        self._attached = False
        # (category, zone) -> its two metrics, so that an event costs a dict
        # lookup rather than two sorted label tuples in the registry.
        self._protocol_handles: Dict[
            Tuple[str, int], Tuple[Counter, Union[Counter, TimeHistogram]]
        ] = {}

    # -------------------------------------------------------------- lifecycle

    def attach(self) -> "RunObserver":
        """Subscribe every listener; idempotent."""
        if self._attached:
            return self
        capture = self.trace_records.append if self.capture_trace else None
        for category in PROTOCOL_CATEGORIES:
            self._subscribe(category, self._on_protocol, capture)
        for category in ZCR_CATEGORIES:
            self._subscribe(category, self._on_zcr, capture)
        if self.global_events:
            for category in fault_categories():
                self._subscribe(category, self._on_fault, capture)
            self._subscribe("net.reconverge", self._on_reconverge, capture)
        if capture is not None:
            already = {category for category, _ in self._subscriptions}
            if not self.global_events:
                already.update(NET_CATEGORIES)
                already.update(fault_categories())
            for category in default_trace_categories():
                if category not in already:
                    self._subscribe(category, None, capture)
        self._attached = True
        return self

    def detach(self) -> None:
        """Remove every subscription (safe to call twice)."""
        for category, listener in self._subscriptions:
            try:
                self.tracer.unsubscribe(category, listener)
            except (KeyError, ValueError):  # pragma: no cover - defensive
                pass
        self._subscriptions.clear()
        self._attached = False

    def _subscribe(
        self,
        category: str,
        handler: Optional[Callable[[TraceRecord], None]],
        capture: Optional[Callable[[TraceRecord], None]],
    ) -> None:
        """Subscribe ``handler``, ``capture``, or both."""
        if handler is None:
            listener = capture
        elif capture is None:
            listener = handler
        else:
            def listener(record: TraceRecord) -> None:
                handler(record)
                capture(record)
        self.tracer.subscribe(category, listener)
        self._subscriptions.append((category, listener))

    # -------------------------------------------------------------- listeners

    def _on_protocol(self, record: TraceRecord) -> None:
        detail = record.detail if isinstance(record.detail, dict) else {}
        zone = detail.get("zone", -1)
        handles = self._protocol_handles.get((record.category, zone))
        if handles is None:
            protocol, _, event = record.category.partition(".")
            labels = {"protocol": protocol, "zone": zone}
            if event == "inject":
                handles = (
                    self.registry.counter("injections", **labels),
                    self.registry.counter("injected_packets", **labels),
                )
            else:
                family = "nacks_sent" if event == "nack" else "repairs_sent"
                handles = (
                    self.registry.counter(family, **labels),
                    self.registry.histogram(
                        f"{family}_per_interval", self.bin_width, **labels
                    ),
                )
            self._protocol_handles[record.category, zone] = handles
        events, second = handles
        events.inc()
        if type(second) is Counter:
            second.inc(int(detail.get("n", 1)))
        else:
            second.observe(record.time)

    def _on_zcr(self, record: TraceRecord) -> None:
        event = record.category.partition(".")[2]
        detail = record.detail if isinstance(record.detail, dict) else {}
        zone = detail.get("zone", -1)
        self.registry.counter("zcr_events", event=event, zone=zone).inc()
        if event == "failover":
            # Failover latency: suspicion of the old representative to
            # adoption of the new one, per observing member.  The gauges
            # keep the worst and total; merged shard snapshots *sum*
            # gauges, so cross-shard consumers should prefer the trace
            # records for exact per-event latencies.
            latency = float(detail.get("latency", 0.0))
            worst = self.registry.gauge("zcr_failover_latency_max")
            if latency > worst.value:
                worst.set(latency)
            self.registry.gauge("zcr_failover_latency_sum").add(latency)

    def _on_fault(self, record: TraceRecord) -> None:
        kind = record.category.partition(".")[2]
        self.registry.counter("faults", kind=kind).inc()

    def _on_reconverge(self, record: TraceRecord) -> None:
        self.registry.counter("reconvergences").inc()

    # ---------------------------------------------------------------- queries

    def _zone_totals(self, family: str) -> Dict[int, int]:
        """Per-zone totals of one SHARQFEC counter family.

        SRM events carry the flat-scope sentinel zone ``-1`` and are
        excluded: these queries answer "how much recovery stayed inside
        each zone", which only scoped protocols define.
        """
        out: Dict[int, int] = {}
        for labels, value in self.registry.counter_values(family).items():
            label_map = dict(labels)
            if label_map.get("protocol") != "sharqfec":
                continue
            zone = label_map.get("zone")
            if zone is None:
                continue
            out[zone] = out.get(zone, 0) + value
        return out

    def repairs_by_zone(self) -> Dict[int, int]:
        """Total repairs sent per zone (SHARQFEC agents)."""
        return self._zone_totals("repairs_sent")

    def nacks_by_zone(self) -> Dict[int, int]:
        """Total NACKs sent per zone (SHARQFEC agents)."""
        return self._zone_totals("nacks_sent")

    def fault_counts(self) -> Dict[str, int]:
        """Injected faults applied so far, per kind."""
        return {
            str(k): v
            for k, v in self.registry.labeled_totals("faults", "kind").items()
        }

    def zcr_event_counts(self) -> Dict[str, int]:
        """Election-lifecycle events per kind (challenge, suspect,
        election, takeover, deposed, reconcile, failover)."""
        return {
            str(k): v
            for k, v in self.registry.labeled_totals("zcr_events", "event").items()
        }

    def max_failover_latency(self) -> float:
        """Worst suspect-to-adoption latency observed (0.0 when none)."""
        return self.registry.gauge("zcr_failover_latency_max").value

    def __enter__(self) -> "RunObserver":
        return self.attach()

    def __exit__(self, *exc_info: object) -> None:
        self.detach()
