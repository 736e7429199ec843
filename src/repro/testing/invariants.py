"""Reusable protocol-invariant checkers.

The test suite, the chaos harness (:mod:`repro.faults`) and the experiment
drivers all need to assert the same handful of end-to-end properties:

* **eventual delivery** — every receiver that remains connected to the
  source reconstructs every group (the protocol's core guarantee);
* **no duplicate delivery** — the network never hands a receiver the same
  original data packet twice;
* **repair containment** — traffic on a zone's scoped channels is only ever
  seen at that zone's members (the paper's localization claim, checked
  observationally rather than trusted structurally);
* **bounded recovery** — after the last fault heals and routing reconverges,
  every surviving receiver completes within a stated allowance
  (:func:`assert_recovery_within` + :func:`heal_deadline`);
* **single representative** — at quiescence every non-root zone's live
  members agree on one live ZCR (no split brain survives a heal);
* **no duplicate injection** — across a partition heal, no (zone, group)
  repair extent is preemptively injected twice
  (:func:`assert_no_duplicate_injection`);
* **bounded failover** — every ZCR failover completes within a stated
  suspect-to-adoption latency (:func:`assert_failover_within`);
* **determinism** — a (topology, plan, seed) triple replays to a
  byte-identical trace;
* **no cyclic garbage** — a run strands nothing for the cyclic collector
  (:func:`cyclic_garbage_after`), which is what lets the drivers pause it.

All checkers raise :class:`~repro.errors.InvariantViolation` (an
``AssertionError`` subclass) with a diagnostic message, so they slot into
pytest and into ad-hoc experiment scripts alike.
"""

from __future__ import annotations

import gc
from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

from repro.errors import InvariantViolation
from repro.net.network import Network
from repro.net.packet import Packet
from repro.scenario import collector_paused
from repro.sim.trace import TraceRecord

#: Packet kinds that constitute repair traffic for containment accounting.
REPAIR_KINDS = frozenset({"FEC", "REPAIR"})


# ------------------------------------------------------------------ delivery


def incomplete_receivers(protocol, receivers: Optional[Iterable[int]] = None) -> List[int]:
    """Receiver ids (restricted to ``receivers`` if given) still incomplete.

    Duck-typed over :class:`~repro.core.protocol.SharqfecProtocol` and
    :class:`~repro.srm.protocol.SrmProtocol`: SHARQFEC agents answer
    ``all_complete(n_groups)``, SRM agents ``all_received()``.
    """
    wanted = set(protocol.receivers) if receivers is None else set(receivers)
    missing: List[int] = []
    for rid in sorted(wanted):
        agent = protocol.receivers.get(rid)
        if agent is None:
            raise InvariantViolation(f"node {rid} is not a receiver of this session")
        if hasattr(agent, "all_complete"):
            done = agent.all_complete(protocol.config.n_groups)
        else:
            done = agent.all_received()
        if not done:
            missing.append(rid)
    return missing


def assert_eventual_delivery(
    protocol,
    receivers: Optional[Iterable[int]] = None,
    context: str = "",
) -> None:
    """Every (surviving) receiver fully reconstructed the stream.

    Args:
        protocol: a SHARQFEC or SRM protocol session after its run.
        receivers: restrict the check to these receiver ids — pass the
            still-connected subset when a fault plan permanently severs
            part of the topology.
        context: extra text prefixed to the failure message (seeds, plan
            descriptions, ...).
    """
    missing = incomplete_receivers(protocol, receivers)
    if missing:
        prefix = f"{context}: " if context else ""
        raise InvariantViolation(
            f"{prefix}eventual delivery violated — receivers {missing} "
            f"did not reconstruct the full stream "
            f"(completion={protocol.completion_fraction():.3f})"
        )


def assert_no_duplicate_delivery(protocol, context: str = "") -> None:
    """No receiver was handed the same original data packet twice.

    SHARQFEC's source emits each data identity exactly once on the data
    channel (repairs travel as FEC), so a receiver's count of handled DATA
    packets must equal its count of *distinct* data identities — any excess
    means the network layer duplicated a delivery.  Only meaningful for
    SHARQFEC sessions (SRM repairs legitimately retransmit data).
    """
    for rid in sorted(protocol.receivers):
        agent = protocol.receivers[rid]
        if not hasattr(agent, "groups"):
            raise InvariantViolation(
                "duplicate-delivery check requires SHARQFEC receivers "
                f"(receiver {rid} has no group state)"
            )
        distinct = sum(g.data_count for g in agent.groups.values())
        handled = agent.data_received
        if handled != distinct:
            prefix = f"{context}: " if context else ""
            raise InvariantViolation(
                f"{prefix}duplicate delivery at receiver {rid}: handled "
                f"{handled} DATA packets but only {distinct} distinct identities"
            )


def heal_deadline(network: Network, plan, bound: float) -> float:
    """Latest acceptable completion time after a fault plan heals.

    ``plan.last_time`` is when the final fault action fires (by convention
    the healing step); the network then needs one reconvergence delay
    before routing follows the restored topology, and ``bound`` is the
    protocol-recovery allowance granted on top of that.
    """
    return plan.last_time + network.reconvergence_delay + bound


def assert_recovery_within(
    protocol,
    deadline: float,
    receivers: Optional[Iterable[int]] = None,
    context: str = "",
) -> None:
    """Post-heal reconvergence invariant: every (surviving) receiver both
    completed the stream *and* did so no later than ``deadline``.

    For SHARQFEC receivers the completion instant is the max
    ``GroupState.completed_at`` across groups.  SRM agents record no
    completion timestamps, so for them the check degrades to completion
    alone (the run's ``sim.run(until=...)`` horizon bounds the time).
    """
    wanted = sorted(set(protocol.receivers) if receivers is None else set(receivers))
    prefix = f"{context}: " if context else ""
    incomplete = incomplete_receivers(protocol, wanted)
    if incomplete:
        raise InvariantViolation(
            f"{prefix}recovery violated — receivers {incomplete} never "
            f"completed (deadline was t={deadline:g})"
        )
    late: List[str] = []
    for rid in wanted:
        agent = protocol.receivers[rid]
        if not hasattr(agent, "groups"):
            continue  # SRM: no per-packet completion clock
        finished = max(
            (g.completed_at for g in agent.groups.values() if g.completed_at is not None),
            default=0.0,
        )
        if finished > deadline:
            late.append(f"{rid} (t={finished:.3f})")
    if late:
        raise InvariantViolation(
            f"{prefix}recovery violated — receivers completed after the "
            f"t={deadline:g} deadline: {', '.join(late)}"
        )


# -------------------------------------------------------------- connectivity


def connected_receivers(
    network: Network, source: int, receiver_ids: Iterable[int]
) -> Set[int]:
    """Receivers currently reachable from ``source`` over up links/nodes.

    Breadth-first search honoring directed link state and node crash state —
    the "surviving receiver" set for :func:`assert_eventual_delivery` under
    a fault plan that never heals.

    Caveat: this is *instantaneous physical* connectivity.  Multicast
    forwarding follows source-rooted trees computed against the last
    *converged* topology snapshot, and only reroutes one reconvergence
    delay after a change (see ``Network.reconvergence_delay``).  A receiver
    "connected" here may therefore still be blackholed if the routing has
    not yet reconverged — pair the eventual-delivery invariant with a run
    horizon that extends past the last fault plus the reconvergence delay
    (see :func:`heal_deadline`).
    """
    wanted = set(receiver_ids)
    if source not in network.nodes or not network.nodes[source].up:
        return set()
    seen = {source}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        for link in network.links():
            if link.src != node or not link.up:
                continue
            dst = link.dst
            if dst in seen or not network.nodes[dst].up:
                continue
            seen.add(dst)
            frontier.append(dst)
    return wanted & seen


# ---------------------------------------------------------------- containment


class RepairContainment:
    """Observational check that scoped traffic stays inside its zone.

    Subscribes to the ``pkt.send`` / ``pkt.recv`` trace categories and, for
    every packet addressed to a zone's repair or session channel, verifies
    the sending/receiving node is a member of that zone.  Also tallies
    repair-kind receptions per node, which differential tests use to show
    SRM floods where SHARQFEC localizes.

    Use as a context manager around ``sim.run``::

        with RepairContainment.for_protocol(proto) as containment:
            sim.run(until=40.0)
        containment.assert_contained()
    """

    def __init__(self, network: Network, allowed: Dict[int, tuple]) -> None:
        self.network = network
        # group_id -> (zone name, frozenset of member node ids)
        self._allowed = allowed
        self.violations: List[str] = []
        #: node id -> count of FEC/REPAIR packets received there.
        self.repair_seen: Dict[int, int] = {}

    @classmethod
    def for_protocol(cls, protocol) -> "RepairContainment":
        """Build the group→zone map from a SHARQFEC session's channel plan."""
        allowed: Dict[int, tuple] = {}
        hierarchy = protocol.hierarchy
        channels = protocol.channels
        for zone in hierarchy.zones():
            zc = channels.for_zone(zone.zone_id)
            members = frozenset(zone.nodes)
            allowed[zc.repair_group_id] = (zone.name, members)
            allowed[zc.session_group_id] = (zone.name, members)
        root = hierarchy.root
        allowed[channels.data_group_id] = (root.name, frozenset(root.nodes))
        return cls(protocol.network, allowed)

    # ------------------------------------------------------------- listeners

    def _check(self, record: TraceRecord, verb: str) -> None:
        packet = record.detail
        if not isinstance(packet, Packet):
            return
        if verb == "recv" and packet.kind in REPAIR_KINDS:
            self.repair_seen[record.node] = self.repair_seen.get(record.node, 0) + 1
        entry = self._allowed.get(packet.group)
        if entry is None:
            return
        zone_name, members = entry
        if record.node not in members:
            self.violations.append(
                f"t={record.time:.6f}: node {record.node} {verb} "
                f"{packet.describe()} on zone {zone_name!r} channel "
                f"(members {sorted(members)})"
            )

    def _on_send(self, record: TraceRecord) -> None:
        self._check(record, "send")

    def _on_recv(self, record: TraceRecord) -> None:
        self._check(record, "recv")

    # -------------------------------------------------------------- lifecycle

    def attach(self) -> "RepairContainment":
        tracer = self.network.sim.tracer
        tracer.subscribe("pkt.send", self._on_send)
        tracer.subscribe("pkt.recv", self._on_recv)
        return self

    def detach(self) -> None:
        tracer = self.network.sim.tracer
        tracer.unsubscribe("pkt.send", self._on_send)
        tracer.unsubscribe("pkt.recv", self._on_recv)

    def __enter__(self) -> "RepairContainment":
        return self.attach()

    def __exit__(self, *exc_info) -> None:
        self.detach()

    # ----------------------------------------------------------------- checks

    def assert_contained(self, context: str = "") -> None:
        """Raise unless every scoped packet stayed inside its zone."""
        if self.violations:
            prefix = f"{context}: " if context else ""
            shown = "\n  ".join(self.violations[:10])
            raise InvariantViolation(
                f"{prefix}repair containment violated "
                f"({len(self.violations)} occurrences):\n  {shown}"
            )

    def repairs_at(self, nodes: Iterable[int]) -> int:
        """Total FEC/REPAIR receptions across ``nodes``."""
        return sum(self.repair_seen.get(n, 0) for n in nodes)


# ------------------------------------------------------------- ZCR elections


def zcr_views(protocol, zone) -> Dict[int, Optional[int]]:
    """Each live agent-member's believed ZCR of ``zone`` (skips routers and
    crashed/departed agents — they hold no live belief to agree on)."""
    agents = dict(protocol.receivers)
    sender = getattr(protocol, "sender", None)
    if sender is not None:
        agents.setdefault(sender.node_id, sender)
    views: Dict[int, Optional[int]] = {}
    for node_id in sorted(zone.nodes):
        agent = agents.get(node_id)
        if agent is None or agent._stopped or not agent._joined:
            continue
        if agent.session.zone_level_index(zone.zone_id) is None:
            continue
        views[node_id] = agent.session.zcr_ids.get(zone.zone_id)
    return views


def assert_single_zcr_per_zone(protocol, context: str = "") -> Dict[int, int]:
    """Quiescence invariant: every non-root zone's live members agree on
    one live representative.  Returns ``{zone_id: zcr}`` for the checked
    zones.  Zones with fewer than two live agent-members are skipped (a
    lone survivor trivially "agrees" and may legitimately still be
    electing itself).
    """
    prefix = f"{context}: " if context else ""
    elected: Dict[int, int] = {}
    for zone in protocol.hierarchy.zones():
        if zone.zone_id == protocol.hierarchy.root.zone_id:
            continue
        views = zcr_views(protocol, zone)
        if len(views) < 2:
            continue
        distinct = set(views.values())
        if len(distinct) != 1:
            raise InvariantViolation(
                f"{prefix}split brain in zone {zone.name!r}: members "
                f"disagree on the representative — {views}"
            )
        (zcr,) = distinct
        if zcr is None:
            raise InvariantViolation(
                f"{prefix}zone {zone.name!r} has no representative at "
                f"quiescence (members {sorted(views)})"
            )
        if zcr not in views:
            raise InvariantViolation(
                f"{prefix}zone {zone.name!r} members believe in {zcr}, "
                f"which is not a live member of the zone ({views})"
            )
        elected[zone.zone_id] = zcr
    return elected


def duplicate_injections(
    records: Sequence[TraceRecord], after: float = 0.0
) -> List[str]:
    """Duplicate preemptive-injection violations in a trace.

    A node emits ``sharqfec.inject`` for a ``(zone, group)`` pair at most
    once (at its completion of the group), so per pair the legitimate
    histories are: one injector ever, or — during a partition — one
    injector per side, all strictly before the heal at ``after``.  Any
    injection at ``t >= after`` by a node that was not already that pair's
    injector (or a second distinct post-heal injector) means the merged
    zone re-repaired an extent the other side had already covered.
    """
    events: Dict[tuple, List[tuple]] = {}
    for record in records:
        if record.category != "sharqfec.inject":
            continue
        detail = record.detail if isinstance(record.detail, dict) else {}
        key = (detail.get("zone"), detail.get("group"))
        events.setdefault(key, []).append((record.time, record.node))
    violations: List[str] = []
    for key in sorted(events, key=repr):
        timeline = sorted(events[key])
        post = [(t, n) for t, n in timeline if t >= after]
        if not post:
            continue
        pre_nodes = {n for t, n in timeline if t < after}
        post_nodes = {n for _, n in post}
        if len(post_nodes) > 1 or (pre_nodes and not post_nodes <= pre_nodes):
            violations.append(
                f"zone={key[0]} group={key[1]}: injectors "
                f"{sorted(pre_nodes)} before t={after:g}, "
                f"{sorted(post_nodes)} after — duplicate injection across the heal"
            )
    return violations


def assert_no_duplicate_injection(
    records: Sequence[TraceRecord], after: float = 0.0, context: str = ""
) -> None:
    """Raise unless no ``(zone, group)`` was re-injected across the heal."""
    violations = duplicate_injections(records, after)
    if violations:
        prefix = f"{context}: " if context else ""
        shown = "\n  ".join(violations[:10])
        raise InvariantViolation(
            f"{prefix}duplicate injections ({len(violations)} pairs):\n  {shown}"
        )


def failover_latencies(records: Sequence[TraceRecord]) -> List[float]:
    """Suspect-to-adoption latencies from ``zcr.failover`` trace records."""
    out: List[float] = []
    for record in records:
        if record.category != "zcr.failover":
            continue
        detail = record.detail if isinstance(record.detail, dict) else {}
        out.append(float(detail.get("latency", 0.0)))
    return out


def assert_failover_within(
    records: Sequence[TraceRecord],
    bound: float,
    require: int = 0,
    context: str = "",
) -> List[float]:
    """Bounded-failover invariant: every observed failover completed within
    ``bound`` seconds of suspicion, and at least ``require`` were observed.
    Returns the latencies."""
    prefix = f"{context}: " if context else ""
    latencies = failover_latencies(records)
    if len(latencies) < require:
        raise InvariantViolation(
            f"{prefix}expected >= {require} failover events, saw {len(latencies)}"
        )
    slow = [lat for lat in latencies if lat > bound]
    if slow:
        raise InvariantViolation(
            f"{prefix}failover latency bound {bound:g}s exceeded: "
            f"{sorted(slow, reverse=True)[:5]}"
        )
    return latencies


# --------------------------------------------------------------- determinism


def _render_detail(detail: object) -> str:
    if detail is None:
        return ""
    if isinstance(detail, Packet):
        # Packet.describe() excludes the process-global uid on purpose:
        # uids differ across runs and would break byte-identity.
        return detail.describe()
    if isinstance(detail, dict):
        return "{" + ", ".join(f"{k}={detail[k]!r}" for k in sorted(detail)) + "}"
    if isinstance(detail, str):
        return detail
    return repr(detail)


class TraceRecorder:
    """Captures every trace record and renders a canonical transcript.

    The rendering is exact (``repr`` floats, uid-free packet descriptions),
    so two runs of the same seeded scenario must produce byte-identical
    strings — the determinism invariant.
    """

    def __init__(self, sim, categories: Optional[Sequence[str]] = None) -> None:
        self.sim = sim
        self.records: List[TraceRecord] = []
        self._categories = list(categories) if categories is not None else None

    def _on_record(self, record: TraceRecord) -> None:
        if self._categories is not None and not any(
            record.category.startswith(c) for c in self._categories
        ):
            return
        self.records.append(record)

    def attach(self) -> "TraceRecorder":
        self.sim.tracer.subscribe(None, self._on_record)
        return self

    def detach(self) -> None:
        self.sim.tracer.unsubscribe(None, self._on_record)

    def __enter__(self) -> "TraceRecorder":
        return self.attach()

    def __exit__(self, *exc_info) -> None:
        self.detach()

    def render(self) -> str:
        """One line per record: ``time|category|node|detail`` (exact)."""
        return "\n".join(
            f"{r.time!r}|{r.category}|{r.node}|{_render_detail(r.detail)}"
            for r in self.records
        )

    def count(self, category_prefix: str) -> int:
        """Number of captured records whose category has the given prefix."""
        return sum(1 for r in self.records if r.category.startswith(category_prefix))


def assert_replay_identical(
    build_and_run: Callable[[], str], runs: int = 2, context: str = ""
) -> str:
    """Run a scenario ``runs`` times; all transcripts must be byte-identical.

    Args:
        build_and_run: constructs a *fresh* simulator/network/protocol,
            runs it, and returns the canonical transcript (typically
            :meth:`TraceRecorder.render`).

    Returns:
        The common transcript.
    """
    transcripts = [build_and_run() for _ in range(runs)]
    first = transcripts[0]
    for i, other in enumerate(transcripts[1:], start=2):
        if other != first:
            diff_at = next(
                (j for j, (x, y) in enumerate(zip(first, other)) if x != y),
                min(len(first), len(other)),
            )
            prefix = f"{context}: " if context else ""
            raise InvariantViolation(
                f"{prefix}determinism violated: run 1 and run {i} transcripts "
                f"diverge at byte {diff_at}:\n"
                f"  run 1: ...{first[max(0, diff_at - 60) : diff_at + 60]!r}\n"
                f"  run {i}: ...{other[max(0, diff_at - 60) : diff_at + 60]!r}"
            )
    return first


# ------------------------------------------------------------ cyclic garbage


def cyclic_garbage_after(run: Callable[[], object]) -> int:
    """Objects only the cyclic collector could free right after ``run()``.

    Starts from a collected heap, runs with the collector paused, keeps
    ``run``'s return value referenced and counts what a full collection
    then finds unreachable.  A live world is full of cycles and none of
    them is garbage; this counts what the run *stranded*.  The drivers'
    :func:`~repro.scenario.collector_paused` rests on it being 0 whatever
    the stream length.
    """
    with collector_paused():
        gc.collect()  # a caller with the collector off gets a clean start too
        result = run()
        found = gc.collect()
    del result  # held until here so that nothing it references was counted
    return found
