"""The Network: topology container + packet forwarding engine.

Multicast delivery is hop-by-hop along a cached source-rooted shortest-path
tree restricted to the group's scope.  Per-link Bernoulli loss is drawn as a
packet crosses each link, so one upstream loss deprives the entire subtree —
the loss-correlation structure the paper's analysis in §3.1 relies on.

Routing models IGP reconvergence: trees and tables are computed over the
last *converged* snapshot of the live adjacency.  A link/node state change
invalidates the caches immediately but the snapshot only catches up after
``reconvergence_delay`` — so a freshly downed branch blackholes for the
duration of the delay (as with a real IGP), then traffic reroutes around
(or prunes) the failed element until it heals and routing reconverges back.

A node's children in a compiled tree are ordered by when the member walk
in :func:`~repro.net.routing.best_effort_tree` first reaches them, i.e. by
the iteration order of a copy of the group's members set.  That order
decides which loss draw each link consumes and how same-time arrivals
break ties, so every compiled tree must reproduce it exactly.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import RoutingError, ScopeError, TopologyError
from repro.net.link import Link
from repro.net.multicast import MulticastGroup
from repro.net.node import DeliveryHandler, Node
from repro.net.packet import Packet
from repro.net.routing import RoutingTable, best_effort_tree, shortest_paths
from repro.sim.scheduler import Simulator

#: Default IGP reconvergence delay (seconds) after a link/node state change.
DEFAULT_RECONVERGENCE_DELAY = 0.5


class Network:
    """Nodes + links + multicast groups over a :class:`Simulator`."""

    def __init__(
        self,
        sim: Simulator,
        reconvergence_delay: float = DEFAULT_RECONVERGENCE_DELAY,
    ) -> None:
        self.sim = sim
        self.nodes: Dict[int, Node] = {}
        self._links: Dict[Tuple[int, int], Link] = {}
        self._adjacency: Dict[int, Dict[int, float]] = {}
        self.groups: Dict[int, MulticastGroup] = {}
        self._next_group_id = 1
        # Compiled delivery schedules: (group_id, src) -> (stamp, root record).
        # A record is (node_id, node, group, kids) with kids a tuple of
        # (link, child_record) pairs — the whole per-hop fan-out resolved
        # once per (tree, topology version) instead of per packet.
        self._sched_cache: Dict[Tuple[int, int], Tuple[int, tuple]] = {}
        self._routing_cache: Dict[int, RoutingTable] = {}
        self._topology_version = 0
        self._observers: List[object] = []
        # Per-method pre-resolved observer callbacks, rebuilt on attach/
        # detach so the forwarding fast path skips getattr dispatch.
        self._obs_send: tuple = ()
        self._obs_receive: tuple = ()
        self._obs_drop: tuple = ()
        # The simulator never replaces its queue, so the arrival scheduler
        # is bound once rather than looked up per hop.
        self._push_batch = sim.queue.push_batch
        self._loss_rng = sim.rng.stream("net.loss")
        self._loss_random = self._loss_rng.random
        # Memoized tracer interest flags, refreshed when the tracer's
        # subscription table version changes (see _refresh_trace_flags).
        self._trace_version = -1
        self._t_send = self._t_recv = self._t_drop = False
        self._t_qdrop = self._t_nodedrop = self._t_stifled = False
        # Optional deterministic loss oracle: callable(link, packet) -> bool
        # (True = drop).  When set it replaces the Bernoulli draws entirely;
        # conformance tests use it to script exact loss patterns.
        self.loss_oracle: Optional[Callable[[Link, Packet], bool]] = None
        #: Seconds between a link/node state change and routing catching up
        #: to it.
        self.reconvergence_delay = reconvergence_delay
        #: Count of reconvergence events that have fired (observability).
        self.reconvergences = 0
        # Routing computes over this snapshot of the live adjacency, not
        # over the raw topology; _reconverge() refreshes it.
        self._converged_adjacency: Dict[int, Dict[int, float]] = {}
        # Zone-sharded execution (repro.engine): when _owned is set, only
        # the owned nodes run protocol agents here, and forwarding onto a
        # child owned by another shard hands (arrival, child, packet) to
        # _boundary instead of scheduling the arrival locally.  None keeps
        # the monolithic single-engine behaviour.
        self._owned: Optional[frozenset] = None
        self._boundary: Optional[Callable[[float, int, Packet], None]] = None
        # Injection-side node->record index per (group_id, src), stamped
        # like the schedule cache; used by deliver_remote().
        self._index_cache: Dict[Tuple[int, int], Tuple[int, Dict[int, tuple]]] = {}
        # Per-group records shared by every source of a tree-shaped scope,
        # stamped like the schedule cache; None marks a scope that is not a
        # tree (see _shared_tree).
        self._zone_cache: Dict[int, Tuple[int, Optional[tuple]]] = {}
        self._in_batch = False
        #: Callbacks invoked (synchronously, in registration order) from
        #: :meth:`topology_changed` — i.e. on every runtime link/node state
        #: change, partition, or heal.  The hybrid fidelity engine hooks
        #: here to wake its suspended session plane; anything that needs to
        #: react to disturbances without polling can register too.  Note
        #: that :meth:`set_loss_model` deliberately does *not* fire these:
        #: loss-rate changes alter packet fates, not topology.
        self.on_disturbance: List[Callable[[], None]] = []

    def _drops(self, link: Link, packet: Packet) -> bool:
        model = link.loss_model
        if model is not None:
            # Advance the stateful loss process before any early return:
            # burst-state transitions are time-driven, so the loss schedule
            # is identical whether or not exempt session traffic (or a down
            # link's discarded packets) is interleaved with the data.
            model.advance_to(self.sim.now)
        if not link.up:
            # Physical faults trump the loss exemption: a dead link loses
            # control traffic just like data.
            return True
        if packet.loss_exempt:
            return False
        if self.loss_oracle is not None:
            return self.loss_oracle(link, packet)
        if model is not None:
            return model.drops(self.sim.now)
        return link.loss_rate > 0.0 and self._loss_random() < link.loss_rate

    def _refresh_trace_flags(self) -> None:
        """Memoize per-category tracer interest (cleared on version bump).

        The forwarding engine consults plain booleans per hop instead of
        paying an ``emit`` call that would early-return anyway — tracing
        is zero-cost when nobody subscribed.
        """
        tracer = self.sim.tracer
        self._trace_version = tracer.version
        wants = tracer.wants
        self._t_send = wants("pkt.send")
        self._t_recv = wants("pkt.recv")
        self._t_drop = wants("pkt.drop")
        self._t_qdrop = wants("pkt.qdrop")
        self._t_nodedrop = wants("pkt.nodedrop")
        self._t_stifled = wants("pkt.stifled")

    # ---------------------------------------------------------------- builders

    def add_node(self, name: Optional[str] = None, node_id: Optional[int] = None) -> Node:
        """Create a node.  Ids are assigned densely from 0 unless given."""
        if node_id is None:
            node_id = len(self.nodes)
            while node_id in self.nodes:
                node_id += 1
        if node_id in self.nodes:
            raise TopologyError(f"duplicate node id {node_id}")
        node = Node(node_id, name)
        self.nodes[node_id] = node
        self._adjacency[node_id] = {}
        self._structural_change()
        return node

    def add_link(
        self,
        a: int,
        b: int,
        bandwidth_bps: float,
        latency_s: float,
        loss_rate: float = 0.0,
        loss_rate_ba: Optional[float] = None,
        queue_limit: Optional[int] = None,
    ) -> Tuple[Link, Link]:
        """Add a duplex link; returns the (a→b, b→a) directed halves.

        ``loss_rate`` applies to both directions unless ``loss_rate_ba``
        overrides the reverse direction.  ``queue_limit`` bounds the
        drop-tail buffer (packets) in both directions.
        """
        for n in (a, b):
            if n not in self.nodes:
                raise TopologyError(f"unknown node {n}")
        if a == b:
            raise TopologyError(f"self-loop at node {a}")
        if (a, b) in self._links:
            raise TopologyError(f"duplicate link {a}<->{b}")
        fwd = Link(a, b, bandwidth_bps, latency_s, loss_rate, queue_limit)
        rev = Link(
            b, a, bandwidth_bps, latency_s,
            loss_rate if loss_rate_ba is None else loss_rate_ba, queue_limit,
        )
        self._links[(a, b)] = fwd
        self._links[(b, a)] = rev
        self._adjacency[a][b] = latency_s
        self._adjacency[b][a] = latency_s
        self._structural_change()
        return fwd, rev

    def link(self, src: int, dst: int) -> Link:
        """The directed link src→dst (TopologyError if absent)."""
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise TopologyError(f"no link {src}->{dst}") from None

    def links(self) -> Iterable[Link]:
        """All directed links."""
        return self._links.values()

    def set_link_loss(self, a: int, b: int, loss_rate: float, both: bool = True) -> None:
        """Adjust loss on a→b (and b→a when ``both``)."""
        self.link(a, b).loss_rate = loss_rate
        if both:
            self.link(b, a).loss_rate = loss_rate

    def set_link_up(self, a: int, b: int, up: bool, both: bool = True) -> None:
        """Fail or restore the link a→b (and b→a when ``both``).

        An actual state change schedules IGP reconvergence (see
        :meth:`topology_changed`): for ``reconvergence_delay`` seconds the
        stale routes keep blackholing into the dead link, then routing
        rebuilds against the live adjacency and traffic flows around it.
        """
        changed = False
        link = self.link(a, b)
        if link.up != bool(up):
            changed = True
        link.up = bool(up)
        if both:
            rev = self.link(b, a)
            if rev.up != bool(up):
                changed = True
            rev.up = bool(up)
        if changed:
            self.topology_changed()

    def set_node_up(self, node_id: int, up: bool) -> None:
        """Crash or restart a node (down nodes neither deliver nor forward).

        Like :meth:`set_link_up`, an actual state change schedules IGP
        reconvergence so routing eventually detours around (or back
        through) the node.
        """
        try:
            node = self.nodes[node_id]
        except KeyError:
            raise TopologyError(f"unknown node {node_id}") from None
        changed = node.up != bool(up)
        node.up = bool(up)
        if changed:
            self.topology_changed()

    def boundary_links(self, nodes: Iterable[int]) -> List["Link"]:
        """The directed links crossing the cut around ``nodes`` (exactly one
        endpoint inside the set), regardless of up/down state."""
        inside = frozenset(nodes)
        return [
            link
            for link in self._links.values()
            if (link.src in inside) != (link.dst in inside)
        ]

    def bisect(self, nodes: Iterable[int]) -> List[Tuple[int, int]]:
        """Partition ``nodes`` from the rest: fail every currently-up link
        crossing the cut and schedule IGP reconvergence.

        Returns the ``(src, dst)`` pairs actually downed, so the matching
        :meth:`heal_bisection` restores those and only those — links that
        were already down for an unrelated reason stay down across the
        partition's lifetime.
        """
        cut: List[Tuple[int, int]] = []
        for link in self.boundary_links(nodes):
            if link.up:
                link.fail()
                cut.append((link.src, link.dst))
        if cut:
            # link.fail() bypasses set_link_up, so kick reconvergence here.
            self.topology_changed()
        return cut

    def heal_bisection(
        self, nodes: Iterable[int], cut: Optional[List[Tuple[int, int]]] = None
    ) -> bool:
        """Undo a :meth:`bisect`: restore ``cut`` (or, when None, every down
        boundary link of the node set) and schedule reconvergence.  Returns
        whether any link state actually changed."""
        changed = False
        if cut is None:
            for link in self.boundary_links(nodes):
                if not link.up:
                    link.restore()
                    changed = True
        else:
            for src, dst in cut:
                link = self.link(src, dst)
                if not link.up:
                    link.restore()
                    changed = True
        if changed:
            self.topology_changed()
        return changed

    def set_loss_model(self, a: int, b: int, model: object, model_ba: object = None) -> None:
        """Install a stateful loss model on a→b (and optionally b→a).

        A model must expose ``advance_to(now)`` and ``drops(now)``; pass
        None to revert a direction to plain Bernoulli loss.  The two
        directions need *distinct* model instances (each owns RNG state).
        """
        self.link(a, b).loss_model = model
        if model_ba is not None:
            self.link(b, a).loss_model = model_ba

    def _invalidate(self) -> None:
        self._topology_version += 1
        self.drop_caches()

    def drop_caches(self) -> None:
        """Forget every compiled tree, delivery index and routing table.

        Each is rebuilt on demand by the next packet that needs it, as after
        a topology change; a finished run calls this so its trees go by
        reference count rather than wait for the cyclic collector.
        """
        self._sched_cache.clear()
        self._routing_cache.clear()
        self._index_cache.clear()
        self._zone_cache.clear()

    def _structural_change(self) -> None:
        # Builders (add_node/add_link) reshape the topology itself, which
        # is configuration rather than a runtime fault: the converged view
        # follows instantly, with no reconvergence delay.
        if self._in_batch:
            return
        self._converged_adjacency = self._live_adjacency()
        self._invalidate()

    @contextmanager
    def batch_build(self) -> Iterator["Network"]:
        """Defer converged-adjacency snapshots while bulk-building topology.

        Every ``add_node``/``add_link`` normally re-snapshots the live
        adjacency, which makes an n-node build O(n²).  Inside this context
        the snapshot is deferred and taken once on exit — required for the
        10k-node national builds the sharded engine targets.  Nesting is
        harmless (only the outermost exit snapshots).
        """
        if self._in_batch:
            yield self
            return
        self._in_batch = True
        try:
            yield self
        finally:
            self._in_batch = False
            self._structural_change()

    # ------------------------------------------------------------ partitioning

    def set_partition(
        self,
        owned: Iterable[int],
        boundary_handler: Callable[[float, int, Packet], None],
        loss_stream: str = "net.loss",
    ) -> None:
        """Restrict this engine instance to a shard of the topology.

        The full topology stays in place (multicast trees must be computed
        identically in every shard) but forwarding onto a node outside
        ``owned`` calls ``boundary_handler(arrival_time, node_id, packet)``
        instead of scheduling the arrival locally; the sharded engine
        ferries the packet to the owning shard, which resumes delivery via
        :meth:`deliver_remote`.  ``loss_stream`` renames the Bernoulli loss
        RNG stream so each shard draws from its own deterministic stream
        (the single global ``net.loss`` stream cannot be split).
        """
        owned = frozenset(owned)
        unknown = owned - set(self.nodes)
        if unknown:
            raise TopologyError(f"partition contains unknown nodes {sorted(unknown)[:5]}")
        self._owned = owned
        self._boundary = boundary_handler
        self._loss_rng = self.sim.rng.stream(loss_stream)
        self._loss_random = self._loss_rng.random
        self._invalidate()

    def _live_adjacency(self) -> Dict[int, Dict[int, float]]:
        """The adjacency restricted to up links between up nodes."""
        live: Dict[int, Dict[int, float]] = {}
        for u, neighbors in self._adjacency.items():
            row: Dict[int, float] = {}
            if self.nodes[u].up:
                for v, latency in neighbors.items():
                    if self.nodes[v].up and self._links[(u, v)].up:
                        row[v] = latency
            live[u] = row
        return live

    def topology_changed(self) -> None:
        """Note a runtime link/node state change and schedule reconvergence.

        Caches are invalidated immediately, but rebuilt routes still come
        from the *last converged* adjacency snapshot — traffic keeps
        blackholing into the failed element, as under a real IGP — until
        ``reconvergence_delay`` elapses and :meth:`_reconverge` snapshots
        the live adjacency.

        Called by :meth:`set_link_up` / :meth:`set_node_up`; fault tooling
        that fails links directly (e.g. the injector's partitions) must
        call it after mutating link state.
        """
        self._invalidate()
        for callback in tuple(self.on_disturbance):
            callback()
        self.sim.schedule(self.reconvergence_delay, self._reconverge)

    def _reconverge(self) -> None:
        self._converged_adjacency = self._live_adjacency()
        self._invalidate()
        self.reconvergences += 1
        self.sim.tracer.emit(
            self.sim.now,
            "net.reconverge",
            -1,
            f"routing reconverged (event {self.reconvergences})",
        )

    # ------------------------------------------------------------------ groups

    def create_group(self, name: str = "", scope: Optional[Set[int]] = None) -> MulticastGroup:
        """Allocate a multicast group, optionally scope-restricted."""
        if scope is not None:
            unknown = set(scope) - set(self.nodes)
            if unknown:
                raise ScopeError(f"scope contains unknown nodes {sorted(unknown)}")
        group = MulticastGroup(self._next_group_id, name, scope)
        self._next_group_id += 1
        self.groups[group.group_id] = group
        return group

    def subscribe(self, group_id: int, node_id: int, handler: DeliveryHandler) -> None:
        """Join a node to a group and register its delivery callback."""
        group = self._group(group_id)
        group.subscribe(node_id)
        self.nodes[node_id].add_handler(group_id, handler)

    def unsubscribe(self, group_id: int, node_id: int, handler: DeliveryHandler) -> None:
        """Leave a group and drop the callback."""
        group = self._group(group_id)
        group.unsubscribe(node_id)
        self.nodes[node_id].remove_handler(group_id, handler)

    def _group(self, group_id: int) -> MulticastGroup:
        try:
            return self.groups[group_id]
        except KeyError:
            raise ScopeError(f"unknown group {group_id}") from None

    # --------------------------------------------------------------- observers

    def add_observer(self, observer: object) -> None:
        """Attach a traffic observer.

        Each of ``on_send`` / ``on_receive`` / ``on_drop`` the observer
        defines is called as ``(time, node, kind, size_bytes)``.  Sends are
        first transmissions by the originator; receives are arrivals at a
        group subscriber only (routers merely forwarding are not reported);
        drops name the node the packet would have reached.
        """
        self._observers.append(observer)
        self._rebuild_observer_cache()

    def _rebuild_observer_cache(self) -> None:
        observers = self._observers
        self._obs_send = tuple(
            cb for cb in (getattr(o, "on_send", None) for o in observers) if cb
        )
        self._obs_receive = tuple(
            cb for cb in (getattr(o, "on_receive", None) for o in observers) if cb
        )
        self._obs_drop = tuple(
            cb for cb in (getattr(o, "on_drop", None) for o in observers) if cb
        )

    # --------------------------------------------------------------- multicast

    def multicast(self, src: int, packet: Packet) -> None:
        """Send ``packet`` from ``src`` to its group along the scoped tree.

        The sender *hears its own transmission* logically (SRM-style agents
        rely on hearing their own NACKs/repairs only in the sense of having
        sent them; we do not loop packets back to the sender).
        """
        group = self._group(packet.group)
        if not group.allows(src):
            raise ScopeError(
                f"node {src} cannot send on group {group.name!r}: outside scope"
            )
        if self.sim.tracer.version != self._trace_version:
            self._refresh_trace_flags()
        if not self.nodes[src].up:
            # A crashed host's transmissions die at the NIC.
            if self._t_stifled:
                self.sim.tracer.emit(self.sim.now, "pkt.stifled", src, packet)
            return
        record = self._schedule_for(src, group)
        for callback in self._obs_send:
            callback(self.sim.now, src, packet.kind, packet.size_bytes)
        if self._t_send:
            self.sim.tracer.emit(self.sim.now, "pkt.send", src, packet)
        self._forward_fast(record, packet)

    def _schedule_for(self, src: int, group: MulticastGroup) -> tuple:
        """Compiled per-hop delivery schedule for the (group, src) tree.

        Flattens the scoped shortest-path tree into linked records —
        ``(node_id, node, group, kids)`` with ``kids`` a tuple of
        ``(link, child_record)`` — so the per-packet inner loop touches no
        dicts at all: links, nodes and the group are resolved once per
        topology/membership version.  Liveness (node.up) and membership
        (group.subscribers) stay dynamic, so a fault or a leave takes
        effect on packets already in flight.

        When the scope is one tree, a source whose members set iterates in
        the group's canonical order takes its records from the set every
        such source shares (:meth:`_shared_tree`); any other source, and
        every other scope, is compiled from its own shortest-path tree.
        """
        key = (group.group_id, src)
        stamp = group.version + (self._topology_version << 32)
        cached = self._sched_cache.get(key)
        if cached is not None and cached[0] == stamp:
            return cached[1]
        members = set(group.subscribers)
        members.discard(src)
        shared = self._shared_tree(group, stamp)
        if (
            shared is not None
            and src in shared[0]
            and list(set(members)) == [m for m in shared[1] if m != src]
        ):
            record = self._tree_record(shared, group, None, src)
            self._sched_cache[key] = (stamp, record)
            return record
        allowed = group.scope
        try:
            children, unreachable = best_effort_tree(
                self._converged_adjacency, src, members, allowed
            )
        except RoutingError as exc:
            raise RoutingError(f"group {group.name!r}: {exc}") from exc
        if unreachable:
            # Distinguish configuration errors from transient faults: a
            # member with no path even over the *full* adjacency (every
            # link up) is mis-scoped or disconnected by construction and
            # that is still a hard error; a member severed only in the
            # converged view is a routing casualty and gets pruned until
            # the topology heals and routing reconverges.
            _, full_parent = shortest_paths(self._adjacency, src, allowed)
            hard = [m for m in unreachable if m not in full_parent]
            if hard:
                raise RoutingError(
                    f"group {group.name!r}: member {min(hard)} "
                    f"unreachable from {src}"
                )
        record = self._compile_record(src, group, children)
        self._sched_cache[key] = (stamp, record)
        return record

    def _shared_tree(self, group: MulticastGroup, stamp: int) -> Optional[tuple]:
        """``(toward, canonical, memo)`` when the group's scope is one tree.

        In a tree there is one path between two nodes, so every source's
        shortest-path tree is the same set of directed edges.
        ``canonical`` is one copy of the members set as a list, and a
        subscriber's rank is its index there.  ``toward[w]`` holds w's
        neighbours whose side of the edge holds a subscriber, sorted by the
        lowest rank on that side: for a source whose member walk follows
        ``canonical``, those are w's children in the order the walk first
        reaches them.  ``memo`` keeps each record built, keyed by (node
        entered from, node).  None when the scope's converged links are
        not one connected, acyclic, symmetric graph.
        """
        cached = self._zone_cache.get(group.group_id)
        if cached is not None and cached[0] == stamp:
            return cached[1]
        shared = None
        adjacency = self._converged_adjacency
        scope = self.nodes if group.scope is None else group.scope
        nbrs = {u: [v for v in adjacency[u] if v in scope] for u in scope}
        if sum(map(len, nbrs.values())) == 2 * (len(nbrs) - 1) and all(
            u in adjacency[v] for u in nbrs for v in nbrs[u]
        ):
            root = next(iter(nbrs))
            parent: Dict[int, Optional[int]] = {root: None}
            order = [root]
            for u in order:
                for v in nbrs[u]:
                    if v not in parent:
                        parent[v] = u
                        order.append(v)
            if len(order) == len(nbrs):
                canonical = list(set(set(group.subscribers)))
                none = len(canonical)
                rank = dict(zip(canonical, range(none)))
                # below[u]: the lowest rank in u's subtree under ``root``.
                below: Dict[int, int] = {}
                for u in reversed(order):
                    below[u] = min(
                        [rank.get(u, none)]
                        + [below[v] for v in nbrs[u] if v != parent[u]]
                    )
                # side[u][v]: the lowest rank on v's side of the edge u-v.
                # Rows fill in ``order``, so u's row holds its parent's side
                # by the time u is reached.  A child v's side towards u is u
                # itself plus u's other sides, whose lowest is the lower of
                # u's two lowest sides that is not v's own.
                side: Dict[int, Dict[int, int]] = {u: {} for u in order}
                for u in order:
                    row = side[u]
                    for v in nbrs[u]:
                        if v != parent[u]:
                            row[v] = below[v]
                    lows = sorted(row.values())[:2] + [none, none]
                    for v in nbrs[u]:
                        if v != parent[u]:
                            other = lows[1] if row[v] == lows[0] else lows[0]
                            side[v][u] = min(rank.get(u, none), other)
                toward = {
                    u: sorted((v for v in row if row[v] < none), key=row.__getitem__)
                    for u, row in side.items()
                }
                shared = (toward, canonical, {})
        self._zone_cache[group.group_id] = (stamp, shared)
        return shared

    def _tree_record(
        self, shared: tuple, group: MulticastGroup, via: Optional[int], node: int
    ) -> tuple:
        memo = shared[2]
        record = memo.get((via, node))
        if record is None:
            links = self._links
            record = (node, self.nodes[node], group, tuple(
                (links[(node, child)], self._tree_record(shared, group, node, child))
                for child in shared[0][node]
                if child != via
            ))
            memo[(via, node)] = record
        return record

    def _compile_record(
        self, node: int, group: MulticastGroup, children: Dict[int, List[int]]
    ) -> tuple:
        links = self._links
        kids = tuple(
            (links[(node, child)], self._compile_record(child, group, children))
            for child in children.get(node, ())
        )
        return (node, self.nodes[node], group, kids)

    def _forward_fast(self, record: tuple, packet: Packet) -> None:
        """Send ``packet`` on from ``record``'s node to each child.

        Loss, queueing and the shard hand-off are decided per link, here,
        in child order.  Survivors that arrive at the same instant share one
        heap entry (``EventQueue.push_batch``), pushed at the first of them,
        and :meth:`_arrive_fast` takes them one by one in child order, as
        one entry per child would.
        """
        kids = record[3]
        if not kids:
            return
        now = self.sim.now
        size = packet.size_bytes
        obs_drop = self._obs_drop
        push_batch = self._push_batch
        arrive = self._arrive_fast
        batches: Dict[float, list] = {}
        loss_random = self._loss_random
        exempt = packet.loss_exempt
        plain = self.loss_oracle is None
        owned = self._owned
        boundary = self._boundary
        for link, child_record in kids:
            # Inlined _drops() for the memoryless common case (no stateful
            # loss model, no oracle): same checks, same RNG consumption.
            if plain and link.loss_model is None:
                if link.up:
                    dropped = (
                        not exempt
                        and link.loss_rate > 0.0
                        and loss_random() < link.loss_rate
                    )
                else:
                    dropped = True
            else:
                dropped = self._drops(link, packet)
            if dropped:
                link.packets_dropped += 1
                for callback in obs_drop:
                    callback(now, child_record[0], packet.kind, size)
                if self._t_drop:
                    self.sim.tracer.emit(now, "pkt.drop", child_record[0], packet)
                continue
            if link.queue_limit is None:
                # Inlined link.transmit() for the unbounded-FIFO common
                # case: same accounting, no method call per hop.
                tx_time = link._ser_cache.get(size)
                if tx_time is None:
                    tx_time = link.serialization_delay(size)
                busy = link.busy_until
                tx_done = (now if now > busy else busy) + tx_time
                link.busy_until = tx_done
                link.packets_sent += 1
                link.bytes_sent += size
                arrival = tx_done + link.latency_s
            else:
                arrival = link.transmit(now, size)
                if arrival is None:  # drop-tail queue overflow
                    for callback in obs_drop:
                        callback(now, child_record[0], packet.kind, size)
                    if self._t_qdrop:
                        self.sim.tracer.emit(now, "pkt.qdrop", child_record[0], packet)
                    continue
            if owned is not None and child_record[0] not in owned:
                # The child lives in another shard: loss and serialization
                # were accounted sender-side above, so hand the survivor
                # off for remote injection at its arrival time.
                boundary(arrival, child_record[0], packet)
                continue
            batch = batches.get(arrival)
            if batch is None:
                batches[arrival] = batch = [child_record]
                push_batch(arrival, arrive, packet, batch)
            else:
                batch.append(child_record)

    def _arrive_fast(self, packet: Packet, record: tuple) -> None:
        node_id, node, group, kids = record
        sim = self.sim
        now = sim.now
        if sim.tracer.version != self._trace_version:
            self._refresh_trace_flags()
        if not node.up:
            # The packet reached a crashed node: neither delivered to local
            # handlers nor forwarded into the subtree below.
            for callback in self._obs_drop:
                callback(now, node_id, packet.kind, packet.size_bytes)
            if self._t_nodedrop:
                sim.tracer.emit(now, "pkt.nodedrop", node_id, packet)
            return
        if node_id in group.subscribers:
            for callback in self._obs_receive:
                callback(now, node_id, packet.kind, packet.size_bytes)
            if self._t_recv:
                sim.tracer.emit(now, "pkt.recv", node_id, packet)
            # Inlined node.deliver(): the handler tuples are copy-on-write,
            # so iterating the snapshot directly is re-entrancy safe.
            handlers = node._handlers.get(packet.group)
            if handlers:
                for handler in handlers:
                    handler(packet)
        if kids:
            self._forward_fast(record, packet)

    # ------------------------------------------------------- remote injection

    def deliver_remote(self, packet: Packet, node: int) -> None:
        """Resume delivery of a cross-shard multicast packet at ``node``.

        Called by the sharded engine at the packet's arrival time — i.e.
        the instant the boundary handler reported — on the shard that owns
        ``node``.  Delivery and onward forwarding then proceed exactly as
        if the upstream hop had scheduled the arrival locally.  The tree is
        looked up from ``(packet.src, packet.group)``: every multicast in
        the protocol stack sends with ``src == packet.src``, so the pair
        identifies the (group, source) delivery schedule.
        """
        if node not in self.nodes:
            raise TopologyError(f"unknown node {node}")
        if self.sim.tracer.version != self._trace_version:
            self._refresh_trace_flags()
        group = self._group(packet.group)
        self._arrive_fast(packet, self._injection_record(packet.src, group, node))

    def _injection_record(self, src: int, group: MulticastGroup, node: int) -> tuple:
        """Compiled record for ``node`` within the (group, src) schedule.

        Indexes the compiled tree once per (tree, topology version) so
        per-packet injection is a dict lookup.  If routing reconverged
        while the packet was in flight and the new tree no longer reaches
        ``node``, a leaf record is synthesized: the packet is delivered to
        the node's handlers but forwarded nowhere — both engines take this
        same code path, so the outcome is deterministic.
        """
        key = (group.group_id, src)
        stamp = group.version + (self._topology_version << 32)
        cached = self._index_cache.get(key)
        if cached is None or cached[0] != stamp:
            index: Dict[int, tuple] = {}
            stack = [self._schedule_for(src, group)]
            while stack:
                record = stack.pop()
                index[record[0]] = record
                for _link, child_record in record[3]:
                    stack.append(child_record)
            cached = (stamp, index)
            self._index_cache[key] = cached
        record = cached[1].get(node)
        if record is None:
            record = (node, self.nodes[node], group, ())
        return record

    # ------------------------------------------------------------------- query

    def routing_table(self, source: int) -> RoutingTable:
        """Cached shortest-path routing table rooted at ``source``.

        Computed over the last *converged* adjacency, so for up to
        ``reconvergence_delay`` after a fault it still routes into the
        failed element.
        """
        table = self._routing_cache.get(source)
        if table is None:
            table = RoutingTable(self._converged_adjacency, source)
            self._routing_cache[source] = table
        return table

    def one_way_delay(self, a: int, b: int) -> float:
        """Shortest-path propagation latency a→b (ignores serialization)."""
        return self.routing_table(a).distance_to(b)

    def true_rtt(self, a: int, b: int) -> float:
        """Ground-truth RTT between two nodes (2 × one-way latency).

        Used to score SHARQFEC's indirect RTT estimates (Figures 11–13).
        """
        return 2.0 * self.one_way_delay(a, b)

    def adjacency(self) -> Dict[int, Dict[int, float]]:
        """Latency-weighted adjacency map (a copy; safe to mutate)."""
        return {u: dict(vs) for u, vs in self._adjacency.items()}

    def path_loss(self, src: int, dst: int) -> float:
        """Compounded loss probability along the shortest path src→dst.

        ``1 - Π(1 - loss_link)`` over the path's links — the paper's §3.1
        "Total Loss" formula.  A down link, a crashed node on the path, or
        an unroutable destination all count as total loss (1.0); a link
        carrying a stateful loss model contributes the model's stationary
        rate rather than the dormant Bernoulli ``loss_rate``.
        """
        try:
            path = self.routing_table(src).path_to(dst)
        except RoutingError:
            return 1.0
        p_ok = 1.0
        for u, v in zip(path, path[1:]):
            if not self.nodes[v].up:
                return 1.0
            link = self._links[(u, v)]
            if not link.up:
                return 1.0
            rate = link.loss_rate
            model = link.loss_model
            if model is not None:
                stationary = getattr(model, "stationary_loss_rate", None)
                if stationary is not None:
                    rate = stationary
            p_ok *= 1.0 - rate
        return 1.0 - p_ok
