"""Analytic session-plane pre-convergence for the hybrid engine.

In a packet-fidelity run the session plane — periodic session messages,
ZCR challenges, elections — exists to *discover* state that is a pure
function of the (static) topology: who each zone's closest receiver is,
and what the RTTs along the ZCR chain are.  Profiling shows this
discovery traffic dominates a large steady-state run (at a 10k-receiver
national scale ~97% of all simulated events are session-plane
deliveries), yet in the absence of faults it converges to exactly the
values this module computes directly.

:func:`seed_converged_state` therefore replays where a converged
packet-mode session would end up — ZCR beliefs, chain RTTs, bridge
tables, authority sets — without firing a single session or election
event.  The hybrid protocol applies it at session start and leaves every
session/election timer *unstarted*; the first topology disturbance wakes
the real machinery (see ``HybridSharqfecProtocol._on_disturbance``),
which then adapts from the seeded beliefs exactly as it would from
learned ones.

What is seeded, per agent:

* ``session.zcr_ids`` — the converged ZCR of every chain zone, computed
  top-down with the election's own :func:`candidate_key` (closest member
  to the parent ZCR, distance quantized by the takeover margin, node id
  as tie-break), honoring ``static_zcrs``.
* ``session.zcr_parent_rtt`` — the measured chain-step RTTs
  (``2 × dist(zcr(z), zcr(parent(z)))``).
* ``session.rtt._estimates`` — the *minimal* converged estimate set:
  each member's RTT to its smallest-zone ZCR, plus — for ZCR incumbents
  and the sender — RTTs to the participants of their zone(s).  This is
  every estimate the steady-state NACK/repair path actually consults
  (``source_one_way`` walks the chain, ``estimate_rtt_to`` bridges via
  the peer tables below, ``max_zone_rtt`` scans an incumbent's set).
* ``session.rtt._zcr_peer_rtts`` — the bridge tables a receiver would
  build by overhearing its ZCR's parent-zone announcements.
* ``election.my_dist_to_parent`` and ``agent._authority_zones`` for
  incumbents, so takeovers and repair authority work from the first
  woken event.

Deliberately **not** seeded: ``rtt._heard`` — session echo closing
computes ``now − peer_sent_at − elapsed`` from real receive timestamps,
and fabricated anchors would corrupt the first post-wake RTT samples.
The heard-map simply starts empty, exactly like a freshly joined member.

Everything here is a pure function of topology + membership, so every
shard of a sharded run computes the identical plan — no cross-shard
traffic is needed to stay converged.
"""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, Iterable, Optional, Set

from repro.core.config import ZCR_TAKEOVER_MARGIN
from repro.core.election import candidate_key


def _targeted_dists(
    adjacency: Dict[int, Dict[int, float]], src: int, targets: Iterable[int]
) -> Dict[int, float]:
    """Dijkstra from ``src``, stopped once every target is finalized.

    The returned map may hold *tentative* (over-long) distances for
    non-target nodes touched near the frontier; callers must only query
    it at ``targets`` (every target present in the map is final).  For a
    suburb-zone ZCR this finalizes a few hundred nodes instead of the
    whole national graph — the difference between seeding in seconds and
    in minutes.
    """
    remaining = set(targets)
    remaining.discard(src)
    dist = {src: 0.0}
    done = set()
    heap = [(0.0, src)]
    pop = heapq.heappop
    push = heapq.heappush
    while heap and remaining:
        d, u = pop(heap)
        if u in done:
            continue
        done.add(u)
        remaining.discard(u)
        for v, w in adjacency.get(u, {}).items():
            if v in done:
                continue
            nd = d + w
            known = dist.get(v)
            if known is None or nd < known:
                dist[v] = nd
                push(heap, (nd, v))
    return dist


class SeedPlan:
    """The converged-state ingredients, before application to agents."""

    __slots__ = (
        "zcr_of",
        "dist_to_parent",
        "bridge",
        "member_zcr_rtt",
        "incumbent_est",
    )

    def __init__(self) -> None:
        #: zone_id -> converged ZCR node (None when the zone has no live member)
        self.zcr_of: Dict[int, Optional[int]] = {}
        #: zone_id -> one-way distance zcr(z) -> zcr(parent(z)) (non-root zones)
        self.dist_to_parent: Dict[int, float] = {}
        #: zone_id -> {participant of parent(z): RTT to zcr(z)} (bridge tables)
        self.bridge: Dict[int, Dict[int, float]] = {}
        #: member -> RTT to its smallest-zone ZCR
        self.member_zcr_rtt: Dict[int, float] = {}
        #: incumbent/sender node -> {participant: RTT} direct estimates
        self.incumbent_est: Dict[int, Dict[int, float]] = {}


def build_seed_plan(
    network,
    hierarchy,
    source_id: int,
    members: Set[int],
    static_zcrs: Optional[Dict[int, int]] = None,
    excluded: FrozenSet[int] = frozenset(),
) -> SeedPlan:
    """Compute the converged session state for a topology + membership.

    Costs one *targeted* Dijkstra per ZCR (≈ one per zone) instead of one
    per member: all needed distances are taken from the ZCR side, which
    is exact because link latencies are symmetric, and each search stops
    once it has finalized every node the plan will query it for — the
    zone's own members plus its parent zone's (the bridge-table targets).
    Distance maps live only while a zone's subtree is being processed, so
    peak memory is ``O(depth × fanout × nodes)`` rather than
    ``O(zones × nodes)``.
    """
    adjacency = network._converged_adjacency
    plan = SeedPlan()
    static = static_zcrs or {}
    quantum = ZCR_TAKEOVER_MARGIN
    smallest: Dict[int, Set[int]] = {}
    for m in members:
        smallest.setdefault(hierarchy.smallest_zone(m).zone_id, set()).add(m)

    def zone_members(zone) -> Set[int]:
        return zone.nodes & members

    def winner(zone, parent_dist: Dict[int, float]) -> Optional[int]:
        best_key = None
        best = None
        for m in sorted(zone.nodes & members):
            if m in excluded:
                continue
            key = candidate_key(parent_dist.get(m, -1.0), m, quantum)
            if best_key is None or key < best_key:
                best_key, best = key, m
        return best

    def process(zone, parent_dist, parent_zcr, parent_members) -> Optional[Dict[int, float]]:
        zid = zone.zone_id
        if zone.is_root:
            zcr: Optional[int] = source_id
        else:
            zcr = static.get(zid)
            if zcr is None or zcr in excluded:
                zcr = winner(zone, parent_dist)
        plan.zcr_of[zid] = zcr
        if zcr is None:
            # A zone with no live member elects nobody; its (equally
            # empty) child zones inherit the same outcome and the
            # bootstrap watchdog handles it after a wake.
            for child in hierarchy.children(zid):
                process(child, parent_dist, parent_zcr, parent_members)
            return None
        if zcr == parent_zcr:
            dist = parent_dist
        else:
            # The plan queries this map at the zone's members (winner
            # selection, parts, member RTTs) and at the parent zone's
            # participants (bridge tables) — a superset of both is the
            # parent's member set plus the parent ZCR.
            targets = set(parent_members if parent_members is not None else ())
            if not targets:
                targets = zone_members(zone)
            if parent_zcr is not None:
                targets.add(parent_zcr)
            dist = _targeted_dists(adjacency, zcr, targets)
        if not zone.is_root:
            d = parent_dist.get(zcr)
            if d is not None:
                plan.dist_to_parent[zid] = d
        child_maps = []
        my_members = zone_members(zone)
        for child in hierarchy.children(zid):
            child_maps.append((child, process(child, dist, zcr, my_members)))
        # Participants of this zone: members whose smallest zone it is,
        # the child-zone ZCRs (they announce into their parent), and the
        # incumbent itself for non-root zones.
        own = smallest.get(zid, set())
        parts = set(own)
        for child, _ in child_maps:
            czcr = plan.zcr_of[child.zone_id]
            if czcr is not None:
                parts.add(czcr)
        if not zone.is_root:
            parts.add(zcr)
        inc = plan.incumbent_est.setdefault(zcr, {})
        for q in parts:
            if q != zcr:
                d = dist.get(q)
                if d is not None:
                    inc[q] = 2.0 * d
        for m in own:
            if m != zcr:
                d = dist.get(m)
                if d is not None:
                    plan.member_zcr_rtt[m] = 2.0 * d
        # Child ZCRs participate here: their bridge table (what members
        # of the child zone would learn by overhearing their ZCR's
        # announcements in this zone) and their own direct estimates to
        # this zone's participants.
        for child, cmap in child_maps:
            czcr = plan.zcr_of[child.zone_id]
            if czcr is None or cmap is None:
                continue
            table: Dict[int, float] = {}
            cinc = plan.incumbent_est.setdefault(czcr, {})
            for q in parts:
                if q == czcr:
                    continue
                d = cmap.get(q)
                if d is None:
                    continue
                table[q] = 2.0 * d
                cinc[q] = 2.0 * d
            plan.bridge[child.zone_id] = table
        return dist

    process(hierarchy.root, None, None, members)
    # ``process`` recurses through its own closure cell, a cycle; emptying
    # the cell lets the function and what its cells hold (the per-zone
    # member sets) go by reference count, not wait for a cyclic collection.
    del process
    return plan


def apply_seed_plan(protocol, plan: SeedPlan) -> None:
    """Install a :class:`SeedPlan` into the protocol's local agents."""
    zcr_of = plan.zcr_of
    agents = {}
    if protocol.sender is not None:
        agents[protocol.source_id] = protocol.sender
    agents.update(protocol.receivers)
    for nid, agent in agents.items():
        if agent._stopped:
            continue
        session = agent.session
        rtt = session.rtt
        for zid in agent.zone_ids:
            zcr = zcr_of.get(zid)
            if zcr is not None:
                session.zcr_ids[zid] = zcr
        for zid in agent.zone_ids[:-1]:
            zcr = zcr_of.get(zid)
            if zcr is None:
                continue
            d = plan.dist_to_parent.get(zid)
            if d is not None:
                session.zcr_parent_rtt[zid] = 2.0 * d
            bridge = plan.bridge.get(zid)
            if bridge:
                rtt._zcr_peer_rtts[zcr] = dict(bridge)
        sample = plan.member_zcr_rtt.get(nid)
        if sample is not None:
            zcr = zcr_of.get(agent.zone_ids[0])
            if zcr is not None and zcr != nid:
                rtt._estimates[zcr] = sample
        inc = plan.incumbent_est.get(nid)
        if inc:
            for peer, peer_rtt in inc.items():
                if peer != nid:
                    rtt._estimates[peer] = peer_rtt
        for zid in agent.zone_ids[:-1]:
            if zcr_of.get(zid) == nid:
                agent._authority_zones.add(zid)
                d = plan.dist_to_parent.get(zid)
                if d is not None:
                    agent.election.my_dist_to_parent[zid] = d


def seed_converged_state(
    protocol, static_zcrs: Optional[Dict[int, int]] = None
) -> Dict[int, Optional[int]]:
    """Seed the protocol's agents with fully converged session state.

    Returns the zone→ZCR assignment for inspection.  Stopped *local*
    agents (deferred receivers) are excluded from candidacy; sharded
    specs reject churn, so in sharded runs the exclusion set is empty in
    every shard and the computed plan is shard-identical.
    """
    members = set(protocol.receiver_ids) | {protocol.source_id}
    agents: Dict[int, object] = dict(protocol.receivers)
    if protocol.sender is not None:
        agents[protocol.source_id] = protocol.sender
    excluded = frozenset(
        nid for nid, agent in agents.items() if agent._stopped
    )
    plan = build_seed_plan(
        protocol.network,
        protocol.hierarchy,
        protocol.source_id,
        members,
        static_zcrs,
        excluded,
    )
    apply_seed_plan(protocol, plan)
    return plan.zcr_of
