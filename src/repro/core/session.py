"""Scoped session management (§5) and indirect RTT estimation (§5.1).

Each member exchanges session messages only within its *smallest* zone; a
Zone Closest Receiver additionally participates in its parent zone.  Every
member overhears ancestor-zone session channels but records only the
announcements of its own chain's ZCRs.  The result is the paper's reduced
state table: full detail nearby, one summarized representative per obscured
region.

Indirect estimation: a packet (e.g. a NACK) carries the sender's RTT to each
of its ancestral ZCRs; a hearer finds the largest-scope zone where one of
those ZCRs matches (or bridges to) one of its own, and sums the pieces —
``rtt(me → myZCR) + rtt(myZCR → theirZCR) + rtt(theirZCR → sender)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import (
    DEFAULT_DISTANCE, RTT_EWMA_KEEP, SESSION_ENTRY_SIZE, SESSION_FAST_COUNT,
    SESSION_FAST_INTERVAL, SESSION_HEADER_SIZE, SESSION_INTERVAL, SESSION_PEER_TIMEOUT,
)
from repro.core.pdus import RttChainEntry, SessionEntry, SessionPdu
from repro.core.rtt import RttTable
from repro.scoping.channels import ScopedChannels
from repro.scoping.zone import Zone
from repro.sim.timers import Timer
from repro.transport.api import Clock, Transport


class SessionManager:
    """Per-node session state: RTT tables, ZCR knowledge, session timers."""

    def __init__(
        self,
        node_id: int,
        clock: Clock,
        transport: Transport,
        channels: ScopedChannels,
        top_zcr: Optional[int] = None,
    ) -> None:
        self.node_id = node_id
        self.clock = clock
        self.transport = transport
        self.channels = channels
        self.chain: List[Zone] = channels.hierarchy.chain_for(node_id)
        self._zone_index: Dict[int, int] = {
            zone.zone_id: i for i, zone in enumerate(self.chain)
        }
        self.rtt = RttTable(node_id, RTT_EWMA_KEEP)
        # zone_id -> believed ZCR (None when unknown).  The root zone's ZCR
        # is statically the source ("top ZCR", §6.1).
        self.zcr_ids: Dict[int, Optional[int]] = {
            zone.zone_id: None for zone in self.chain
        }
        if top_zcr is not None:
            self.zcr_ids[self.chain[-1].zone_id] = top_zcr
        # zone_id -> RTT between that zone's ZCR and its parent zone's ZCR.
        self.zcr_parent_rtt: Dict[int, float] = {}
        # zone_id -> election epoch of the believed ZCR (monotone; a
        # takeover after a failure bumps it so stale gossip cannot
        # resurrect a dead representative).
        self.zcr_epoch: Dict[int, int] = {}
        self._timer = Timer(clock, self._on_session_timer, name=f"session@{node_id}")
        self._messages_sent = 0
        self._rng = None  # built on the first draw
        self.messages_received = 0
        # Invoked with a zone_id whenever gossip changes our ZCR belief for
        # that zone; the election machinery uses it to keep its timers and
        # distance measurements consistent.
        self.on_zcr_change = None  # type: ignore[assignment]
        # Invoked with a zone_id whenever a session message from that
        # zone's *believed ZCR* is heard — the liveness evidence the
        # failure detector (repro.core.election) feeds on.  Session PDUs
        # are loss-exempt, so silence on this hook means the believed
        # representative is dead, partitioned away, or never agreed it
        # holds the role; all three warrant an election.
        self.on_zcr_heard = None  # type: ignore[assignment]
        # Invoked with a zone_id whenever our ZCR belief for that zone
        # changes for *any* reason (gossip adoption or election machinery).
        # The endpoint hooks this for repair-duty handoff: a newly believed
        # representative must resume the dead predecessor's repair pump.
        # Kept separate from on_zcr_change, which the election owns.
        self.on_role_change = None  # type: ignore[assignment]
        # Optional () -> int returning the highest group whose data
        # transmission is known finished (-1 when unknown); advertised in
        # outgoing session messages as the stream extent.
        self.stream_extent_provider = None  # type: ignore[assignment]
        # Optional (group_id) -> None invoked when a peer advertises a
        # stream extent; receivers use it for tail-loss/churn resync.
        self.on_stream_extent = None  # type: ignore[assignment]

    # -------------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Begin the staggered session-message schedule."""
        self._timer.restart(self._next_interval())

    def stop(self) -> None:
        """Halt session messaging."""
        self._timer.cancel()

    def forget_zcrs(self) -> None:
        """Discard every learned ZCR belief (crash-restart path).

        A revived endpoint must re-learn each zone's representative from
        live gossip instead of resuming pre-crash beliefs — the zone may
        have re-elected while we were down, and acting on the stale view
        (answering NACKs as a deposed ZCR, injecting preemptive FEC) would
        duplicate the successor's work.  The root zone's ZCR is statically
        the source and survives; election epochs are kept as the monotone
        fence that stops our own stale state from resurrecting via gossip.
        """
        for zone in self.chain[:-1]:
            zid = zone.zone_id
            self.zcr_ids[zid] = None
            self.zcr_parent_rtt.pop(zid, None)

    def _next_interval(self) -> float:
        if self._messages_sent < SESSION_FAST_COUNT:
            lo, hi = SESSION_FAST_INTERVAL
        else:
            lo, hi = SESSION_INTERVAL
        rng = self._rng
        if rng is None:
            rng = self._rng = self.clock.rng.stream(f"session.{self.node_id}")
        return rng.uniform(lo, hi)

    def _on_session_timer(self) -> None:
        # Departed members age out of our echo lists (§5's entries carry
        # "time elapsed since the last session message" for this purpose).
        self.rtt.prune_stale(self.clock.now, SESSION_PEER_TIMEOUT)
        for zone in self.participation_zones():
            self._send_session_message(zone)
        self._messages_sent += 1
        self._timer.restart(self._next_interval())

    # ----------------------------------------------------------- participation

    def participation_zones(self) -> List[Zone]:
        """Zones in which this node exchanges (not just overhears) session
        traffic: its smallest zone, plus — for every zone it is the ZCR of —
        that zone itself and its parent ("the ZCR participates in RTT
        determination for that scope zone, and also the next-largest", §5)."""
        zones = [self.chain[0]]
        for i, zone in enumerate(self.chain[:-1]):
            if self.zcr_ids.get(zone.zone_id) == self.node_id:
                if zone not in zones:
                    zones.append(zone)
                parent = self.chain[i + 1]
                if parent not in zones:
                    zones.append(parent)
        return zones

    def is_zcr(self, zone_id: int) -> bool:
        """True if this node believes itself the ZCR of ``zone_id``."""
        return self.zcr_ids.get(zone_id) == self.node_id

    def zone_level_index(self, zone_id: int) -> Optional[int]:
        """Chain index of a zone (0 = smallest), or None if not ours."""
        return self._zone_index.get(zone_id)

    # ----------------------------------------------------------------- sending

    def _send_session_message(self, zone: Zone) -> None:
        now = self.clock.now
        entries = tuple(
            SessionEntry(peer, ts, now - recv_at, estimate)
            for peer, (ts, recv_at), estimate in self.rtt.echo_rows(zone.zone_id)
        )
        zcr = self.zcr_ids.get(zone.zone_id)
        extent = -1
        if self.stream_extent_provider is not None:
            extent = self.stream_extent_provider()
        pdu = SessionPdu(
            src=self.node_id,
            group=self.channels.session_group(zone.zone_id),
            size_bytes=SESSION_HEADER_SIZE + len(entries) * SESSION_ENTRY_SIZE,
            zone_id=zone.zone_id,
            timestamp=now,
            zcr_id=zcr if zcr is not None else -1,
            zcr_parent_rtt=self._advertised_parent_rtt(zone),
            entries=entries,
            zcr_epoch=self.zcr_epoch.get(zone.zone_id, 0),
            highest_group=extent,
        )
        self.transport.multicast(self.node_id, pdu)

    def _advertised_parent_rtt(self, zone: Zone) -> float:
        """RTT between ``zone``'s ZCR and the parent zone's ZCR, if known."""
        index = self._zone_index.get(zone.zone_id)
        if index is None or index >= len(self.chain) - 1:
            return -1.0  # root zone has no parent
        if self.is_zcr(zone.zone_id):
            parent_zcr = self.zcr_ids.get(self.chain[index + 1].zone_id)
            if parent_zcr is not None:
                direct = self.rtt.get(parent_zcr)
                if direct is not None:
                    return direct
        stored = self.zcr_parent_rtt.get(zone.zone_id)
        return stored if stored is not None else -1.0

    # ---------------------------------------------------------------- receiving

    def handle_session(self, pdu: SessionPdu) -> None:
        """Process a session message heard on any subscribed zone channel."""
        node_id = self.node_id
        src = pdu.src
        if src == node_id:
            return
        self.messages_received += 1
        if pdu.highest_group >= 0 and self.on_stream_extent is not None:
            self.on_stream_extent(pdu.highest_group)
        zone_id = pdu.zone_id
        index = self._zone_index.get(zone_id)
        if index is None:
            return  # not a zone of our chain: nothing below concerns it
        chain = self.chain
        zcr_ids = self.zcr_ids
        if src == zcr_ids.get(zone_id) and self.on_zcr_heard is not None:
            self.on_zcr_heard(zone_id)
        # The receive side of participation_zones(): our smallest zone
        # always, a (non-root) zone we are the ZCR of, and the parent of a
        # zone we are the ZCR of.
        if (
            index == 0
            or (index < len(chain) - 1 and zcr_ids.get(zone_id) == node_id)
            or zcr_ids.get(chain[index - 1].zone_id) == node_id
        ):
            now = self.clock.now
            rtt = self.rtt
            rtt.record_heard(zone_id, src, pdu.timestamp, now)
            entry = pdu.echo_index().get(node_id)
            if entry is not None:
                rtt.close_echo(src, entry.peer_timestamp, entry.elapsed, now)
        # Overhear our chain ZCRs' parent-zone announcements: that is the
        # only distant state the paper's receivers retain (§5.1, Fig 5).
        # The announcement zone must sit directly above the represented zone
        # in our chain, so the candidate chain position is unique.
        if index >= 1 and zcr_ids.get(chain[index - 1].zone_id) == src:
            for entry in pdu.entries:
                if entry.rtt_estimate >= 0:
                    self.rtt.set_zcr_peer_rtt(src, entry.peer_id, entry.rtt_estimate)
        # Zone metadata carried by any message on one of our chain zones.
        # The advertised parent distance belongs to the *advertised* ZCR, so
        # only fold it in when the beliefs agree — and adopt the peer's
        # belief when it names a strictly closer representative (this is how
        # divergent bootstrap views reconcile between challenge rounds).
        if pdu.zcr_id < 0:
            return
        parent_rtts = self.zcr_parent_rtt
        believed = zcr_ids.get(zone_id)
        before_rtt = parent_rtts.get(zone_id)
        our_epoch = self.zcr_epoch.get(zone_id, 0)
        advertised_rtt = pdu.zcr_parent_rtt
        if pdu.zcr_id == believed and pdu.zcr_epoch == our_epoch:
            # Same representative, same round — what nearly every message
            # says once a zone has settled.  Only the distance can move.
            if advertised_rtt >= 0 and advertised_rtt != before_rtt:
                parent_rtts[zone_id] = advertised_rtt
                if self.on_zcr_change is not None:
                    self.on_zcr_change(zone_id)
            return
        if believed is None or pdu.zcr_epoch > our_epoch:
            # Unknown, or the peer has seen a newer election round.
            zcr_ids[zone_id] = pdu.zcr_id
            self.zcr_epoch[zone_id] = pdu.zcr_epoch
            if advertised_rtt >= 0:
                parent_rtts[zone_id] = advertised_rtt
        elif pdu.zcr_epoch == our_epoch and advertised_rtt >= 0:
            # Same round, different winner beliefs: closer wins, node id
            # breaks exact ties.
            if before_rtt is None or advertised_rtt < before_rtt - 1e-9 or (
                abs(advertised_rtt - before_rtt) <= 1e-9 and pdu.zcr_id < believed
            ):
                zcr_ids[zone_id] = pdu.zcr_id
                parent_rtts[zone_id] = advertised_rtt
        after_zcr = zcr_ids.get(zone_id)
        if after_zcr != believed or parent_rtts.get(zone_id) != before_rtt:
            if self.on_zcr_change is not None:
                self.on_zcr_change(zone_id)
            if believed != after_zcr and self.on_role_change is not None:
                self.on_role_change(zone_id)

    # ------------------------------------------------------- distance queries

    def rtt_to_zcr(self, level_index: int) -> Optional[float]:
        """RTT estimate to our ancestral ZCR at chain ``level_index``.

        Composed by "adding the observed RTTs between successive
        generations" (§5): me → my smallest-zone ZCR, then ZCR-to-ZCR hops
        upward via the advertised parent distances.
        """
        if not 0 <= level_index < len(self.chain):
            return None
        zcr = self.zcr_ids.get(self.chain[level_index].zone_id)
        if zcr is None:
            return None
        if zcr == self.node_id:
            return 0.0
        if level_index == 0:
            return self.rtt.get(zcr)
        below = self.rtt_to_zcr(level_index - 1)
        if below == 0.0:
            # We are the child-level ZCR: we measure the parent ZCR directly.
            direct = self.rtt.get(zcr)
            if direct is not None:
                return direct
        step = self.zcr_parent_rtt.get(self.chain[level_index - 1].zone_id)
        if below is None or step is None:
            return self.rtt.get(zcr)  # last-resort direct estimate
        return below + step

    def build_rtt_chain(self) -> Tuple[RttChainEntry, ...]:
        """The ancestor-ZCR distance list a NACK carries (§5.1)."""
        entries = []
        for i, zone in enumerate(self.chain):
            zcr = self.zcr_ids.get(zone.zone_id)
            if zcr is None:
                continue
            rtt = self.rtt_to_zcr(i)
            if rtt is None:
                continue
            entries.append(RttChainEntry(zone.zone_id, zcr, rtt))
        return tuple(entries)

    def estimate_rtt_to(
        self,
        sender: int,
        rtt_chain: Sequence[RttChainEntry] = (),
    ) -> Optional[float]:
        """Estimate the RTT to an arbitrary sender.

        Prefers a direct table entry; otherwise matches the sender's
        advertised ancestor-ZCR chain against our own, smallest scope first,
        and sums the three legs (§5.1's receiver-13-to-receiver-8 example).
        """
        if sender == self.node_id:
            return 0.0
        direct = self.rtt.get(sender)
        if direct is not None:
            return direct
        for i in range(len(self.chain)):
            my_zcr = self.zcr_ids.get(self.chain[i].zone_id)
            if my_zcr is None:
                continue
            my_rtt = self.rtt_to_zcr(i)
            if my_rtt is None:
                continue
            for entry in rtt_chain:
                if entry.rtt_to_sender < 0:
                    continue
                if entry.zcr_id == my_zcr:
                    return my_rtt + entry.rtt_to_sender
                bridge = self.rtt.zcr_peer_rtt(my_zcr, entry.zcr_id)
                if bridge is None:
                    # The sibling ZCR may itself be directly known (it is a
                    # member of our shared parent zone when we are the ZCR).
                    if my_zcr == self.node_id:
                        bridge = self.rtt.get(entry.zcr_id)
                if bridge is not None:
                    return my_rtt + bridge + entry.rtt_to_sender
        return None

    def source_one_way(self, source_id: int) -> float:
        """One-way transit estimate to the source (``d_S,A`` in the timers).

        Falls back to the configured default before session state converges.
        """
        rtt = self.rtt.get(source_id)
        if rtt is None and self.zcr_ids.get(self.chain[-1].zone_id) == source_id:
            rtt = self.rtt_to_zcr(len(self.chain) - 1)
        if rtt is None:
            return DEFAULT_DISTANCE
        return rtt / 2.0

    def peer_one_way(
        self,
        peer: int,
        rtt_chain: Sequence[RttChainEntry] = (),
    ) -> float:
        """One-way transit estimate to a peer (``d_A,B``), with fallback."""
        rtt = self.estimate_rtt_to(peer, rtt_chain)
        if rtt is None:
            return DEFAULT_DISTANCE
        return rtt / 2.0

    def max_zone_rtt(self, zone_id: int) -> float:
        """Largest known RTT to a peer — the ZCR's 2.5×RTT wait bound (§4)."""
        farthest = self.rtt.max_estimate()
        if farthest is None:
            return 2.0 * DEFAULT_DISTANCE
        return farthest
