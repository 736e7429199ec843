"""Shared endpoint machinery for SHARQFEC senders and receivers.

Everything both roles need lives here: channel subscription, session/ZCR
integration, per-group state, the speculative repair queues, reply timers
with the paper's spacing behaviour, ZCR preemptive injection, and the EWMA
ZLC sampling that drives it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.config import (
    C1, C2, DEFAULT_DISTANCE, MAX_IDENTITY, PACKET_SIZE, ZCR_PDU_SIZE,
    ZLC_MEASURE_RTT_MULTIPLE, SharqfecConfig,
)
from repro.core.injection import EwmaPredictor
from repro.core.pdus import (
    FecPdu,
    NackPdu,
    SessionPdu,
    ZcrChallengePdu,
    ZcrElectPdu,
    ZcrReconcilePdu,
    ZcrResponsePdu,
    ZcrTakeoverPdu,
)
from repro.core.session import SessionManager
from repro.core.state import GroupState
from repro.core.suppression import reply_delay
from repro.core.zcr import ZcrElection
from repro.net.packet import Packet
from repro.scoping.channels import ScopedChannels
from repro.sim.timers import Timer
from repro.transport.api import Clock, Transport


class SharqfecEndpoint:
    """Base class for :class:`SharqfecSender` and :class:`SharqfecReceiver`."""

    is_source = False

    def __init__(
        self,
        node_id: int,
        clock: Clock,
        transport: Transport,
        channels: ScopedChannels,
        config: SharqfecConfig,
        source_id: int,
    ) -> None:
        self.node_id = node_id
        self.clock = clock
        self.transport = transport
        self.channels = channels
        self.config = config
        self.source_id = source_id
        self.session = SessionManager(
            node_id, clock, transport, channels, top_zcr=source_id
        )
        self.election = ZcrElection(self.session)
        # The election owns on_zcr_change; repair-duty handoff and stream
        # extent gossip ride their own session hooks so election dynamics
        # stay untouched.
        self.session.on_role_change = self._on_role_change
        self.session.stream_extent_provider = self._stream_extent
        self.session.on_stream_extent = self._on_stream_extent
        self.chain = self.session.chain
        self.zone_ids: List[int] = [z.zone_id for z in self.chain]
        self._zone_pos: Dict[int, int] = {zid: i for i, zid in enumerate(self.zone_ids)}
        self.groups: Dict[int, GroupState] = {}
        self._reply_timers: Dict[Tuple[int, int], Timer] = {}
        self._predictors: Dict[int, EwmaPredictor] = {}
        self._zlc_sampled: Set[Tuple[int, int]] = set()
        self._last_nack_dist: Dict[Tuple[int, int], float] = {}
        self._reply_rng = None  # built on the first draw
        self._joined = False
        self._stopped = False
        # Session-channel dispatch by exact PDU type (the hot path; none of
        # these PDU classes is subclassed).
        self._session_dispatch: Dict[type, Callable] = {
            SessionPdu: self.session.handle_session,
            ZcrChallengePdu: self.election.handle_challenge,
            ZcrResponsePdu: self.election.handle_response,
            ZcrTakeoverPdu: self.election.handle_takeover,
            ZcrElectPdu: self.election.handle_elect,
            ZcrReconcilePdu: self._handle_reconcile,
        }
        # Zones we currently pump repairs for as the believed ZCR; when the
        # role is lost (deposed after a partition heals), the pump stops
        # and the outstanding queues are handed to the successor.
        self._authority_zones: Set[int] = set()
        # Per-zone accounting for run reports.
        self.repairs_by_zone: Dict[int, int] = {}
        self.nacks_by_zone: Dict[int, int] = {}
        # Rule from §4: if the source is a member of a receiver's smallest
        # zone, NACKs start at the largest scope; sender-only repairs also
        # force requests to the scope the sender hears.
        in_smallest = source_id in self.chain[0].nodes and node_id != source_id
        if config.sender_only or in_smallest:
            self._nack_start_index = len(self.zone_ids) - 1
        else:
            self._nack_start_index = 0

    # -------------------------------------------------------------- lifecycle

    def join(self) -> None:
        """Subscribe to the data channel and every chain zone's channels."""
        if self._joined:
            return
        self.channels.join_member(
            self.node_id, self._on_data_channel, self._on_repair_channel, self._on_session_channel
        )
        self._joined = True

    def start_session(self) -> None:
        """Begin session messaging and ZCR election."""
        self.join()
        # Statically assigned roles (§5.2's "static ZCR") never pass
        # through the role-change hook, so record the authority here —
        # otherwise a later deposition could not detect the handoff.
        for zid in self.zone_ids[:-1]:
            if self.session.is_zcr(zid):
                self._authority_zones.add(zid)
        self.session.start()
        self.election.start()

    def stop(self) -> None:
        """Silence the endpoint: cancel every timer and ignore all input.

        Models a crashed host (the node keeps forwarding as a router, but
        the agent neither speaks nor listens) — used by the ZCR-failure
        robustness tests.
        """
        self._stopped = True
        self.session.stop()
        self.election.stop()
        for timer in self._reply_timers.values():
            timer.cancel()

    def crash(self) -> None:
        """Crash the endpoint process (alias for :meth:`stop`).

        The node keeps routing; :meth:`restart` revives the agent with its
        pre-crash group state intact, as a process restart from disk would.
        """
        self.stop()

    def restart(self) -> None:
        """Revive a stopped endpoint: rejoin channels, resume session/ZCR.

        The base implementation restores participation only; receivers
        additionally resynchronize their LDP/RP state (see
        ``SharqfecReceiver.restart``).  A no-op on a running endpoint.

        Pre-crash *election* state is discarded before rejoining: the zone
        may have re-elected while we were down, so believed ZCRs, distance
        measurements, in-flight election rounds, and our own authority
        claims are all stale.  We re-learn the representatives from live
        gossip (typically within one session interval) instead of resuming
        a belief that could make us answer NACKs for a zone we no longer
        represent.  Group/stream state intentionally survives, as a process
        restart from disk would preserve it.
        """
        if not self._stopped:
            return
        self._stopped = False
        self.session.forget_zcrs()
        self.election.reset()
        self._authority_zones.clear()
        self.join()
        self.session.start()
        self.election.start()

    def leave(self) -> None:
        """Depart the session cleanly: silence the agent and unsubscribe
        every channel, so the multicast trees stop reaching this node."""
        self.stop()
        if self._joined:
            self.channels.leave_member(
                self.node_id,
                self._on_data_channel,
                self._on_repair_channel,
                self._on_session_channel,
            )
            self._joined = False

    # ------------------------------------------------------------- dispatch

    def _on_data_channel(self, packet: Packet) -> None:
        if packet.src == self.node_id or self._stopped:
            return
        self.handle_data(packet)

    def _on_repair_channel(self, packet: Packet) -> None:
        if packet.src == self.node_id or self._stopped:
            return
        if isinstance(packet, FecPdu):
            self.handle_fec(packet)
        elif isinstance(packet, NackPdu):
            self.handle_nack(packet)

    def _on_session_channel(self, packet: Packet) -> None:
        if packet.src == self.node_id or self._stopped:
            return
        handler = self._session_dispatch.get(type(packet))
        if handler is not None:
            handler(packet)

    # ------------------------------------------------------------ group state

    def group_state(self, group_id: int) -> GroupState:
        """Fetch or create the state for a group (hookable by subclasses)."""
        state = self.groups.get(group_id)
        if state is None:
            state = GroupState(group_id, self.config.group_k(group_id), self.zone_ids)
            state.attempt_zone_index = self._nack_start_index
            self.groups[group_id] = state
            self._on_group_created(state)
        return state

    def _on_group_created(self, state: GroupState) -> None:
        """Subclass hook (receivers arm the LDP timer here)."""

    # --------------------------------------------------------------- handlers

    def handle_data(self, packet: Packet) -> None:
        """Subclass hook: data packets (senders ignore them)."""

    def handle_nack(self, pdu: NackPdu) -> None:
        """Common NACK processing: ZLC update, repair-duty bookkeeping."""
        state = self.group_state(pdu.group_id)
        state.note_highest(pdu.highest_seen)
        increased = state.raise_zlc(pdu.zone_id, pdu.llc)
        self._on_nack_observed(state, pdu, increased)
        zone_id = pdu.zone_id
        if zone_id not in self._zone_pos:
            return
        # Speculative queue: tracked by everyone (it also drives request
        # suppression), acted on only by eligible repairers.
        current = state.outstanding.get(zone_id, 0)
        if pdu.n_needed > current:
            state.outstanding[zone_id] = pdu.n_needed
        if self.config.sender_only and not self.is_source:
            return
        distance = self.session.peer_one_way(pdu.src, pdu.rtt_chain)
        self._last_nack_dist[(zone_id, pdu.group_id)] = distance
        if self._can_repair(state):
            self._arm_reply_timer(zone_id, state, distance)

    def _on_nack_observed(self, state: GroupState, pdu: NackPdu, increased: bool) -> None:
        """Subclass hook: receivers run suppression / further-loss detection."""

    def handle_fec(self, pdu: FecPdu) -> None:
        """Common FEC processing: identity intake, queue decrements."""
        state = self.group_state(pdu.group_id)
        was_complete = state.complete
        state.record_index(pdu.index, self.clock.now)
        state.note_highest(pdu.new_high_id)
        state.backoff_i = 1
        # A repair on the channel of zone Zc was heard by every member of
        # every nested zone inside Zc — decrement those speculative queues
        # and remember the coverage for injection accounting (§4).
        channel_pos = self._zone_pos.get(pdu.zone_id)
        if channel_pos is not None:
            for pos in range(channel_pos + 1):
                zid = self.zone_ids[pos]
                state.fec_heard[zid] = state.fec_heard.get(zid, 0) + 1
                remaining = state.outstanding.get(zid, 0)
                if remaining > 0:
                    state.outstanding[zid] = remaining - 1
                    if remaining - 1 <= 0 and not self._is_zone_repair_authority(zid):
                        # Non-ZCR repairers cancel only once the full need
                        # is met (§4) — which is exactly outstanding == 0.
                        timer = self._reply_timers.get((zid, state.group_id))
                        if timer is not None:
                            timer.cancel()
        if state.complete and not was_complete:
            self._on_group_complete(state)
        self._after_fec(state, pdu)

    def _after_fec(self, state: GroupState, pdu: FecPdu) -> None:
        """Subclass hook (receivers refresh request-timer bookkeeping)."""

    # ----------------------------------------------------------- repair duty

    def _on_role_change(self, zone_id: int) -> None:
        """RP state handoff: a zone changed representatives.

        If *we* are the newly believed ZCR, any speculative repair queue
        for that zone must keep draining even though the NACKs that built
        it were addressed to (and perhaps partly answered by) the dead
        predecessor — otherwise a rep crash orphans pending repairs until
        the requesters' backoff timers re-NACK.
        """
        if self._stopped:
            return
        if not self.session.is_zcr(zone_id):
            if zone_id in self._authority_zones:
                self._authority_zones.discard(zone_id)
                self._on_authority_lost(zone_id)
            return
        self._authority_zones.add(zone_id)
        if self.config.sender_only and not self.is_source:
            return
        for state in self.groups.values():
            if state.outstanding.get(zone_id, 0) > 0 and self._can_repair(state):
                self._arm_reply_timer(zone_id, state, 0.0)

    def _on_authority_lost(self, zone_id: int) -> None:
        """Split-brain reconciliation, repair side: a higher-epoch rival
        deposed us, so stop pumping the zone's repairs and hand off the
        speculative queues.

        The successor (and every other zone member) folds the snapshot in
        with a max-merge — the queues already tracked by the survivors are
        never *added* to, so the need both partition halves tracked
        independently is served exactly once and healed extents are not
        re-repaired.
        """
        outstanding = []
        for group_id in sorted(self.groups):
            state = self.groups[group_id]
            timer = self._reply_timers.get((zone_id, group_id))
            if timer is not None:
                timer.cancel()
            pending = state.outstanding.get(zone_id, 0)
            if pending > 0:
                outstanding.append((group_id, pending))
        if not outstanding:
            return
        if self.config.sender_only and not self.is_source:
            return  # nobody but the source pumps; nothing to hand off
        tracer = self.clock.tracer
        if tracer.wants("zcr.reconcile"):
            tracer.emit(
                self.clock.now,
                "zcr.reconcile",
                self.node_id,
                {"zone": zone_id, "groups": [g for g, _ in outstanding]},
            )
        pdu = ZcrReconcilePdu(
            src=self.node_id,
            group=self.channels.session_group(zone_id),
            size_bytes=ZCR_PDU_SIZE + 8 * len(outstanding),
            zone_id=zone_id,
            epoch=self.session.zcr_epoch.get(zone_id, 0),
            outstanding=tuple(outstanding),
        )
        self.transport.multicast(self.node_id, pdu)

    def _handle_reconcile(self, pdu: ZcrReconcilePdu) -> None:
        """Fold a deposed representative's repair-queue snapshot in.

        Max-merge, exactly like NACK ``n_needed`` intake: the handed-off
        count raises a zone's speculative queue only where the hearer's
        own tracking is behind, and the normal repair machinery (authority
        pumps at zero delay, everyone else suppresses) serves the rest.
        """
        zone_id = pdu.zone_id
        if zone_id not in self._zone_pos:
            return
        distance: Optional[float] = None
        for group_id, needed in pdu.outstanding:
            state = self.group_state(group_id)
            if needed > state.outstanding.get(zone_id, 0):
                state.outstanding[zone_id] = needed
            if self.config.sender_only and not self.is_source:
                continue
            if self._can_repair(state):
                if distance is None:
                    distance = self.session.peer_one_way(pdu.src)
                self._arm_reply_timer(zone_id, state, distance)

    def _stream_extent(self) -> int:
        """Highest group whose data transmission is known finished (-1 if
        unknown); advertised in session messages.  Subclasses override."""
        return -1

    def _on_stream_extent(self, group_id: int) -> None:
        """Subclass hook: a session peer advertised the stream extent."""

    def _can_repair(self, state: GroupState) -> bool:
        # A peer may announce the code's last identity (FEC new_high_id or
        # NACK highest_seen); past it there is no repair left to allocate.
        if state.highest_known >= MAX_IDENTITY:
            return False
        return self.is_source or state.complete

    def _is_zone_repair_authority(self, zone_id: int) -> bool:
        """ZCRs of a zone — and the source — repair without suppression."""
        return self.is_source or self.session.is_zcr(zone_id)

    def _arm_reply_timer(self, zone_id: int, state: GroupState, distance: float) -> None:
        key = (zone_id, state.group_id)
        timer = self._reply_timers.get(key)
        if timer is None:
            timer = Timer(
                self.clock,
                lambda z=zone_id, g=state.group_id: self._on_reply_timer(z, g),
                name=f"reply@{self.node_id}/{zone_id}/{state.group_id}",
            )
            self._reply_timers[key] = timer
        if timer.running:
            return  # queue increases never reset the reply timer (§4)
        if self._is_zone_repair_authority(zone_id):
            timer.restart(0.0)
        else:
            rng = self._reply_rng
            if rng is None:
                rng = self._reply_rng = self.clock.rng.stream(f"sharqfec.reply.{self.node_id}")
            timer.restart(reply_delay(rng, distance))

    def _on_reply_timer(self, zone_id: int, group_id: int) -> None:
        state = self.groups.get(group_id)
        if state is None:
            return
        if state.outstanding.get(zone_id, 0) <= 0:
            return
        if not self._can_repair(state):
            return  # completion hook will restart the pump
        self._send_one_repair(zone_id, state)
        if state.outstanding.get(zone_id, 0) > 0:
            self._reply_timers[(zone_id, group_id)].restart(self.config.repair_spacing)

    def _send_one_repair(self, zone_id: int, state: GroupState) -> None:
        index = state.allocate_repair_index()
        pdu = FecPdu(
            src=self.node_id,
            group=self.channels.repair_group(zone_id),
            size_bytes=PACKET_SIZE,
            group_id=state.group_id,
            index=index,
            new_high_id=index,
            zone_id=zone_id,
        )
        remaining = state.outstanding.get(zone_id, 0)
        if remaining > 0:
            state.outstanding[zone_id] = remaining - 1
        self.repairs_by_zone[zone_id] = self.repairs_by_zone.get(zone_id, 0) + 1
        tracer = self.clock.tracer
        if tracer.wants("sharqfec.repair"):
            tracer.emit(
                self.clock.now,
                "sharqfec.repair",
                self.node_id,
                {"zone": zone_id, "group": state.group_id, "index": index},
            )
        self.transport.multicast(self.node_id, pdu)

    # -------------------------------------------------- completion / injection

    def _on_group_complete(self, state: GroupState) -> None:
        """The endpoint reconstructed the group: it becomes a repairer."""
        if not self.config.sender_only or self.is_source:
            # Under sender-only repairs the outstanding counters still track
            # pending need (they drive request suppression) but receivers
            # never act on them.
            for zone_id in self.zone_ids:
                if state.outstanding.get(zone_id, 0) > 0:
                    distance = self._last_nack_dist.get(
                        (zone_id, state.group_id), DEFAULT_DISTANCE
                    )
                    self._arm_reply_timer(zone_id, state, distance)
            self._run_zcr_injection(state)
        self._schedule_zlc_sampling(state)

    def _run_zcr_injection(self, state: GroupState) -> None:
        """Preemptive FEC: ZCRs inject predicted repairs without NACKs (§4)."""
        if not self.config.injection:
            return
        for zone_id in self._injection_zones():
            predictor = self.predictor(zone_id)
            planned = predictor.predict_packets()
            # Redundancy already visible to the whole zone (from this or
            # larger scopes) reduces what we add — the "subservient zones
            # add less redundancy" behaviour.
            already = state.fec_heard.get(zone_id, 0) + state.outstanding.get(zone_id, 0)
            inject = planned - already
            if inject <= 0:
                continue
            state.outstanding[zone_id] = state.outstanding.get(zone_id, 0) + inject
            tracer = self.clock.tracer
            if tracer.wants("sharqfec.inject"):
                tracer.emit(
                    self.clock.now,
                    "sharqfec.inject",
                    self.node_id,
                    {"zone": zone_id, "group": state.group_id, "n": inject},
                )
            self._arm_reply_timer(zone_id, state, 0.0)

    def _injection_zones(self) -> List[int]:
        """Zones this endpoint preemptively injects into (ZCR role)."""
        return [zid for zid in self.zone_ids[:-1] if self.session.is_zcr(zid)]

    def predictor(self, zone_id: int) -> EwmaPredictor:
        """The EWMA ZLC predictor for one zone (created on first use)."""
        predictor = self._predictors.get(zone_id)
        if predictor is None:
            predictor = EwmaPredictor(self.config.ewma_keep)
            self._predictors[zone_id] = predictor
        return predictor

    def _zlc_sampling_zones(self) -> List[int]:
        return self._injection_zones()

    def _schedule_zlc_sampling(self, state: GroupState) -> None:
        """Measure the group's true ZLC after 2.5 x the worst RTT (§4).

        §4's bound is "the RTT to the most distant known receiver plus the
        maximum delay due to its suppression timer"; request timers scale
        with the distance to the *source*, so when the zone radius is small
        relative to that distance the source RTT dominates the wait.
        """
        zones = self._zlc_sampling_zones()
        if not zones:
            return
        # The paper's floor is 2.5x the RTT to the most distant known
        # receiver; the binding constraint is usually the i=1 request
        # window's upper bound 2·(C1+C2)·d toward the *source*, where a
        # member's source distance is at most ours plus the zone radius.
        zone_rtt = self.session.max_zone_rtt(self.zone_ids[0])
        member_d = self.session.source_one_way(self.source_id) + zone_rtt / 2.0
        nack_bound = 2.0 * (C1 + C2) * member_d
        wait = max(
            ZLC_MEASURE_RTT_MULTIPLE * zone_rtt,
            zone_rtt + nack_bound,
        )
        for zone_id in zones:
            key = (state.group_id, zone_id)
            if key in self._zlc_sampled:
                continue
            self._zlc_sampled.add(key)
            self.clock.schedule(wait, self._sample_zlc, state, zone_id)

    def _sample_zlc(self, state: GroupState, zone_id: int) -> None:
        sample = state.zlc_for(zone_id)
        if sample <= 0:
            # No NACK revealed the true ZLC: fall back to our own LLC (§4).
            sample = state.llc
        self.predictor(zone_id).update(sample)

    # -------------------------------------------------------------- statistics

    def groups_complete(self) -> int:
        """Number of groups fully reconstructed at this endpoint."""
        return sum(1 for s in self.groups.values() if s.complete)

    def all_complete(self, n_groups: Optional[int] = None) -> bool:
        """True when every expected group has been reconstructed."""
        total = n_groups if n_groups is not None else self.config.n_groups
        if len(self.groups) < total:
            return False
        return all(
            self.groups[g].complete for g in range(total) if g in self.groups
        ) and all(g in self.groups for g in range(total))
