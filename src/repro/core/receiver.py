"""SHARQFEC receiver: loss detection, suppression, requests (§4).

State machine per group:

* **Loss Detection Phase** — packets arrive on the data channel; gaps raise
  the Local Loss Count; an LDP timer estimates when the group should have
  finished arriving.  A request timer is armed whenever the LLC exceeds the
  zone's known ZLC.
* **Repair Phase** — entered at LDP expiry or on reconstruction.  Incomplete
  receivers keep an armed request timer whose firings either send a NACK
  (scope-escalating after ``ESCALATION_ATTEMPTS`` tries per zone) or stay
  suppressed while the zone's speculative queues cover their deficit.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.agent import SharqfecEndpoint
from repro.core.config import ESCALATION_ATTEMPTS, GIVEUP_FIRES, MAX_BACKOFF_EXPONENT, NACK_SIZE
from repro.core.pdus import DataPdu, FecPdu, NackPdu
from repro.core.state import GroupState
from repro.core.suppression import request_delay
from repro.net.packet import Packet
from repro.sim.timers import Timer
from repro.srm.timers import AdaptiveTimerState


class SharqfecReceiver(SharqfecEndpoint):
    """A session member that receives the stream and repairs its peers."""

    is_source = False

    #: Set by the hybrid fidelity engine (repro.hybrid): data delivery is
    #: modeled analytically and applied in bulk, so group state created by
    #: a stray early NACK/FEC must not arm an LDP timer — the flow engine's
    #: apply event finalizes the group at the analytically correct time.
    _flow_mode = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._ipt = self.config.inter_packet_interval  # refined per arrival
        self._last_data_time: Optional[float] = None
        self._last_data_seq: Optional[int] = None
        self._highest_group_seen = -1
        # Highest stream extent already applied by _on_stream_extent.
        self._extent_applied = -1
        self._ldp_timers: Dict[int, Timer] = {}
        self._request_timers: Dict[int, Timer] = {}
        self._suppressed_fires: Dict[int, int] = {}
        self._request_rng = None  # built on the first draw
        self.nacks_sent = 0
        self.data_received = 0
        # §7 future work: adaptive request-timer constants.  Reuses the SRM
        # adaptation machinery seeded from C1/C2; only consulted when
        # ``config.adaptive_timers`` is on.
        self._adaptive_request = AdaptiveTimerState.for_requests(self.config.adaptive_timers)
        self._nacks_heard_per_group: Dict[int, int] = {}

    # ------------------------------------------------------------------- data

    def handle_data(self, packet: Packet) -> None:
        if not isinstance(packet, DataPdu):
            return
        now = self.clock.now
        self.data_received += 1
        self._update_ipt(packet.seq, now)
        state = self.group_state(packet.group_id)
        # A mid-stream joiner either baselines at the first group it hears
        # or — with late_join_recovery — backfills every earlier group via
        # the normal loss-detection path (§7's late-join pointer).
        if self._highest_group_seen < 0 and not self.config.late_join_recovery:
            self._highest_group_seen = packet.group_id
        # Seeing a newer group means every older group's data is finished:
        # finalize their losses so repair can proceed (§4 loss detection).
        if packet.group_id > self._highest_group_seen:
            for gid in range(self._highest_group_seen + 1, packet.group_id):
                self._finalize_group(self.group_state(gid))
            if self._highest_group_seen >= 0:
                prev = self.groups.get(self._highest_group_seen)
                if prev is not None and not prev.repair_phase:
                    self._finalize_group(prev)
            self._highest_group_seen = packet.group_id
        was_complete = state.complete
        state.record_index(packet.index, now)
        new_losses = state.count_data_losses_before(packet.index)
        if new_losses:
            self._maybe_request(state)
        self._arm_ldp_timer(state)
        if packet.index == state.k - 1 and not state.repair_phase:
            # The group's data transmission is over; losses are now final.
            self._finalize_group(state)
        if state.complete and not was_complete:
            self._group_completed(state)

    def _update_ipt(self, seq: int, now: float) -> None:
        if self._last_data_time is not None and self._last_data_seq is not None:
            gap = seq - self._last_data_seq
            if gap > 0:
                sample = (now - self._last_data_time) / gap
                self._ipt = 0.75 * self._ipt + 0.25 * sample
        self._last_data_time = now
        self._last_data_seq = seq

    # ------------------------------------------------------------- LDP timer

    def _on_group_created(self, state: GroupState) -> None:
        if self._flow_mode:
            return
        self._arm_ldp_timer(state)

    def _arm_ldp_timer(self, state: GroupState) -> None:
        if state.complete or state.repair_phase:
            return
        timer = self._ldp_timers.get(state.group_id)
        if timer is None:
            timer = Timer(
                self.clock,
                lambda g=state.group_id: self._on_ldp_expired(g),
                name=f"ldp@{self.node_id}/{state.group_id}",
            )
            self._ldp_timers[state.group_id] = timer
        remaining = state.k - 1 - state.max_data_index_seen
        deadline = self.clock.now + remaining * self._ipt + 2.0 * self._ipt
        timer.restart(max(deadline - self.clock.now, 0.0))

    def _on_ldp_expired(self, group_id: int) -> None:
        state = self.groups.get(group_id)
        if state is None or state.complete or state.repair_phase:
            return
        # If data is still trickling in, extend the estimate once more.
        if state.last_arrival is not None:
            expected_end = (
                state.last_arrival
                + (state.k - 1 - state.max_data_index_seen) * self._ipt
                + 2.0 * self._ipt
            )
            if expected_end > self.clock.now + 1e-9:
                self._ldp_timers[group_id].restart(expected_end - self.clock.now)
                return
        self._finalize_group(state)

    def _finalize_group(self, state: GroupState) -> None:
        """End the group's Loss Detection Phase; unseen data is lost."""
        if state.repair_phase:
            return
        state.repair_phase = True
        new_losses = state.finalize_data_losses()
        timer = self._ldp_timers.get(state.group_id)
        if timer is not None:
            timer.cancel()
        if state.complete:
            return
        if new_losses or state.deficit() > 0:
            self._ensure_request_timer(state)

    # -------------------------------------------------------------- requesting

    def _maybe_request(self, state: GroupState) -> None:
        """Arm the request timer when our LLC exceeds the zone's ZLC (§4)."""
        if state.complete:
            return
        zone_id = self._attempt_zone(state)
        if state.llc > state.zlc_for(zone_id):
            self._ensure_request_timer(state)

    def _attempt_zone(self, state: GroupState) -> int:
        index = min(state.attempt_zone_index, len(self.zone_ids) - 1)
        return self.zone_ids[index]

    def _ensure_request_timer(self, state: GroupState) -> None:
        timer = self._request_timers.get(state.group_id)
        if timer is None:
            timer = Timer(
                self.clock,
                lambda g=state.group_id: self._on_request_timer(g),
                name=f"req@{self.node_id}/{state.group_id}",
            )
            self._request_timers[state.group_id] = timer
        if timer.running:
            return
        timer.restart(self._request_delay(state))

    def _request_delay(self, state: GroupState) -> float:
        distance = self.session.source_one_way(self.source_id)
        rng = self._request_rng
        if rng is None:
            rng = self._request_rng = self.clock.rng.stream(f"sharqfec.request.{self.node_id}")
        if self.config.adaptive_timers:
            lo, hi = self._adaptive_request.window(distance)
            i = min(max(state.backoff_i, 1), MAX_BACKOFF_EXPONENT)
            return (2.0 ** i) * rng.uniform(lo, hi)
        return request_delay(rng, distance, state.backoff_i)

    def _is_stuck_authority(self, state: GroupState, zone_id: int) -> bool:
        """True when we are ``zone_id``'s repair authority but cannot serve
        its queued demand (we are missing the data ourselves).

        The zone then deadlocks unless *we* act: every other member's retry
        is suppressed by the very queue we are failing to drain, so the
        authority must fetch the repair from the parent scope on the zone's
        behalf (§4 — ZCRs mediate repair between scopes).  Correlated
        upstream loss produces exactly this shape: the whole zone (its
        authority included) misses the same packet, a burst of simultaneous
        NACKs raises everyone's ZLC and backoff, and no retry ever fires
        inside the run.
        """
        return (
            not self.config.sender_only
            and zone_id in self._authority_zones
            and not state.complete
            and state.outstanding.get(zone_id, 0) > 0
        )

    def _on_request_timer(self, group_id: int) -> None:
        state = self.groups.get(group_id)
        if state is None or state.complete:
            return
        zone_id = self._attempt_zone(state)
        covered = state.outstanding.get(zone_id, 0)
        fires = self._suppressed_fires.get(group_id, 0)
        send = False
        if self._is_stuck_authority(state, zone_id):
            # The zone deadlocks unless we act, so our retries never stay
            # suppressed: each fire sends, and the standard per-zone attempt
            # counter in ``_send_nack`` escalates us to the parent scope —
            # the same zone → zone → parent sequence a lone unsuppressed
            # requester walks.
            send = True
        elif fires >= 2:
            # Two windows elapsed with repairs pending but none arriving:
            # the expectation failed — request again (§4's "should a
            # repairee detect that it has lost a repair ... new NACK").
            send = True
        elif state.llc > state.zlc_for(zone_id):
            # The paper's primary rule: we are worse off than anything the
            # zone has heard, so our NACK (which raises the ZLC and the
            # repair count) must go out even while lesser repairs are
            # pending.
            send = True
        elif state.repair_phase and state.deficit() > covered:
            # Everything announced so far will still leave us short.
            send = True
        if send:
            self._send_nack(state, zone_id)
            self._suppressed_fires[group_id] = 0
        else:
            self._suppressed_fires[group_id] = fires + 1
        # Bounded give-up: this many request windows with *zero* new packets
        # arriving means the current zone cannot help us (e.g. its repairers
        # all crashed) — escalate one level instead of retrying forever.
        # ``stalled_fires`` resets on every arrival (GroupState.record_index),
        # so ordinary suppression windows with repairs in flight never trip
        # it.  At the top zone the retries continue at the capped backoff.
        state.stalled_fires += 1
        if (
            state.stalled_fires >= GIVEUP_FIRES
            and state.attempt_zone_index < len(self.zone_ids) - 1
        ):
            state.attempt_zone_index += 1
            state.attempts_at_zone = 0
            state.stalled_fires = 0
            state.backoff_i = 1
        self._request_timers[group_id].restart(self._request_delay(state))

    def _send_nack(self, state: GroupState, zone_id: int) -> None:
        if state.repair_phase:
            needed = state.deficit()
        else:
            # Mid-group (LDP) request: data still in flight is not lost —
            # ask only for the detected losses net of repairs already in
            # hand, or the whole remainder would be requested spuriously.
            repairs_in_hand = state.received() - state.data_count
            needed = max(1, state.llc - repairs_in_hand)
        pdu = NackPdu(
            src=self.node_id,
            group=self.channels.repair_group(zone_id),
            size_bytes=NACK_SIZE,
            group_id=state.group_id,
            llc=state.llc,
            highest_seen=state.highest_known,
            n_needed=needed,
            zone_id=zone_id,
            rtt_chain=self.session.build_rtt_chain(),
        )
        # The zone's speculative queue now includes our request.  Note that
        # ``state.zlc`` deliberately tracks only *other* receivers' NACKs:
        # suppression means "someone else's request already covers me", and
        # our own announcement must not silence our own retries.
        state.outstanding[zone_id] = max(state.outstanding.get(zone_id, 0), pdu.n_needed)
        state.nack_sent_count += 1
        state.attempts_at_zone += 1
        if (
            state.attempts_at_zone >= ESCALATION_ATTEMPTS
            and state.attempt_zone_index < len(self.zone_ids) - 1
        ):
            state.attempt_zone_index += 1
            state.attempts_at_zone = 0
        self.nacks_sent += 1
        self.nacks_by_zone[zone_id] = self.nacks_by_zone.get(zone_id, 0) + 1
        tracer = self.clock.tracer
        if tracer.wants("sharqfec.nack"):
            tracer.emit(
                self.clock.now,
                "sharqfec.nack",
                self.node_id,
                {
                    "zone": zone_id,
                    "group": state.group_id,
                    "llc": state.llc,
                    "needed": needed,
                },
            )
        self.transport.multicast(self.node_id, pdu)

    # --------------------------------------------------------- NACK reception

    def _on_nack_observed(self, state: GroupState, pdu: NackPdu, increased: bool) -> None:
        self._nacks_heard_per_group[state.group_id] = (
            self._nacks_heard_per_group.get(state.group_id, 0) + 1
        )
        # The zone's repair authority does not defer to its own zone's
        # demand: growing its backoff / re-drawing its timer on every heard
        # NACK would push the one member obligated to act (escalate when it
        # cannot repair, see ``_is_stuck_authority``) behind the very storm
        # it must resolve.
        authority = (
            not state.complete
            and not self.config.sender_only
            and pdu.zone_id in self._authority_zones
        )
        if not increased and not authority:
            # A NACK that did not raise the ZLC grows the backoff (§4).
            state.backoff_i = min(state.backoff_i + 1, MAX_BACKOFF_EXPONENT)
        if state.complete:
            return
        timer = self._request_timers.get(state.group_id)
        if (
            timer is not None
            and timer.running
            and not authority
            and state.llc <= state.zlc_for(pdu.zone_id)
        ):
            # Suppression: re-draw the pending request further out.
            timer.restart(self._request_delay(state))
        if timer is None or not timer.running:
            # The NACK's highest identifier may reveal losses we hadn't
            # detected yet (e.g. we missed the whole group's tail).
            if state.repair_phase and state.deficit() > 0:
                self._ensure_request_timer(state)

    # ---------------------------------------------------------- FEC reception

    def _after_fec(self, state: GroupState, pdu: FecPdu) -> None:
        if state.complete:
            timer = self._request_timers.get(state.group_id)
            if timer is not None:
                timer.cancel()
            self._suppressed_fires.pop(state.group_id, None)

    def _group_completed(self, state: GroupState) -> None:
        """Data alone completed the group (FEC path runs through handle_fec)."""
        timer = self._request_timers.get(state.group_id)
        if timer is not None:
            timer.cancel()
        ldp = self._ldp_timers.get(state.group_id)
        if ldp is not None:
            ldp.cancel()
        state.repair_phase = True
        self._record_recovery_event(state)
        self._on_group_complete(state)

    def _record_recovery_event(self, state: GroupState) -> None:
        """Feed one recovered group into the adaptive request timers (§7)."""
        if not self.config.adaptive_timers or state.llc == 0:
            return
        heard = self._nacks_heard_per_group.pop(state.group_id, 0)
        duplicates = max(0, heard + state.nack_sent_count - 1)
        self._adaptive_request.record_event(duplicates, 1.0)

    def handle_fec(self, pdu: FecPdu) -> None:
        state = self.group_state(pdu.group_id)
        was_complete = state.complete
        super().handle_fec(pdu)
        if state.complete and not was_complete:
            ldp = self._ldp_timers.get(state.group_id)
            if ldp is not None:
                ldp.cancel()
            timer = self._request_timers.get(state.group_id)
            if timer is not None:
                timer.cancel()
            state.repair_phase = True
            self._record_recovery_event(state)

    def stop(self) -> None:
        super().stop()
        for timer in self._ldp_timers.values():
            timer.cancel()
        for timer in self._request_timers.values():
            timer.cancel()

    # ------------------------------------------------------- churn / resync

    def restart(self) -> None:
        """Crash-restart / (re)join: resume and resynchronize (§7).

        Rejoins every channel, then rebuilds LDP/RP state so recovery of
        whatever the outage swallowed proceeds through the normal scoped
        repair machinery.
        """
        if not self._stopped:
            return
        super().restart()
        # Pre-outage inter-packet anchors would corrupt the IPT estimate on
        # the first post-restart arrival (the gap spans the whole outage).
        self._last_data_time = None
        self._last_data_seq = None
        # Whatever the outage hid surfaces through extent gossip, so the
        # first advertisement heard after it must be applied afresh.
        self._extent_applied = -1
        self._resync_groups()

    def _resync_groups(self) -> None:
        """Rebuild per-group timers after an outage.

        Groups already finalized but incomplete resume requesting from a
        fresh (capped-exponential) backoff; groups caught mid-LDP re-arm
        their loss-detection timers.  Groups the outage hid *entirely*
        surface later, via the stream-extent gossip or the next data
        arrival's older-group finalization.
        """
        for state in self.groups.values():
            if state.complete:
                continue
            state.backoff_i = 1
            state.stalled_fires = 0
            if state.repair_phase:
                if state.deficit() > 0:
                    self._ensure_request_timer(state)
            else:
                self._arm_ldp_timer(state)

    def _stream_extent(self) -> int:
        # Advertise the highest *reconstructed* group: completion implies
        # the group's data emission truly ended, so the advertisement never
        # finalizes a peer's group prematurely.  (The sender advertises its
        # authoritative emission extent.)
        extent = -1
        for gid, state in self.groups.items():
            if gid > extent and state.complete:
                extent = gid
        return extent

    def _on_stream_extent(self, group_id: int) -> None:
        """A session peer advertised that groups up to ``group_id`` have
        finished transmission: finalize any of ours still awaiting data.

        This is the SHARQFEC analogue of SRM's session ``highest_seq``
        tail-loss detection — without it, a receiver that missed *every*
        packet of a trailing group (crash, partition) would never learn
        the group exists.

        Every session message carries an extent, and once the stream has
        ended they all carry the same one; an extent at or below the last
        one applied finds every group already finalized and
        ``_highest_group_seen`` already past it, so it is dropped here.
        """
        if group_id <= self._extent_applied:
            return
        if not 0 <= group_id < self.config.n_groups:
            return
        if self._highest_group_seen < 0 and not self.config.late_join_recovery:
            # Same baseline rule as handle_data: without late-join recovery
            # a joiner only tracks groups from its first heard packet on.
            return
        start = self._highest_group_seen if self._highest_group_seen >= 0 else 0
        if group_id < start:
            return
        for gid in range(start, group_id + 1):
            self._finalize_group(self.group_state(gid))
        if group_id > self._highest_group_seen:
            self._highest_group_seen = group_id
        self._extent_applied = group_id
