"""The SRM member: loss detection, request/repair suppression, sessions.

Every member (including the source) runs the same machinery; the source
simply starts with every packet "received" and also emits the CBR stream.

Request path: a sequence gap (or a session message advertising a higher
sequence) creates a loss record and arms a request timer drawn from
``2^i · U[C1·d, (C1+C2)·d]`` toward the source.  Hearing someone else's
request for the same packet backs the timer off (suppression); expiry sends
our own request and doubles the window.

Repair path: a member holding the requested packet arms a repair timer
``U[D1·d, (D1+D2)·d]`` toward the requester and cancels it if another
repair is heard first — the SRM repair suppression the paper contrasts
against SHARQFEC's scoped repairs.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.core.config import (
    DEFAULT_DISTANCE, MAX_BACKOFF_EXPONENT, PACKET_SIZE, RTT_EWMA_KEEP, SESSION_ENTRY_SIZE,
    SESSION_FAST_COUNT, SESSION_FAST_INTERVAL, SESSION_INTERVAL,
)
from repro.core.rtt import RttTable
from repro.net.packet import Packet
from repro.sim.timers import Timer
from repro.transport.api import Clock, Transport
from repro.srm.config import NACK_SIZE, SESSION_HEADER_SIZE, SrmConfig
from repro.srm.pdus import (
    SrmDataPdu,
    SrmRepairPdu,
    SrmRequestPdu,
    SrmSessionEntry,
    SrmSessionPdu,
)
from repro.srm.timers import AdaptiveTimerState

_SESSION_ZONE = 0  # RttTable zone key; SRM has a single flat scope


class _LossState:
    """Recovery bookkeeping for one missing packet."""

    __slots__ = ("seq", "timer", "backoff", "detected_at", "requests_seen", "own_requests")

    def __init__(self, seq: int, timer: Timer, now: float) -> None:
        self.seq = seq
        self.timer = timer
        self.backoff = 0
        self.detected_at = now
        self.requests_seen = 0
        self.own_requests = 0


class SrmAgent:
    """One SRM session member."""

    def __init__(
        self,
        node_id: int,
        clock: Clock,
        transport: Transport,
        data_group: int,
        session_group: int,
        config: SrmConfig,
        source_id: int,
        is_source: bool = False,
    ) -> None:
        self.node_id = node_id
        self.clock = clock
        self.transport = transport
        self.data_group = data_group
        self.session_group = session_group
        self.config = config
        self.source_id = source_id
        self.is_source = is_source
        self.rtt = RttTable(node_id, RTT_EWMA_KEEP)
        self.request_timer_state = AdaptiveTimerState.for_requests(config.adaptive)
        self.reply_timer_state = AdaptiveTimerState.for_replies(config.adaptive)
        self.received: Set[int] = set()
        self.highest_seen = -1
        self.losses: Dict[int, _LossState] = {}
        self._repair_timers: Dict[int, Timer] = {}
        self._repairs_sent_for: Set[int] = set()
        self._session_timer = Timer(clock, self._on_session_timer, name=f"srmsess@{node_id}")
        self._sessions_sent = 0
        self._rng = None  # built on the first draw
        self.nacks_sent = 0
        self.repairs_sent = 0
        self.data_received = 0
        self._joined = False
        self._stopped = False

    # -------------------------------------------------------------- lifecycle

    def join(self) -> None:
        """Subscribe to the data/repair group and the session group."""
        if self._joined:
            return
        self.transport.subscribe(self.data_group, self.node_id, self._on_data_group)
        self.transport.subscribe(self.session_group, self.node_id, self._on_session_group)
        self._joined = True

    def start_session(self) -> None:
        """Begin periodic session messages."""
        self.join()
        self._session_timer.restart(self._session_interval())

    def start_stream(self, t_start: float) -> None:
        """Source only: schedule the CBR data emission."""
        ipt = self.config.inter_packet_interval
        for seq in range(self.config.n_packets):
            self.clock.at(t_start + seq * ipt, self._emit, seq)

    def stop(self) -> None:
        """Silence the agent: cancel every timer and ignore all input."""
        self._stopped = True
        self._session_timer.cancel()
        for loss in self.losses.values():
            loss.timer.cancel()
        for timer in self._repair_timers.values():
            timer.cancel()

    def crash(self) -> None:
        """Crash the member's process (alias for :meth:`stop`)."""
        self.stop()

    def restart(self) -> None:
        """Revive a stopped member; a no-op when already running.

        Pending loss requests resume, and SRM's session ``highest_seq``
        advertisement natively resynchronizes whatever the outage hid
        (``_handle_session`` → ``_note_exists``) — the churn-recovery
        counterpart the SHARQFEC comparison stays fair against.
        """
        if not self._stopped:
            return
        self._stopped = False
        self.join()
        self._session_timer.restart(self._session_interval())
        for loss in self.losses.values():
            loss.timer.restart(self._request_delay(loss))

    def leave(self) -> None:
        """Depart the session: silence the agent and unsubscribe its groups."""
        self.stop()
        if self._joined:
            self.transport.unsubscribe(self.data_group, self.node_id, self._on_data_group)
            self.transport.unsubscribe(self.session_group, self.node_id, self._on_session_group)
            self._joined = False

    # ------------------------------------------------------------------ source

    def _emit(self, seq: int) -> None:
        self.received.add(seq)
        if seq > self.highest_seen:
            self.highest_seen = seq
        pdu = SrmDataPdu(self.node_id, self.data_group, PACKET_SIZE, seq)
        self.transport.multicast(self.node_id, pdu)

    # ---------------------------------------------------------------- dispatch

    def _on_data_group(self, packet: Packet) -> None:
        if packet.src == self.node_id or self._stopped:
            return
        if isinstance(packet, SrmDataPdu):
            self._handle_data(packet.seq)
        elif isinstance(packet, SrmRequestPdu):
            self._handle_request(packet)
        elif isinstance(packet, SrmRepairPdu):
            self._handle_repair(packet.seq)

    def _on_session_group(self, packet: Packet) -> None:
        if packet.src == self.node_id or self._stopped or not isinstance(packet, SrmSessionPdu):
            return
        self._handle_session(packet)

    # ----------------------------------------------------------------- intake

    def _handle_data(self, seq: int) -> None:
        self.data_received += 1
        self._mark_received(seq)

    def _mark_received(self, seq: int) -> None:
        if seq in self.received:
            return
        # Whatever carried it — data, a repair, a bulk advance — packet
        # ``seq`` proves its predecessors exist.  Repairs used to skip
        # this: a member that was down when ``seq - 1`` went by raised
        # ``highest_seen`` past the gap and never declared it a loss.
        self._note_exists(seq - 1)
        self.received.add(seq)
        if seq > self.highest_seen:
            self.highest_seen = seq
        loss = self.losses.pop(seq, None)
        if loss is not None:
            loss.timer.cancel()
            duplicates = max(0, loss.requests_seen + loss.own_requests - 1)
            elapsed = self.clock.now - loss.detected_at
            d = self._source_distance()
            self.request_timer_state.record_event(duplicates, elapsed / max(2 * d, 1e-6))

    def _note_exists(self, seq: int) -> None:
        """Every packet up to ``seq`` exists; unreceived ones are losses."""
        if seq <= self.highest_seen:
            return
        for missing in range(self.highest_seen + 1, seq + 1):
            if missing not in self.received and missing not in self.losses:
                self._new_loss(missing)
        self.highest_seen = seq

    def _new_loss(self, seq: int) -> None:
        timer = Timer(self.clock, lambda s=seq: self._on_request_timer(s), name=f"srmreq@{self.node_id}/{seq}")
        loss = _LossState(seq, timer, self.clock.now)
        self.losses[seq] = loss
        timer.restart(self._request_delay(loss))

    # --------------------------------------------------------------- requests

    def _uniform(self, lo: float, hi: float) -> float:
        rng = self._rng
        if rng is None:
            rng = self._rng = self.clock.rng.stream(f"srm.{self.node_id}")
        return rng.uniform(lo, hi)

    def _source_distance(self) -> float:
        d = self.rtt.one_way(self.source_id)
        return d if d is not None else DEFAULT_DISTANCE

    def _request_delay(self, loss: _LossState) -> float:
        lo, hi = self.request_timer_state.window(self._source_distance())
        scale = 2.0 ** min(loss.backoff, MAX_BACKOFF_EXPONENT)
        return scale * self._uniform(lo, hi)

    def _on_request_timer(self, seq: int) -> None:
        loss = self.losses.get(seq)
        if loss is None:
            return
        pdu = SrmRequestPdu(self.node_id, self.data_group, NACK_SIZE, seq)
        self.nacks_sent += 1
        loss.own_requests += 1
        loss.backoff = min(loss.backoff + 1, MAX_BACKOFF_EXPONENT)
        tracer = self.clock.tracer
        if tracer.wants("srm.nack"):
            tracer.emit(self.clock.now, "srm.nack", self.node_id, {"seq": seq})
        self.transport.multicast(self.node_id, pdu)
        loss.timer.restart(self._request_delay(loss))

    def _handle_request(self, pdu: SrmRequestPdu) -> None:
        seq = pdu.seq
        loss = self.losses.get(seq)
        if loss is not None:
            # Suppression: someone else asked first — back off our own ask.
            loss.requests_seen += 1
            loss.backoff = min(loss.backoff + 1, MAX_BACKOFF_EXPONENT)
            loss.timer.restart(self._request_delay(loss))
            return
        if seq not in self.received:
            # We did not even know this packet existed: it is a loss too.
            self._note_exists(seq)
            if seq not in self.losses:
                self._new_loss(seq)
            return
        # We hold the packet: candidate repairer with suppression delay.
        timer = self._repair_timers.get(seq)
        if timer is not None and timer.running:
            return
        if timer is None:
            timer = Timer(self.clock, lambda s=seq: self._on_repair_timer(s), name=f"srmrep@{self.node_id}/{seq}")
            self._repair_timers[seq] = timer
        distance = self.rtt.one_way(pdu.src)
        if distance is None:
            distance = DEFAULT_DISTANCE
        lo, hi = self.reply_timer_state.window(distance)
        timer.restart(self._uniform(lo, hi))

    # ---------------------------------------------------------------- repairs

    def _on_repair_timer(self, seq: int) -> None:
        if seq not in self.received:
            return
        pdu = SrmRepairPdu(self.node_id, self.data_group, PACKET_SIZE, seq)
        self.repairs_sent += 1
        self._repairs_sent_for.add(seq)
        tracer = self.clock.tracer
        if tracer.wants("srm.repair"):
            tracer.emit(self.clock.now, "srm.repair", self.node_id, {"seq": seq})
        self.transport.multicast(self.node_id, pdu)

    def _handle_repair(self, seq: int) -> None:
        timer = self._repair_timers.get(seq)
        if timer is not None and timer.running:
            # Another member repaired first: suppress and count a duplicate.
            timer.cancel()
            self.reply_timer_state.record_event(1, 1.0)
        elif seq in self._repairs_sent_for:
            # We also sent one: this repair is a duplicate of ours.
            self.reply_timer_state.record_event(1, 1.0)
        self._mark_received(seq)

    # ---------------------------------------------------------------- session

    def _session_interval(self) -> float:
        if self._sessions_sent < SESSION_FAST_COUNT:
            lo, hi = SESSION_FAST_INTERVAL
        else:
            lo, hi = SESSION_INTERVAL
        return self._uniform(lo, hi)

    def _on_session_timer(self) -> None:
        now = self.clock.now
        heard = self.rtt.heard_in_zone(_SESSION_ZONE)
        entries = tuple(
            SrmSessionEntry(peer, ts, now - recv_at)
            for peer, (ts, recv_at) in sorted(heard.items())
        )
        pdu = SrmSessionPdu(
            src=self.node_id,
            group=self.session_group,
            size_bytes=SESSION_HEADER_SIZE + len(entries) * SESSION_ENTRY_SIZE,
            timestamp=now,
            highest_seq=self.highest_seen,
            entries=entries,
        )
        self.transport.multicast(self.node_id, pdu)
        self._sessions_sent += 1
        self._session_timer.restart(self._session_interval())

    def _handle_session(self, pdu: SrmSessionPdu) -> None:
        now = self.clock.now
        self.rtt.record_heard(_SESSION_ZONE, pdu.src, pdu.timestamp, now)
        entry = pdu.echo_index().get(self.node_id)
        if entry is not None:
            self.rtt.close_echo(pdu.src, entry.peer_timestamp, entry.elapsed, now)
        # Tail-loss detection: the peer has seen packets we have not.
        if pdu.highest_seq > self.highest_seen and not self.is_source:
            self._note_exists(pdu.highest_seq)

    # ------------------------------------------------------------- statistics

    def missing(self) -> int:
        """Packets still outstanding at this member."""
        if self.is_source:
            return 0
        return self.config.n_packets - len(self.received)

    def all_received(self) -> bool:
        """True once the full stream has been recovered."""
        return self.missing() == 0
