"""Zone Closest Receiver election (§5.2).

The challenge/response/takeover protocol:

1. A zone's current ZCR periodically multicasts a **challenge** on the
   parent zone's session channel (reaching the parent ZCR *and*, because the
   zone nests inside its parent, every zone member).
2. The parent ZCR answers with a **response** carrying its processing delay.
3. Every zone member that heard both computes its one-way distance to the
   parent ZCR with the paper's formula::

       d_to_parent = d_to_localZCR + (t_resp - t_chal - proc) - d_localZCR_to_parent

   (times are observation times; distances are one-way, i.e. RTT/2).
4. A member strictly closer than the incumbent sends a **takeover** to both
   the child and parent zones; potential usurpers suppress on hearing a
   takeover at least as close, and the incumbent reasserts if it is in fact
   closer — so "the challenge process always results in the closest receiver
   in the zone being elected" (§5.2).

Bootstrap follows the paper's top-down rule: the root ZCR is the source;
a zone with no ZCR waits (watchdog) until its parent zone has one, then any
member may challenge, compute its own distance from its own response time,
and claim the role; later periodic challenges let the true closest member
usurp — the asymptotic correction visible in Figures 11–13.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.config import (
    DEFAULT_DISTANCE, ZCR_CHALLENGE_INTERVAL, ZCR_PDU_SIZE, ZCR_TAKEOVER_MARGIN,
    ZCR_WATCHDOG_FACTOR,
)
from repro.core.election import ElectionCoordinator
from repro.core.pdus import ZcrChallengePdu, ZcrElectPdu, ZcrResponsePdu, ZcrTakeoverPdu
from repro.core.session import SessionManager
from repro.sim.timers import TimerTable


class ZcrElection:
    """Challenge-phase state machine for one node across its zone chain."""

    def __init__(self, session: SessionManager) -> None:
        self.session = session
        self.node_id = session.node_id
        self.clock = session.clock
        self.transport = session.transport
        self.channels = session.channels
        self._rng = None  # built on the first draw
        # The non-root chain zones, in chain order; each has three timers,
        # built when first armed.
        self.electable: Tuple[int, ...] = tuple(zone.zone_id for zone in session.chain[:-1])
        clock, node = self.clock, self.node_id
        self._challenge_timers = TimerTable(clock, self._on_challenge_timer, f"zcrchal@{node}")
        self._watchdog_timers = TimerTable(clock, self._on_watchdog, f"zcrdog@{node}")
        self._takeover_timers = TimerTable(clock, self._send_takeover, f"zcrtake@{node}")
        # (zone_id, challenger) -> time we heard (or sent) the challenge
        self._pending: Dict[Tuple[int, int], float] = {}
        # zone_id -> challenges sent while ZCR (first few run on a fast
        # cadence so the top-down election cascade settles within the
        # paper's five-second session window).
        self._challenges_sent: Dict[int, int] = {}
        # Zones whose ZCR has gone silent past our watchdog: any member may
        # bid for takeover regardless of the incumbent's recorded distance
        # (a live incumbent will reassert; a dead one cannot — §5.2).
        self._suspect_dead: set = set()
        # zone_id -> our measured one-way distance to the parent ZCR
        self.my_dist_to_parent: Dict[int, float] = {}
        # zone_id -> the measurement's ZCR-independent part:
        # d_to_localZCR + (t_resp − t_chal − proc).  Subtracting the *current*
        # localZCR→parentZCR distance re-derives our distance, so a stale
        # measurement can be re-evaluated the moment that distance refreshes.
        self._raw_measure: Dict[int, float] = {}
        session.on_zcr_change = self._on_belief_change
        # The explicit election layer: failure detection from session
        # silence plus deterministic election rounds (repro.core.election).
        # The challenge machinery stays — it measures distances and remains
        # the bootstrap/fallback path — but failover runs through rounds.
        self.coordinator = ElectionCoordinator(self)
        session.on_zcr_heard = self.coordinator.note_alive

    # -------------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Arm watchdogs on every electable (non-root) chain zone.

        The first watchdog is short so zones elect within the paper's
        five-second session-settling window (§6.2); steady-state watchdogs
        then stretch past the challenge interval.  Zones whose ZCR is known
        in advance (§5.2's "static ZCR adjacent to the router") start with
        the appropriate timer: a challenge schedule at the ZCR itself, a
        watchdog elsewhere.
        """
        for zid in self.electable:
            if self.session.is_zcr(zid):
                self._challenges_sent[zid] = 0
                self._challenge_timers[zid].restart(self._uniform(0.8, 1.2))
            elif self.session.zcr_ids.get(zid) is None:
                # No representative yet: bootstrap briskly.
                self._watchdog_timers[zid].restart(self._uniform(0.5, 1.5))
            else:
                # A (static) ZCR is already known: plain liveness watchdog.
                self._watchdog_timers[zid].restart(self._watchdog_delay())
        self.coordinator.start()

    def stop(self) -> None:
        """Cancel every pending timer."""
        for table in (self._challenge_timers, self._watchdog_timers, self._takeover_timers):
            table.cancel_all()
        self.coordinator.stop()

    def reset(self) -> None:
        """Discard all measurement and election state (crash-restart path).

        A revived endpoint must not resume pre-crash beliefs: its distance
        measurements are stale (the zone may have a new representative to
        measure against) and a resumed election round could resurrect a
        superseded claim.  Pairs with ``SessionManager.forget_zcrs``.
        """
        self.stop()
        self._pending.clear()
        self._challenges_sent.clear()
        self._suspect_dead.clear()
        self.my_dist_to_parent.clear()
        self._raw_measure.clear()
        self.coordinator.reset()

    def _uniform(self, lo: float, hi: float) -> float:
        rng = self._rng
        if rng is None:
            rng = self._rng = self.clock.rng.stream(f"zcr.{self.node_id}")
        return rng.uniform(lo, hi)

    def _challenge_interval(self) -> float:
        lo, hi = ZCR_CHALLENGE_INTERVAL
        return self._uniform(lo, hi)

    def _watchdog_delay(self) -> float:
        lo, hi = ZCR_CHALLENGE_INTERVAL
        base = ZCR_WATCHDOG_FACTOR * self._uniform(lo, hi)
        # Small identity-free jitter so simultaneous expiry is unlikely.
        return base + self._uniform(0.0, 0.5)

    # ----------------------------------------------------------------- timers

    def _on_challenge_timer(self, zone_id: int) -> None:
        if self.session.is_zcr(zone_id):
            self._send_challenge(zone_id)
            count = self._challenges_sent.get(zone_id, 0) + 1
            self._challenges_sent[zone_id] = count
            if count < 5:
                self._challenge_timers[zone_id].restart(self._uniform(0.8, 1.2))
            else:
                self._challenge_timers[zone_id].restart(self._challenge_interval())

    def _on_watchdog(self, zone_id: int) -> None:
        """No challenge heard recently: challenge the parent ourselves."""
        if self.session.is_zcr(zone_id):
            return  # our own challenge timer covers this zone
        parent_zone = self._parent_zone_id(zone_id)
        if parent_zone is None or self.session.zcr_ids.get(parent_zone) is None:
            # Top-down rule: back off briefly until the parent zone has a
            # ZCR (elections proceed largest scope first, §5).
            self._watchdog_timers[zone_id].restart(self._uniform(0.5, 1.0))
            return
        if self.session.zcr_ids.get(zone_id) is not None:
            # A known ZCR went silent for a whole watchdog period.
            self._suspect_dead.add(zone_id)
        self._send_challenge(zone_id)
        if self.session.zcr_ids.get(zone_id) is None:
            # Bootstrap: the challenge may go unanswered (parent ZCR still
            # settling) — retry briskly until the zone has a representative.
            self._watchdog_timers[zone_id].restart(self._uniform(1.0, 2.0))
        else:
            self._watchdog_timers[zone_id].restart(self._watchdog_delay())

    # -------------------------------------------------------------- challenge

    def _parent_zone_id(self, zone_id: int) -> Optional[int]:
        index = self.session.zone_level_index(zone_id)
        if index is None or index >= len(self.session.chain) - 1:
            return None
        return self.session.chain[index + 1].zone_id

    def _send_challenge(self, zone_id: int) -> None:
        parent_zone = self._parent_zone_id(zone_id)
        if parent_zone is None:
            return
        now = self.clock.now
        pdu = ZcrChallengePdu(
            src=self.node_id,
            group=self.channels.session_group(parent_zone),
            size_bytes=ZCR_PDU_SIZE,
            zone_id=zone_id,
            sent_at=now,
        )
        self._pending[(zone_id, self.node_id)] = now
        tracer = self.clock.tracer
        if tracer.wants("zcr.challenge"):
            tracer.emit(now, "zcr.challenge", self.node_id, {"zone": zone_id})
        self.transport.multicast(self.node_id, pdu)

    def handle_challenge(self, pdu: ZcrChallengePdu) -> None:
        """A challenge for ``pdu.zone_id`` was heard on the parent channel."""
        now = self.clock.now
        zone_id = pdu.zone_id
        if self.session.zone_level_index(zone_id) is not None:
            # We are a member of the challenged zone: note the arrival time
            # and reset the watchdog — the election machinery is alive.
            self._pending[(zone_id, pdu.challenger_id)] = now
            if zone_id in self.electable and not self.session.is_zcr(zone_id):
                self._watchdog_timers[zone_id].restart(self._watchdog_delay())
            if pdu.challenger_id == self.session.zcr_ids.get(zone_id):
                self._suspect_dead.discard(zone_id)
                self.coordinator.note_alive(zone_id)
        # The parent ZCR answers.  The challenged zone may not be in our own
        # chain (the parent ZCR sits *outside* the child zone), so identify
        # the parent zone from the channel the challenge arrived on.
        heard_zone = self.channels.zone_of_group(pdu.group)
        if heard_zone is not None and self.session.is_zcr(heard_zone):
            self._respond(zone_id, pdu.challenger_id, heard_zone)

    def _respond(self, zone_id: int, challenger: int, parent_zone: int) -> None:
        pdu = ZcrResponsePdu(
            src=self.node_id,
            group=self.channels.session_group(parent_zone),
            size_bytes=ZCR_PDU_SIZE,
            zone_id=zone_id,
            challenger_id=challenger,
            processing_delay=0.0,
        )
        self.transport.multicast(self.node_id, pdu)

    # --------------------------------------------------------------- response

    def handle_response(self, pdu: ZcrResponsePdu) -> None:
        """Compute our distance to the parent ZCR and maybe bid for takeover."""
        zone_id = pdu.zone_id
        index = self.session.zone_level_index(zone_id)
        if index is None or index >= len(self.session.chain) - 1:
            return
        t_chal = self._pending.pop((zone_id, pdu.challenger_id), None)
        if t_chal is None:
            return
        now = self.clock.now
        elapsed = now - t_chal - pdu.processing_delay
        if pdu.challenger_id == self.node_id:
            dist = elapsed / 2.0
            # A direct round trip to the parent ZCR supersedes any composed
            # measurement; drop the stale raw anchor.
            self._raw_measure.pop(zone_id, None)
        else:
            local_zcr = self.session.zcr_ids.get(zone_id)
            if local_zcr != pdu.challenger_id:
                # The paper's formula needs the challenger to be the local
                # ZCR (known distances); a watchdog challenge from a peer
                # only teaches the challenger itself.
                return
            my_rtt_to_zcr = self.session.rtt_to_zcr(index)
            zcr_parent = self.session.zcr_parent_rtt.get(zone_id)
            if my_rtt_to_zcr is None or zcr_parent is None:
                return
            self._raw_measure[zone_id] = my_rtt_to_zcr / 2.0 + elapsed
            dist = my_rtt_to_zcr / 2.0 + elapsed - zcr_parent / 2.0
        if dist < 0:
            dist = 0.0
        self.my_dist_to_parent[zone_id] = dist
        self._consider_takeover(zone_id, dist)

    def _on_belief_change(self, zone_id: int) -> None:
        """Session gossip changed our ZCR belief: resync timers, re-evaluate.

        Without this, a node whose self-as-ZCR belief flipped away and back
        through gossip would hold the role with a dead challenge timer and
        the zone would fall silent until a full watchdog period.
        """
        if zone_id not in self.electable:
            return
        if self.session.is_zcr(zone_id):
            self._hold(zone_id)
        else:
            # A running challenge timer marks us as the previous incumbent:
            # gossip just deposed us (the split-brain merge case when a
            # heal lets a higher-epoch rival's state cross the old cut).
            challenge = self._challenge_timers.get(zone_id)
            deposed = challenge is not None and challenge.running
            self._challenge_timers.cancel(zone_id)
            watchdog = self._watchdog_timers[zone_id]
            if not watchdog.running:
                watchdog.restart(self._watchdog_delay())
            if deposed:
                rival = self.session.zcr_ids.get(zone_id)
                if rival is not None:
                    self.coordinator.on_deposed(
                        zone_id, rival, self.session.zcr_parent_rtt.get(zone_id)
                    )
            self.reconsider(zone_id)
        self.coordinator.on_belief_sync(zone_id)

    def _hold(self, zone_id: int) -> None:
        """We hold ``zone_id``: stop watching it, and start challenging
        unless already.  Early challenges come quickly: a fresh (possibly
        bootstrap) ZCR invites closer members to usurp without waiting a
        full steady-state interval."""
        self._watchdog_timers.cancel(zone_id)
        challenge = self._challenge_timers[zone_id]
        if not challenge.running:
            self._challenges_sent[zone_id] = 0
            challenge.restart(self._uniform(0.8, 1.2))

    def reconsider(self, zone_id: int) -> None:
        """Re-derive our distance after the localZCR→parentZCR RTT changed."""
        raw = self._raw_measure.get(zone_id)
        zcr_parent = self.session.zcr_parent_rtt.get(zone_id)
        if raw is None or zcr_parent is None or self.session.is_zcr(zone_id):
            return
        dist = max(0.0, raw - zcr_parent / 2.0)
        self.my_dist_to_parent[zone_id] = dist
        self._consider_takeover(zone_id, dist)

    def _consider_takeover(self, zone_id: int, dist: float) -> None:
        if self.session.is_zcr(zone_id):
            # Incumbent: refresh the advertised parent distance; a material
            # change is re-announced at once so members holding stale
            # measurements re-evaluate without waiting a challenge cycle.
            old = self.session.zcr_parent_rtt.get(zone_id)
            self.session.zcr_parent_rtt[zone_id] = 2.0 * dist
            if old is None or abs(old - 2.0 * dist) > 2.0 * ZCR_TAKEOVER_MARGIN:
                self._send_takeover(zone_id)
            return
        incumbent = self.session.zcr_ids.get(zone_id)
        incumbent_rtt = self.session.zcr_parent_rtt.get(zone_id)
        margin = ZCR_TAKEOVER_MARGIN
        if incumbent is None or zone_id in self._suspect_dead or (
            incumbent_rtt is not None and 2.0 * dist < incumbent_rtt - 2.0 * margin
        ):
            # Suppression: closer candidates bid sooner.
            delay = 2.0 * dist + self._uniform(0.0, 0.01)
            self._takeover_timers[zone_id].restart(delay)

    # -------------------------------------------------------------- elections

    def handle_elect(self, pdu: ZcrElectPdu) -> None:
        """Candidate announcement of an explicit election round."""
        self.coordinator.handle_elect(pdu)

    def reassert(self, zone_id: int) -> None:
        """Incumbent re-announcement at the current epoch (keeps the role;
        used against stale election rounds and false death suspicions)."""
        if self.session.is_zcr(zone_id):
            self._send_takeover(zone_id)

    def claim(self, zone_id: int, epoch: int, dist: Optional[float]) -> None:
        """Won an election round: claim the zone at the round's epoch.

        A winner elected before measuring its parent distance (possible
        right after a crash wiped the zone's survivors' state) claims with
        the configured default; the next challenge cycle corrects it.
        """
        if self.my_dist_to_parent.get(zone_id) is None:
            self.my_dist_to_parent[zone_id] = (
                dist if dist is not None else DEFAULT_DISTANCE
            )
        self._send_takeover(zone_id, epoch=epoch)

    def forget_incumbent(self, zone_id: int) -> None:
        """Drop the zone's believed representative (election gave up).

        The bootstrap watchdog then re-elects through fresh challenge
        measurements; the kept epoch still fences off stale gossip.
        """
        self.session.zcr_ids[zone_id] = None
        self.session.zcr_parent_rtt.pop(zone_id, None)
        self._suspect_dead.discard(zone_id)
        if zone_id in self.electable:
            self._watchdog_timers[zone_id].restart(self._uniform(0.5, 1.5))

    # --------------------------------------------------------------- takeover

    def _send_takeover(self, zone_id: int, epoch: Optional[int] = None) -> None:
        dist = self.my_dist_to_parent.get(zone_id)
        if dist is None:
            return
        if epoch is None:
            # Reasserting / refreshing as the incumbent keeps the epoch;
            # usurping (or replacing a silent ZCR) starts a new round.
            epoch = self.session.zcr_epoch.get(zone_id, 0)
            if not self.session.is_zcr(zone_id):
                epoch += 1
        tracer = self.clock.tracer
        if tracer.wants("zcr.takeover"):
            tracer.emit(
                self.clock.now,
                "zcr.takeover",
                self.node_id,
                {"zone": zone_id, "epoch": epoch, "dist": dist},
            )
        parent_zone = self._parent_zone_id(zone_id)
        self._adopt_zcr(zone_id, self.node_id, dist, epoch)
        for target_zone in (zone_id, parent_zone):
            if target_zone is None:
                continue
            pdu = ZcrTakeoverPdu(
                src=self.node_id,
                group=self.channels.session_group(target_zone),
                size_bytes=ZCR_PDU_SIZE,
                zone_id=zone_id,
                dist_to_parent=dist,
                epoch=epoch,
            )
            self.transport.multicast(self.node_id, pdu)

    def handle_takeover(self, pdu: ZcrTakeoverPdu) -> None:
        """Accept, suppress against, or reassert over a takeover claim."""
        zone_id = pdu.zone_id
        if self.session.zone_level_index(zone_id) is None:
            # Heard on the parent channel while not a member of the child
            # zone: nothing to update (we track only our own chain).
            return
        margin = ZCR_TAKEOVER_MARGIN
        mine = self.my_dist_to_parent.get(zone_id)
        takeover_timer = self._takeover_timers.get(zone_id)
        if takeover_timer is not None and takeover_timer.running:
            if mine is None or pdu.dist_to_parent <= mine + margin:
                takeover_timer.cancel()
        our_epoch = self.session.zcr_epoch.get(zone_id, 0)
        if pdu.epoch < our_epoch:
            return  # a stale claim from a superseded election round
        if (
            self.session.is_zcr(zone_id)
            and mine is not None
            and mine < pdu.dist_to_parent - margin
        ):
            # The old ZCR is still closer: reassert superiority (§5.2).  A
            # false death-suspicion may carry a higher epoch — answer in
            # that epoch so the reassertion wins the new round on distance.
            if pdu.epoch > our_epoch:
                self.session.zcr_epoch[zone_id] = pdu.epoch
            self._send_takeover(zone_id)
            return
        # Closest-wins adoption within an epoch: concurrent bootstrap claims
        # can cross in flight, so an inferior late arrival must not displace
        # a better incumbent (node-id tie-break keeps members consistent).
        # A higher epoch always wins: it marks a post-failure re-election.
        current = self.session.zcr_ids.get(zone_id)
        current_rtt = self.session.zcr_parent_rtt.get(zone_id)
        claim_rtt = 2.0 * pdu.dist_to_parent
        if (
            pdu.epoch == our_epoch
            and current is not None
            and current != pdu.src
            and current_rtt is not None
            and zone_id not in self._suspect_dead
        ):
            if claim_rtt > current_rtt + 2.0 * margin:
                return  # the incumbent we know of is strictly closer
            if abs(claim_rtt - current_rtt) <= 2.0 * margin and pdu.src > current:
                return  # tie: lower node id wins everywhere
        refresh = current == pdu.src and current_rtt is not None and (
            abs(claim_rtt - current_rtt) > 1e-9
        )
        self._adopt_zcr(zone_id, pdu.src, pdu.dist_to_parent, pdu.epoch)
        if refresh:
            # The incumbent re-announced a changed distance: our own stored
            # measurement can be re-evaluated against it right away.
            self.reconsider(zone_id)

    def _adopt_zcr(
        self, zone_id: int, new_zcr: int, dist: float, epoch: Optional[int] = None
    ) -> None:
        was_me = self.session.is_zcr(zone_id)
        self._suspect_dead.discard(zone_id)
        belief_changed = self.session.zcr_ids.get(zone_id) != new_zcr
        if belief_changed:
            # Composed raw measurements reference the old ZCR's position.
            self._raw_measure.pop(zone_id, None)
        self.session.zcr_ids[zone_id] = new_zcr
        self.session.zcr_parent_rtt[zone_id] = 2.0 * dist
        if epoch is not None and epoch > self.session.zcr_epoch.get(zone_id, 0):
            self.session.zcr_epoch[zone_id] = epoch
        if zone_id in self.electable:
            if new_zcr == self.node_id:
                self._hold(zone_id)
            else:
                if was_me:
                    self._challenge_timers.cancel(zone_id)
                self._watchdog_timers[zone_id].restart(self._watchdog_delay())
        if was_me and new_zcr != self.node_id:
            # Adopted a rival claim that displaced us (handle_takeover
            # already reasserted if we were strictly closer, so this
            # deposition stands — record it for the obs layer).
            self.coordinator.on_deposed(zone_id, new_zcr, 2.0 * dist)
        self.coordinator.on_belief_sync(zone_id)
        if belief_changed and self.session.on_role_change is not None:
            # Repair-duty handoff (failover hardening): the endpoint learns
            # the zone changed hands — if *we* are the new representative
            # it must take over the dead predecessor's repair queues.
            self.session.on_role_change(zone_id)
