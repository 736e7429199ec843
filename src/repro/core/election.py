"""Failure detection and explicit ZCR election rounds.

The paper's challenge/response machinery (:mod:`repro.core.zcr`) keeps a
healthy zone converged on its closest member, but its only death signal is
challenge silence — a full watchdog period — and its takeover bids race
freely, which survives single well-spaced crashes and little else.  This
module layers the production failover path on top:

* A **failure detector** per zone derives ZCR liveness from session-message
  silence.  A zone's representative speaks on the zone's session channel
  about once per ``SESSION_INTERVAL``, and session PDUs are loss-exempt
  (§6.2), so silence past ``ZCR_LIVENESS_TIMEOUT`` means crash, partition,
  or divergent belief — never congestive loss.  All three are exactly the
  cases an election repairs.

* An explicit **election state machine** per zone, run over the zone's own
  session channel.  Rounds are keyed ``(epoch, attempt)`` with the epoch
  above the zone's current election epoch; candidates announce their
  measured parent distance with suppression (a candidate stays quiet once
  a better one has spoken); the winner is chosen deterministically by
  distance bucket then node id, so every connected member computes the
  same outcome.  A computed winner that never follows through with a
  takeover (it died mid-election, or it flaps) lands in a failed-candidate
  set and the round retries with exponential backoff, bounded by
  ``ZCR_ELECTION_MAX_RETRIES`` before the zone falls back to the bootstrap
  watchdog path.

* **Split-brain reconciliation**: when a heal merges two partition halves
  that each elected a representative, epoch ordering deposes one side; the
  deposed incumbent that is in fact strictly closer forces a single
  deterministic re-election round (reason ``"reconcile"``) at a higher
  epoch rather than re-entering a takeover shouting match.  The repair
  half of reconciliation — the deposed side handing off its speculative
  repair queues — lives in the endpoint (:mod:`repro.core.agent`).

The election emits a takeover at the round's epoch, so adoption rides the
existing higher-epoch-wins rule in :meth:`ZcrElection.handle_takeover` and
is idempotent against stale claims.  Every timer draws from this node's
seeded RNG stream; runs replay bit-identically.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple, TYPE_CHECKING

from repro.core.config import (
    DEFAULT_DISTANCE, ZCR_ELECTION_MAX_RETRIES, ZCR_ELECTION_RETRY_BASE,
    ZCR_ELECTION_WINDOW, ZCR_LIVENESS_TIMEOUT, ZCR_PDU_SIZE, ZCR_TAKEOVER_MARGIN,
)
from repro.core.pdus import ZcrElectPdu
from repro.sim.timers import TimerTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (zcr imports us)
    from repro.core.zcr import ZcrElection

#: Sentinel for "no measured distance to the parent ZCR yet".
UNKNOWN_DIST = -1.0


def candidate_key(dist: float, node_id: int, quantum: float) -> Tuple[int, int, int]:
    """Total order over candidates: measured beats unknown, closer beats
    farther (quantized to ``quantum`` so float noise cannot split members),
    and the node id breaks ties identically everywhere."""
    if dist < 0.0:
        return (1, 0, node_id)
    return (0, int(round(dist / quantum)), node_id)


class ZoneRound:
    """One election round of one zone, as seen by one member."""

    __slots__ = ("epoch", "attempt", "reason", "started_at", "candidates", "announced")

    def __init__(self, epoch: int, attempt: int, reason: str, started_at: float) -> None:
        self.epoch = epoch
        self.attempt = attempt
        self.reason = reason
        self.started_at = started_at
        # candidate node id -> announced distance to the parent ZCR.
        self.candidates: Dict[int, float] = {}
        self.announced = False


class ElectionCoordinator:
    """Failure detector plus election rounds for one node's zone chain."""

    def __init__(self, zcr: "ZcrElection") -> None:
        self.zcr = zcr
        self.session = zcr.session
        self.clock = zcr.clock
        self.transport = zcr.transport
        self.channels = zcr.channels
        self.node_id = zcr.node_id
        self._rng = None  # built on the first draw
        self.electable = zcr.electable
        # Per electable zone:
        self._rounds: Dict[int, ZoneRound] = {}
        # zone -> computed winners that never produced a takeover.  Cleared
        # on adoption: a node that came back is a candidate again.
        self._failed: Dict[int, Set[int]] = {}
        # zone -> last belief we synced against (change detection).
        self._last_belief: Dict[int, Optional[int]] = {}
        # zone -> (suspect time, suspected node) until failover completes.
        self._suspect_at: Dict[int, Tuple[float, int]] = {}
        # Timers, each built when first armed.
        self._detectors = TimerTable(self.clock, self._on_detector, f"zcrfd@{self.node_id}")
        self._resolvers = TimerTable(self.clock, self._on_resolve, f"zcrres@{self.node_id}")
        self._confirms = TimerTable(self.clock, self._on_confirm, f"zcrcfm@{self.node_id}")
        self._retries = TimerTable(self.clock, self._on_retry, f"zcrrty@{self.node_id}")

    # -------------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Arm the failure detector on every zone with a known foreign ZCR."""
        for zid in self.electable:
            self._last_belief[zid] = self.session.zcr_ids.get(zid)
            self._watch(zid)

    def stop(self) -> None:
        """Cancel every pending timer (crash path)."""
        for table in (self._detectors, self._resolvers, self._confirms, self._retries):
            table.cancel_all()

    def reset(self) -> None:
        """Discard all election state (crash-restart path): a revived node
        must re-learn the zone's representative, not resume a pre-crash
        round or hold grudges in the failed-candidate set."""
        self.stop()
        self._rounds.clear()
        self._failed.clear()
        self._last_belief.clear()
        self._suspect_at.clear()

    # ------------------------------------------------------- failure detector

    def _uniform(self, lo: float, hi: float) -> float:
        rng = self._rng
        if rng is None:
            rng = self._rng = self.clock.rng.stream(f"zcrelect.{self.node_id}")
        return rng.uniform(lo, hi)

    def _deadline(self) -> float:
        # Jittered per node so concurrent believers do not all declare the
        # same suspect in the same instant (the first election absorbs the
        # rest as joiners, but staggering keeps announcement traffic low).
        return ZCR_LIVENESS_TIMEOUT * self._uniform(0.9, 1.2)

    def _watch(self, zone_id: int) -> None:
        if zone_id not in self.electable:
            return
        believed = self.session.zcr_ids.get(zone_id)
        if believed is None or believed == self.node_id:
            self._detectors.cancel(zone_id)
        else:
            self._detectors[zone_id].restart(self._deadline())

    def note_alive(self, zone_id: int) -> None:
        """Liveness evidence for the believed ZCR of ``zone_id`` arrived."""
        if zone_id in self._rounds:
            # A round is in flight: let it resolve.  A live incumbent is a
            # candidate in it and wins on distance at the higher epoch.
            return
        believed = self.session.zcr_ids.get(zone_id)
        if zone_id in self.electable and believed not in (None, self.node_id):
            self._detectors[zone_id].restart(self._deadline())

    def _on_detector(self, zone_id: int) -> None:
        believed = self.session.zcr_ids.get(zone_id)
        if believed is None or believed == self.node_id or zone_id in self._rounds:
            return
        now = self.clock.now
        self._suspect_at.setdefault(zone_id, (now, believed))
        self._failed.setdefault(zone_id, set()).add(believed)
        tracer = self.clock.tracer
        if tracer.wants("zcr.suspect"):
            tracer.emit(
                now,
                "zcr.suspect",
                self.node_id,
                {"zone": zone_id, "zcr": believed},
            )
        self.start_election(zone_id, "liveness")

    # ----------------------------------------------------------------- rounds

    def start_election(self, zone_id: int, reason: str) -> None:
        """Open a round above the zone's current epoch (idempotent while a
        round at least that new is already in flight)."""
        if zone_id not in self.electable:
            return
        epoch = self.session.zcr_epoch.get(zone_id, 0) + 1
        existing = self._rounds.get(zone_id)
        if existing is not None and existing.epoch >= epoch:
            return
        self._begin_round(zone_id, epoch, 0, reason)

    def _begin_round(self, zone_id: int, epoch: int, attempt: int, reason: str) -> None:
        now = self.clock.now
        rnd = ZoneRound(epoch, attempt, reason, now)
        self._rounds[zone_id] = rnd
        self._confirms.cancel(zone_id)
        self._retries.cancel(zone_id)
        tracer = self.clock.tracer
        if tracer.wants("zcr.election"):
            tracer.emit(
                now,
                "zcr.election",
                self.node_id,
                {"zone": zone_id, "epoch": epoch, "attempt": attempt, "reason": reason},
            )
        self._announce(zone_id, rnd)
        self._resolvers[zone_id].restart(self._window())

    def _window(self) -> float:
        return ZCR_ELECTION_WINDOW * self._uniform(0.95, 1.05)

    def _my_dist(self, zone_id: int) -> float:
        dist = self.zcr.my_dist_to_parent.get(zone_id)
        return UNKNOWN_DIST if dist is None else dist

    def _announce(self, zone_id: int, rnd: ZoneRound) -> None:
        rnd.announced = True
        dist = self._my_dist(zone_id)
        rnd.candidates[self.node_id] = dist
        pdu = ZcrElectPdu(
            src=self.node_id,
            group=self.channels.session_group(zone_id),
            size_bytes=ZCR_PDU_SIZE,
            zone_id=zone_id,
            epoch=rnd.epoch,
            attempt=rnd.attempt,
            dist_to_parent=dist,
        )
        self.transport.multicast(self.node_id, pdu)

    def _beats_all(self, zone_id: int, rnd: ZoneRound) -> bool:
        quantum = ZCR_TAKEOVER_MARGIN
        mine = candidate_key(self._my_dist(zone_id), self.node_id, quantum)
        return all(
            mine < candidate_key(dist, cand, quantum)
            for cand, dist in rnd.candidates.items()
        )

    def handle_elect(self, pdu: ZcrElectPdu) -> None:
        """A peer announced candidacy: join/refresh the round, and announce
        ourselves only while we would beat every candidate heard so far."""
        zone_id = pdu.zone_id
        if zone_id not in self.electable:
            return
        our_epoch = self.session.zcr_epoch.get(zone_id, 0)
        if pdu.epoch <= our_epoch:
            # A stale round (we already adopted a representative at this
            # epoch or later).  If that representative is us, the announcer
            # missed our adoption: reassert so the false suspicion dies.
            if self.session.is_zcr(zone_id):
                self.zcr.reassert(zone_id)
            return
        rnd = self._rounds.get(zone_id)
        key = (pdu.epoch, pdu.attempt)
        if rnd is None or key > (rnd.epoch, rnd.attempt):
            rnd = ZoneRound(pdu.epoch, pdu.attempt, "joined", self.clock.now)
            self._rounds[zone_id] = rnd
            self._confirms.cancel(zone_id)
            self._retries.cancel(zone_id)
            self._resolvers[zone_id].restart(self._window())
        elif key < (rnd.epoch, rnd.attempt):
            return
        rnd.candidates[pdu.candidate_id] = pdu.dist_to_parent
        if not rnd.announced and self._beats_all(zone_id, rnd):
            self._announce(zone_id, rnd)

    def _winner(self, zone_id: int, rnd: ZoneRound) -> Optional[int]:
        failed = self._failed.get(zone_id, ())
        quantum = ZCR_TAKEOVER_MARGIN
        best: Optional[int] = None
        best_key: Optional[Tuple[int, int, int]] = None
        for cand, dist in rnd.candidates.items():
            if cand in failed:
                continue
            key = candidate_key(dist, cand, quantum)
            if best_key is None or key < best_key:
                best, best_key = cand, key
        return best

    def _on_resolve(self, zone_id: int) -> None:
        rnd = self._rounds.get(zone_id)
        if rnd is None:
            return
        winner = self._winner(zone_id, rnd)
        if winner is None:
            # Every announced candidate is on the failed list.
            self._next_attempt(zone_id, rnd)
        elif winner == self.node_id:
            dist = self._my_dist(zone_id)
            self.zcr.claim(zone_id, rnd.epoch, None if dist < 0.0 else dist)
            # claim() adopts locally, which clears the round via
            # on_belief_sync before this frame returns.
        else:
            # Wait for the winner's takeover; its absence marks it failed.
            self._confirms[zone_id].restart(
                self._window() + 2.0 * DEFAULT_DISTANCE
            )

    def _on_confirm(self, zone_id: int) -> None:
        rnd = self._rounds.get(zone_id)
        if rnd is None:
            return
        if (
            self.session.zcr_ids.get(zone_id) is not None
            and self.session.zcr_epoch.get(zone_id, 0) >= rnd.epoch
        ):
            # An adoption landed without passing through on_belief_sync
            # (defensive; adoption normally clears the round already).
            self._clear_round(zone_id)
            return
        winner = self._winner(zone_id, rnd)
        if winner is not None and winner != self.node_id:
            self._failed.setdefault(zone_id, set()).add(winner)
        self._next_attempt(zone_id, rnd)

    def _next_attempt(self, zone_id: int, rnd: ZoneRound) -> None:
        if rnd.attempt + 1 > ZCR_ELECTION_MAX_RETRIES:
            self._give_up(zone_id)
            return
        delay = (
            ZCR_ELECTION_RETRY_BASE
            * (2.0 ** min(rnd.attempt, 4))
            * self._uniform(0.8, 1.2)
        )
        self._retries[zone_id].restart(delay)

    def _on_retry(self, zone_id: int) -> None:
        rnd = self._rounds.get(zone_id)
        if rnd is None:
            return
        self._begin_round(zone_id, rnd.epoch, rnd.attempt + 1, rnd.reason)

    def _give_up(self, zone_id: int) -> None:
        """Bounded retries exhausted: hand the zone back to the paper's
        bootstrap watchdog, which re-elects through fresh measurements."""
        self._clear_round(zone_id)
        self._failed.pop(zone_id, None)
        self._suspect_at.pop(zone_id, None)
        self.zcr.forget_incumbent(zone_id)
        self._last_belief[zone_id] = self.session.zcr_ids.get(zone_id)

    def _clear_round(self, zone_id: int) -> None:
        self._rounds.pop(zone_id, None)
        for table in (self._resolvers, self._confirms, self._retries):
            table.cancel(zone_id)

    # ------------------------------------------------------- belief tracking

    def on_belief_sync(self, zone_id: int) -> None:
        """Called after any ZCR-belief mutation (takeover adoption or
        session gossip): settle rounds, measure failover, re-arm the
        detector."""
        if zone_id not in self.electable:
            return
        belief = self.session.zcr_ids.get(zone_id)
        changed = belief != self._last_belief.get(zone_id)
        self._last_belief[zone_id] = belief
        rnd = self._rounds.get(zone_id)
        if (
            rnd is not None
            and belief is not None
            and self.session.zcr_epoch.get(zone_id, 0) >= rnd.epoch
        ):
            self._clear_round(zone_id)
            self._failed.pop(zone_id, None)
        if changed and belief is not None:
            suspect = self._suspect_at.pop(zone_id, None)
            if suspect is not None and belief != suspect[1]:
                latency = self.clock.now - suspect[0]
                tracer = self.clock.tracer
                if tracer.wants("zcr.failover"):
                    tracer.emit(
                        self.clock.now,
                        "zcr.failover",
                        self.node_id,
                        {"zone": zone_id, "zcr": belief, "latency": latency},
                    )
        self._watch(zone_id)

    def on_deposed(self, zone_id: int, rival: int, rival_parent_rtt: Optional[float]) -> None:
        """We held the zone and a higher-epoch rival displaced us — the
        split-brain merge case.  Accept if the rival is at least as close;
        force one deterministic re-election round if we are strictly
        closer (it converges: the next round's epoch beats the rival's, we
        win on distance, and the rival has no counter-claim)."""
        tracer = self.clock.tracer
        if tracer.wants("zcr.deposed"):
            tracer.emit(
                self.clock.now,
                "zcr.deposed",
                self.node_id,
                {
                    "zone": zone_id,
                    "rival": rival,
                    "epoch": self.session.zcr_epoch.get(zone_id, 0),
                },
            )
        mine = self.zcr.my_dist_to_parent.get(zone_id)
        margin = ZCR_TAKEOVER_MARGIN
        if (
            mine is not None
            and rival_parent_rtt is not None
            and 2.0 * mine < rival_parent_rtt - 2.0 * margin
        ):
            self.start_election(zone_id, "reconcile")
