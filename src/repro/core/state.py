"""Per-group receiver/repairer state (§4).

``GroupState`` tracks one FEC group at one endpoint: which packet
identities arrived, the Local Loss Count, per-zone Zone Loss Counts, the
highest known packet identifier, the NACK escalation position, and the
speculative repair queues an endpoint maintains as a potential repairer.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.core.config import MAX_IDENTITY
from repro.errors import CodecError


class GroupState:
    """State for one packet group at one endpoint."""

    __slots__ = (
        "group_id",
        "k",
        "indices",
        "data_count",
        "max_data_index_seen",
        "counted_lost",
        "loss_scanned",
        "zlc",
        "highest_known",
        "complete",
        "repair_phase",
        "backoff_i",
        "attempt_zone_index",
        "attempts_at_zone",
        "stalled_fires",
        "outstanding",
        "fec_heard",
        "zlc_sampled",
        "first_arrival",
        "last_arrival",
        "completed_at",
        "nack_sent_count",
        "repairs_sent",
    )

    def __init__(self, group_id: int, k: int, zone_ids: Sequence[int]) -> None:
        self.group_id = group_id
        self.k = k
        self.indices: Set[int] = set()
        self.data_count = 0
        self.max_data_index_seen = -1
        self.counted_lost: Set[int] = set()
        # Data indices below this were already classified (arrived or
        # counted lost); both sets only grow, so they never need a rescan.
        self.loss_scanned = 0
        # zone_id -> max loss count reported by any receiver in that zone.
        self.zlc: Dict[int, int] = {zid: 0 for zid in zone_ids}
        # Identifiers 0..k-1 are known to exist a priori (group size is
        # advertised), so the initial highest identifier is k-1.
        self.highest_known = k - 1
        self.complete = k == 0
        self.repair_phase = False
        self.backoff_i = 1
        self.attempt_zone_index = 0
        self.attempts_at_zone = 0
        # Request-timer firings since the last new packet arrived — the
        # give-up counter behind bounded zone escalation.
        self.stalled_fires = 0
        # zone_id -> speculative repair queue depth (as a repairer).
        self.outstanding: Dict[int, int] = {zid: 0 for zid in zone_ids}
        # zone_id -> FEC packets heard on channels whose scope covers that
        # zone (drives both queue decrements and injection subtraction).
        self.fec_heard: Dict[int, int] = {zid: 0 for zid in zone_ids}
        self.zlc_sampled = False
        self.first_arrival: Optional[float] = None
        self.last_arrival: Optional[float] = None
        self.completed_at: Optional[float] = None
        self.nack_sent_count = 0
        self.repairs_sent = 0

    # ------------------------------------------------------------------ intake

    def record_index(self, index: int, now: Optional[float] = None) -> bool:
        """Record packet identity ``index``; returns True if new.  One the
        erasure code cannot produce raises :class:`CodecError`."""
        if index in self.indices:
            return False
        if not 0 <= index <= MAX_IDENTITY:
            raise CodecError(f"group {self.group_id}: identity {index} is not in the code")
        self.indices.add(index)
        self.stalled_fires = 0
        if index < self.k:
            self.data_count += 1
            if index > self.max_data_index_seen:
                self.max_data_index_seen = index
        if index > self.highest_known:
            self.highest_known = index
        if now is not None:
            if self.first_arrival is None:
                self.first_arrival = now
            self.last_arrival = now
        if len(self.indices) >= self.k and not self.complete:
            self.complete = True
            self.completed_at = now
        return True

    def count_data_losses_before(self, index: int) -> int:
        """Mark data indices ``< index`` that never arrived as lost.

        Returns the number of *newly* detected losses.
        """
        end = min(index, self.k)
        start = self.loss_scanned
        if end <= start:
            return 0
        self.loss_scanned = end
        new = 0
        for j in range(start, end):
            if j not in self.indices:
                self.counted_lost.add(j)
                new += 1
        return new

    def finalize_data_losses(self) -> int:
        """All unseen data indices are lost (LDP expiry / next group seen)."""
        return self.count_data_losses_before(self.k)

    # ------------------------------------------------------------------- query

    @property
    def llc(self) -> int:
        """Local Loss Count: original packets known lost in transit."""
        return len(self.counted_lost)

    def deficit(self) -> int:
        """Packets still needed to reconstruct the group."""
        return max(0, self.k - len(self.indices))

    def received(self) -> int:
        """Distinct packet identities seen."""
        return len(self.indices)

    def zlc_for(self, zone_id: int) -> int:
        """Current Zone Loss Count estimate for one zone."""
        return self.zlc.get(zone_id, 0)

    def raise_zlc(self, zone_id: int, value: int) -> bool:
        """Update a zone's ZLC; returns True if it increased."""
        if value > self.zlc.get(zone_id, 0):
            self.zlc[zone_id] = value
            return True
        return False

    # -------------------------------------------------------------- identities

    def allocate_repair_index(self) -> int:
        """Next unused packet identifier for a repair we are about to send
        (:class:`CodecError` once the erasure code has none left)."""
        if self.highest_known >= MAX_IDENTITY:
            raise CodecError(f"group {self.group_id}: no repair identity left in the code")
        self.highest_known += 1
        self.repairs_sent += 1
        return self.highest_known

    def note_highest(self, identifier: int) -> None:
        """Fold in a higher identifier seen in a NACK or FEC announcement."""
        if identifier > self.highest_known:
            self.highest_known = identifier

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<GroupState g={self.group_id} {len(self.indices)}/{self.k}"
            f" llc={self.llc}{' done' if self.complete else ''}>"
        )
