"""SHARQFEC protocol data units.

Packet ``kind`` strings double as traffic-monitor categories; the figures
aggregate ``DATA`` + ``FEC`` ("data and repair traffic") and ``NACK``.

Per the paper's simulation setup (§6.2), session traffic and NACKs are not
subject to loss — their PDUs are created ``loss_exempt``.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.net.packet import Packet


class DataPdu(Packet):
    """An original data packet of the CBR stream."""

    __slots__ = ("seq", "group_id", "index", "payload")

    def __init__(
        self,
        src: int,
        group: int,
        size_bytes: int,
        seq: int,
        group_id: int,
        index: int,
        payload: Optional[bytes] = None,
    ) -> None:
        super().__init__("DATA", src, group, size_bytes)
        self.seq = seq
        self.group_id = group_id
        self.index = index
        self.payload = payload

    _DESCRIBE_FIELDS = ("seq", "group_id", "index", "payload")


class FecPdu(Packet):
    """A repair packet: FEC identity ``index`` (>= k) of ``group_id``.

    ``new_high_id`` announces "what will be the new highest packet
    identifier" (§4) so other repairers avoid duplicating identities.
    ``zone_level`` records which scope's repair channel it was sent on.
    """

    __slots__ = ("group_id", "index", "new_high_id", "zone_id", "payload")

    def __init__(
        self,
        src: int,
        group: int,
        size_bytes: int,
        group_id: int,
        index: int,
        new_high_id: int,
        zone_id: int,
        payload: Optional[bytes] = None,
    ) -> None:
        super().__init__("FEC", src, group, size_bytes)
        self.group_id = group_id
        self.index = index
        self.new_high_id = new_high_id
        self.zone_id = zone_id
        self.payload = payload

    _DESCRIBE_FIELDS = ("group_id", "index", "new_high_id", "zone_id", "payload")


class RttChainEntry(NamedTuple):
    """One ancestor-ZCR hop in a NACK's RTT chain (§5.1).

    Attributes:
        zone_id: the zone whose ZCR this is.
        zcr_id: that zone's Zone Closest Receiver.
        rtt_to_sender: the NACK sender's RTT estimate to that ZCR.
    """

    zone_id: int
    zcr_id: int
    rtt_to_sender: float


class NackPdu(Packet):
    """A repair request.

    Carries the sender's Local Loss Count, the greatest packet identifier it
    has seen for the group, and how many more packets it needs (§4) — never
    the identity of a specific packet.  The ``rtt_chain`` lets any hearer
    estimate its RTT to the sender indirectly (§5.1).
    """

    __slots__ = ("group_id", "llc", "highest_seen", "n_needed", "zone_id", "rtt_chain")

    def __init__(
        self,
        src: int,
        group: int,
        size_bytes: int,
        group_id: int,
        llc: int,
        highest_seen: int,
        n_needed: int,
        zone_id: int,
        rtt_chain: Tuple[RttChainEntry, ...] = (),
    ) -> None:
        super().__init__("NACK", src, group, size_bytes, loss_exempt=True)
        self.group_id = group_id
        self.llc = llc
        self.highest_seen = highest_seen
        self.n_needed = n_needed
        self.zone_id = zone_id
        self.rtt_chain = rtt_chain

    _DESCRIBE_FIELDS = (
        "group_id",
        "llc",
        "highest_seen",
        "n_needed",
        "zone_id",
        "rtt_chain",
    )


class SessionEntry(NamedTuple):
    """Per-peer record inside a session message (§5).

    Attributes:
        peer_id: the receiver this entry describes.
        peer_timestamp: the send-time of the last session message heard from
            that peer (echoed back so the peer can close the RTT loop).
        elapsed: time between hearing that message and sending this one.
        rtt_estimate: the sender's current RTT estimate to the peer (or a
            negative value when unknown).
    """

    peer_id: int
    peer_timestamp: float
    elapsed: float
    rtt_estimate: float


class EchoPdu(Packet):
    """A session message: one echo row about each peer its sender has heard.

    The base of SHARQFEC's scoped :class:`SessionPdu` and SRM's full-mesh
    ``SrmSessionPdu``.  ``entries`` holds named tuples that start with
    ``peer_id``; :meth:`echo_index` is how a hearer finds the row about
    itself.
    """

    __slots__ = ("entries", "_echo_index")

    def __init__(self, src: int, group: int, size_bytes: int, entries: Tuple) -> None:
        super().__init__("SESSION", src, group, size_bytes, loss_exempt=True)
        self.entries = entries
        self._echo_index: Optional[Dict[int, NamedTuple]] = None

    def echo_index(self) -> Dict[int, NamedTuple]:
        """``peer_id -> entry`` over :attr:`entries`.

        Built by the first hearer and shared by the rest: the simulator
        delivers one PDU object per send, so a zone of n members pays for
        one index instead of n scans.  A peer listed twice has no single
        echo to close; such a message is refused, not resolved by order.
        """
        index = self._echo_index
        if index is None:
            index = {entry.peer_id: entry for entry in self.entries}
            if len(index) != len(self.entries):
                raise ValueError(
                    f"session message from {self.src} lists a peer more than once"
                )
            self._echo_index = index
        return index

    def __getstate__(self):
        # The index is a per-process cache; it must not ride a shard pipe.
        slots = {
            name: getattr(self, name)
            for klass in type(self).__mro__
            for name in getattr(klass, "__slots__", ())
        }
        slots["_echo_index"] = None
        return None, slots


class SessionPdu(EchoPdu):
    """A scoped session message (§5).

    Contains the sender's timestamp, the zone's ZCR identity (with its
    election epoch), the recorded ZCR-to-parent-ZCR distance, and one
    :class:`SessionEntry` per peer heard in this zone.
    """

    __slots__ = (
        "zone_id",
        "timestamp",
        "zcr_id",
        "zcr_parent_rtt",
        "zcr_epoch",
        "highest_group",
    )

    def __init__(
        self,
        src: int,
        group: int,
        size_bytes: int,
        zone_id: int,
        timestamp: float,
        zcr_id: int,
        zcr_parent_rtt: float,
        entries: Tuple[SessionEntry, ...],
        zcr_epoch: int = 0,
        highest_group: int = -1,
    ) -> None:
        super().__init__(src, group, size_bytes, entries)
        self.zone_id = zone_id
        self.timestamp = timestamp
        self.zcr_id = zcr_id
        self.zcr_parent_rtt = zcr_parent_rtt
        self.zcr_epoch = zcr_epoch
        # Highest group whose data transmission is known finished, or -1:
        # the stream-extent advertisement that lets (re)joining receivers
        # detect wholly-missed groups (SRM session highest_seq analogue).
        self.highest_group = highest_group

    _DESCRIBE_FIELDS = (
        "zone_id",
        "timestamp",
        "zcr_id",
        "zcr_parent_rtt",
        "zcr_epoch",
        "highest_group",
        "entries",
    )


class ZcrChallengePdu(Packet):
    """ZCR challenge: sent toward the parent ZCR; zone peers overhear (§5.2)."""

    __slots__ = ("zone_id", "challenger_id", "sent_at")

    def __init__(
        self,
        src: int,
        group: int,
        size_bytes: int,
        zone_id: int,
        sent_at: float,
    ) -> None:
        super().__init__("ZCR_CHAL", src, group, size_bytes, loss_exempt=True)
        self.zone_id = zone_id
        self.challenger_id = src
        self.sent_at = sent_at

    _DESCRIBE_FIELDS = ("zone_id", "challenger_id", "sent_at")


class ZcrResponsePdu(Packet):
    """Parent ZCR's response, carrying its processing delay (§5.2)."""

    __slots__ = ("zone_id", "challenger_id", "processing_delay")

    def __init__(
        self,
        src: int,
        group: int,
        size_bytes: int,
        zone_id: int,
        challenger_id: int,
        processing_delay: float,
    ) -> None:
        super().__init__("ZCR_RESP", src, group, size_bytes, loss_exempt=True)
        self.zone_id = zone_id
        self.challenger_id = challenger_id
        self.processing_delay = processing_delay

    _DESCRIBE_FIELDS = ("zone_id", "challenger_id", "processing_delay")


class ZcrTakeoverPdu(Packet):
    """Announcement that the sender is the zone's new closest receiver (§5.2).

    ``epoch`` orders competing claims across election rounds: a takeover
    issued after a ZCR failure carries a higher epoch and beats any stale
    state advertising the dead representative, however short its recorded
    distance.
    """

    __slots__ = ("zone_id", "dist_to_parent", "epoch")

    def __init__(
        self,
        src: int,
        group: int,
        size_bytes: int,
        zone_id: int,
        dist_to_parent: float,
        epoch: int = 0,
    ) -> None:
        super().__init__("ZCR_TAKE", src, group, size_bytes, loss_exempt=True)
        self.zone_id = zone_id
        self.dist_to_parent = dist_to_parent
        self.epoch = epoch

    _DESCRIBE_FIELDS = ("zone_id", "dist_to_parent", "epoch")


class ZcrElectPdu(Packet):
    """Candidate announcement of one explicit election round.

    Rounds are identified by ``(epoch, attempt)``: the epoch exceeds the
    zone's current election epoch (so the eventual takeover wins on the
    existing higher-epoch-wins rule) and the attempt counts bounded retries
    after a computed winner died mid-election.  ``dist_to_parent`` is the
    candidate's measured one-way distance to the parent ZCR, or negative
    when unmeasured — unknown distances rank after every measured one.
    """

    __slots__ = ("zone_id", "epoch", "attempt", "candidate_id", "dist_to_parent")

    def __init__(
        self,
        src: int,
        group: int,
        size_bytes: int,
        zone_id: int,
        epoch: int,
        attempt: int,
        dist_to_parent: float,
    ) -> None:
        super().__init__("ZCR_ELECT", src, group, size_bytes, loss_exempt=True)
        self.zone_id = zone_id
        self.epoch = epoch
        self.attempt = attempt
        self.candidate_id = src
        self.dist_to_parent = dist_to_parent

    _DESCRIBE_FIELDS = ("zone_id", "epoch", "attempt", "candidate_id", "dist_to_parent")


class ZcrReconcilePdu(Packet):
    """Repair-state handoff from a deposed zone representative.

    When a partition heals, the losing side's representative is deposed by
    the higher-epoch winner; before going quiet it broadcasts its
    speculative outstanding-repair queues as ``(group_id, n)`` pairs.
    Hearers fold these in with a **max-merge** (never a sum), so the repair
    need both split-brain halves tracked independently is served exactly
    once — no duplicate injections, no re-repair of healed extents.
    """

    __slots__ = ("zone_id", "epoch", "outstanding")

    def __init__(
        self,
        src: int,
        group: int,
        size_bytes: int,
        zone_id: int,
        epoch: int,
        outstanding: Tuple[Tuple[int, int], ...],
    ) -> None:
        super().__init__("ZCR_RECON", src, group, size_bytes, loss_exempt=True)
        self.zone_id = zone_id
        self.epoch = epoch
        self.outstanding = outstanding

    _DESCRIBE_FIELDS = ("zone_id", "epoch", "outstanding")
