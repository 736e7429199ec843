"""SRM protocol data units."""

from __future__ import annotations

from typing import NamedTuple, Tuple

from repro.core.pdus import EchoPdu
from repro.net.packet import Packet


class SrmDataPdu(Packet):
    """An original data packet (sequence-numbered, no grouping)."""

    __slots__ = ("seq",)

    def __init__(self, src: int, group: int, size_bytes: int, seq: int) -> None:
        super().__init__("DATA", src, group, size_bytes)
        self.seq = seq

    _DESCRIBE_FIELDS = ("seq",)


class SrmRequestPdu(Packet):
    """A repair request for one specific sequence number."""

    __slots__ = ("seq",)

    def __init__(self, src: int, group: int, size_bytes: int, seq: int) -> None:
        super().__init__("NACK", src, group, size_bytes, loss_exempt=True)
        self.seq = seq

    _DESCRIBE_FIELDS = ("seq",)


class SrmRepairPdu(Packet):
    """A retransmission of one original packet."""

    __slots__ = ("seq",)

    def __init__(self, src: int, group: int, size_bytes: int, seq: int) -> None:
        super().__init__("REPAIR", src, group, size_bytes)
        self.seq = seq

    _DESCRIBE_FIELDS = ("seq",)


class SrmSessionEntry(NamedTuple):
    """Echo record about one peer (same role as SHARQFEC's SessionEntry)."""

    peer_id: int
    peer_timestamp: float
    elapsed: float


class SrmSessionPdu(EchoPdu):
    """Full-mesh session message: timestamp echoes + highest sequence seen.

    The advertised ``highest_seq`` lets receivers detect tail losses that
    sequence gaps cannot reveal — standard SRM session semantics.
    """

    __slots__ = ("timestamp", "highest_seq")

    def __init__(
        self,
        src: int,
        group: int,
        size_bytes: int,
        timestamp: float,
        highest_seq: int,
        entries: Tuple[SrmSessionEntry, ...],
    ) -> None:
        super().__init__(src, group, size_bytes, entries)
        self.timestamp = timestamp
        self.highest_seq = highest_seq

    _DESCRIBE_FIELDS = ("timestamp", "highest_seq", "entries")
