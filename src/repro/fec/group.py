"""Incremental packet-group assembly.

A receiver's view of one in-flight group: which packet indices have arrived,
whether the group is reconstructable, and the actual reconstruction, for
callers that move real bytes (``examples/file_transfer.py``).  The protocol
agents track identities only, with :class:`repro.core.state.GroupState`;
the payload math is delegated to :class:`~repro.fec.codec.ErasureCodec`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.errors import CodecError
from repro.fec.codec import ErasureCodec
from repro.fec.gf256 import GF256


class GroupAssembler:
    """Collects packets of one FEC group until it can be rebuilt."""

    def __init__(self, k: int, group_id: int = 0, codec: Optional[ErasureCodec] = None) -> None:
        self.k = k
        self.group_id = group_id
        self._codec = codec if codec is not None else ErasureCodec(k)
        self._payloads: Dict[int, bytes] = {}
        self._indices: Set[int] = set()
        self.duplicates = 0

    # ------------------------------------------------------------------ intake

    def add(self, index: int, payload: Optional[bytes] = None) -> bool:
        """Record arrival of packet ``index``; returns True if it was new.

        ``payload`` may be None when the caller only tracks identities (the
        traffic simulations do this for speed); mixing identity-only and
        payload tracking within one assembler is rejected at reconstruct
        time, not here.  Identities the code cannot produce (outside
        ``0..255``) raise :class:`CodecError`.
        """
        if not 0 <= index < GF256.ORDER:
            raise CodecError(f"packet index {index} is outside the code's identities")
        if index in self._indices:
            self.duplicates += 1
            return False
        self._indices.add(index)
        if payload is not None:
            self._payloads[index] = payload
        return True

    # ------------------------------------------------------------------- state

    @property
    def received(self) -> int:
        """Number of distinct packets seen."""
        return len(self._indices)

    @property
    def indices(self) -> Set[int]:
        """The distinct packet indices seen (copy-safe frozen view)."""
        return set(self._indices)

    def deficit(self) -> int:
        """How many more packets (any identity) are needed to reconstruct.

        This is the quantity a SHARQFEC NACK carries: "the number of repair
        packets needed" (§4).
        """
        return max(0, self.k - len(self._indices))

    def is_complete(self) -> bool:
        """True once any ``k`` distinct packets have arrived (MDS property)."""
        return len(self._indices) >= self.k

    # ------------------------------------------------------------- reconstruct

    def reconstruct(self) -> List[bytes]:
        """Rebuild and return the ``k`` original payloads.

        Raises:
            CodecError: fewer than ``k`` packets, or identities were tracked
                without payloads.
        """
        if not self.is_complete():
            raise CodecError(
                f"group {self.group_id}: only {self.received}/{self.k} packets"
            )
        if len(self._payloads) < self.k:
            raise CodecError(
                f"group {self.group_id}: payloads were not retained; "
                "identity-only tracking cannot reconstruct"
            )
        return self._codec.decode(self._payloads)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<GroupAssembler g={self.group_id} {self.received}/{self.k}"
            f"{' complete' if self.is_complete() else ''}>"
        )
