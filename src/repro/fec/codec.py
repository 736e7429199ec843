"""Systematic Cauchy Reed–Solomon erasure codec.

A group of ``k`` equal-length data packets yields repair packets indexed
``k, k+1, ...``; any ``k`` distinct packets (original or repair) rebuild
the group.  This is exactly the property SHARQFEC's NACKs exploit: a NACK
asks for "*how many* additional FEC packets are needed", never for a
specific packet identity (§4).

Generator construction: repair row ``r`` is the Cauchy row
``1 / (x_r + y_j)`` with ``x_r = k + r`` and ``y_j = j``.  All points are
distinct for ``k + n_repairs ≤ 256``, so every square submatrix of
``[I; C]`` is invertible and the code is MDS.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Sequence, Tuple

from repro.errors import CodecError
from repro.fec.gf256 import GF256
from repro.fec.matrix import GFMatrix


class ErasureCodec:
    """Encoder/decoder for one group size ``k``.

    Instances are stateless w.r.t. any particular group, and cache repair
    rows so encoding many groups is cheap.
    """

    MAX_PACKETS = GF256.ORDER // 2  # x-points are k..k+m-1, y-points 0..k-1

    def __init__(self, k: int) -> None:
        if not 1 <= k <= self.MAX_PACKETS:
            raise CodecError(f"group size k must be in [1, {self.MAX_PACKETS}], got {k}")
        self.k = k
        self._repair_rows: Dict[int, bytes] = {}

    # ---------------------------------------------------------------- encoding

    def repair_row(self, repair_index: int) -> bytes:
        """Generator row for repair packet ``k + repair_index``."""
        if repair_index < 0:
            raise CodecError(f"repair index must be >= 0, got {repair_index}")
        x = self.k + repair_index
        if x >= GF256.ORDER:
            raise CodecError(f"repair index {repair_index} exceeds field capacity")
        row = self._repair_rows.get(repair_index)
        if row is None:
            row = bytes(GF256.inv(GF256.add(x, j)) for j in range(self.k))
            self._repair_rows[repair_index] = row
        return row

    def encode(self, data: Sequence[bytes], n_repairs: int) -> List[bytes]:
        """Produce ``n_repairs`` repair payloads for a full data group."""
        self._check_data(data)
        if n_repairs < 0:
            raise CodecError("n_repairs must be non-negative")
        repairs: List[bytes] = []
        for r in range(n_repairs):
            row = self.repair_row(r)
            acc = bytearray(len(data[0]))
            for j in range(self.k):
                GF256.addmul_row(acc, row[j], data[j])
            repairs.append(bytes(acc))
        return repairs

    def encode_one(self, data: Sequence[bytes], repair_index: int) -> bytes:
        """Produce the single repair payload with the given index.

        SHARQFEC repairers generate repairs on demand with strictly
        increasing indices ("the new highest packet identifier", §4), so
        point encoding matters more than batch encoding.
        """
        self._check_data(data)
        row = self.repair_row(repair_index)
        acc = bytearray(len(data[0]))
        for j in range(self.k):
            GF256.addmul_row(acc, row[j], data[j])
        return bytes(acc)

    def _check_data(self, data: Sequence[bytes]) -> None:
        if len(data) != self.k:
            raise CodecError(f"need exactly k={self.k} data payloads, got {len(data)}")
        width = len(data[0])
        for payload in data:
            if len(payload) != width:
                raise CodecError("data payloads must be equal length")

    # ---------------------------------------------------------------- decoding

    def decode(self, packets: Dict[int, bytes]) -> List[bytes]:
        """Reconstruct the ``k`` data payloads.

        Args:
            packets: map from packet index to payload.  Indices ``< k`` are
                original data packets; indices ``>= k`` are repair packets
                (index ``k + r`` for repair row ``r``).  At least ``k``
                entries with identities the code can produce (``0..255``)
                are required; other identities, and extras beyond the
                first ``k`` (in ascending index order), are ignored.

        Returns:
            The ``k`` original payloads in order.
        """
        usable = sorted(i for i in packets if 0 <= i < GF256.ORDER)
        if len(usable) < self.k:
            raise CodecError(
                f"need at least k={self.k} packets to decode, got {len(usable)}"
            )
        chosen = usable[: self.k]
        width = len(packets[chosen[0]])
        for index in chosen:
            if len(packets[index]) != width:
                raise CodecError("packet payloads must be equal length")
        if all(index < self.k for index in chosen):
            # All originals survived; nothing to invert.
            return [bytes(packets[i]) for i in range(self.k)]
        rows: List[List[int]] = []
        for index in chosen:
            if index < self.k:
                rows.append([1 if j == index else 0 for j in range(self.k)])
            else:
                rows.append(list(self.repair_row(index - self.k)))
        matrix = GFMatrix(rows)
        inverse = matrix.inverse()
        received = [bytes(packets[i]) for i in chosen]
        decoded = inverse.mul_vector_rows(received)
        return [bytes(d) for d in decoded]

    def can_decode(self, indices: Sequence[int]) -> bool:
        """True if this set of packet indices suffices to rebuild the group.

        For an MDS code this is simply "≥ k distinct identities the code can
        produce" (``0..255``) — the simulator relies on this equivalence
        (proved by a test against the real decoder) to avoid running matrix
        inversions inside the event loop.
        """
        distinct = {i for i in indices if 0 <= i < GF256.ORDER}
        return len(distinct) >= self.k


def default_codec(k: int) -> ErasureCodec:
    """:class:`ErasureCodec`, the only codec; kept as a name because
    ``benchmarks/e2e/kernels.py`` times ``type(default_codec(16))``."""
    return ErasureCodec(k)


_BLOB_HEADER = struct.Struct("!IHH")  # original length, k, payload width


def encode_blob(blob: bytes, k: int, n_repairs: int) -> Tuple[bytes, List[bytes], List[bytes]]:
    """Split a byte string into a padded k-packet group plus repairs.

    Returns ``(header, data_packets, repair_packets)``.  The header is what
    a real sender would put in its announcement: original length, group size
    and packet width, enough for any receiver to call :func:`decode_blob`.
    """
    if k < 1:
        raise CodecError("k must be >= 1")
    width = (len(blob) + k - 1) // k
    width = max(width, 1)
    if width > 0xFFFF:
        raise CodecError("blob too large for a single group; shard it")
    padded = blob + b"\x00" * (k * width - len(blob))
    data = [padded[i * width : (i + 1) * width] for i in range(k)]
    repairs = ErasureCodec(k).encode(data, n_repairs)
    header = _BLOB_HEADER.pack(len(blob), k, width)
    return header, data, repairs


def decode_blob(header: bytes, packets: Dict[int, bytes]) -> bytes:
    """Inverse of :func:`encode_blob` given any ``k`` surviving packets."""
    try:
        original_len, k, width = _BLOB_HEADER.unpack(header)
    except struct.error as exc:
        raise CodecError(f"bad blob header: {exc}") from exc
    for index, payload in packets.items():
        if len(payload) != width:
            raise CodecError(f"packet {index} width {len(payload)} != header width {width}")
    data = ErasureCodec(k).decode(packets)
    return b"".join(data)[:original_len]
