"""NumPy-accelerated Reed–Solomon erasure codec.

Bit-identical to :class:`repro.fec.codec.ErasureCodec` (same Cauchy
generator, same identity scheme) but with the byte arithmetic vectorized
through a precomputed 256×256 GF(256) multiplication table — the practical
difference between a reference codec and one that can feed a real sender
(Rizzo's original C code made the same trade).

Use it anywhere the pure-Python codec is accepted::

    codec = NumpyErasureCodec(16)
    repairs = codec.encode(data, 4)
    restored = codec.decode(subset)
"""

from __future__ import annotations

from typing import Dict, List, Sequence

try:  # Optional dependency: the pure-Python codec covers numpy-less hosts.
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None  # type: ignore[assignment]

from repro.errors import CodecError
from repro.fec.codec import ErasureCodec
from repro.fec.gf256 import GF256

HAVE_NUMPY = np is not None


def default_codec(k: int):
    """The preferred codec for group size ``k``.

    The numpy-vectorized codec when numpy is importable, else the
    pure-Python codec.  Byte-identical output either way.
    """
    if HAVE_NUMPY:
        return NumpyErasureCodec(k)
    return ErasureCodec(k)


def _build_mul_table() -> "np.ndarray":
    table = np.zeros((256, 256), dtype=np.uint8)
    exp = GF256.exp_table
    log = GF256.log_table
    for a in range(1, 256):
        la = log[a]
        row = table[a]
        for b in range(1, 256):
            row[b] = exp[la + log[b]]
    return table


# Built lazily on first codec construction: the 64K-entry table costs tens
# of milliseconds, which identity-only simulations should not pay at import.
_MUL = None


class NumpyErasureCodec:
    """Vectorized systematic Cauchy RS codec (API-compatible subset)."""

    MAX_PACKETS = ErasureCodec.MAX_PACKETS

    def __init__(self, k: int) -> None:
        if np is None:
            raise CodecError(
                "NumpyErasureCodec requires numpy; use ErasureCodec instead"
            )
        global _MUL
        if _MUL is None:
            _MUL = _build_mul_table()
        # Reuse the reference codec for row generation and validation so
        # the two implementations cannot drift apart.
        self._reference = ErasureCodec(k)
        self.k = k

    # ---------------------------------------------------------------- encoding

    def repair_row(self, repair_index: int) -> bytes:
        """Generator row for repair packet ``k + repair_index``."""
        return self._reference.repair_row(repair_index)

    def encode(self, data: Sequence[bytes], n_repairs: int) -> List[bytes]:
        """Produce ``n_repairs`` repair payloads for a full data group."""
        self._reference._check_data(data)
        if n_repairs < 0:
            raise CodecError("n_repairs must be non-negative")
        if n_repairs == 0:
            return []
        stack = np.frombuffer(b"".join(data), dtype=np.uint8).reshape(
            self.k, len(data[0])
        )
        out: List[bytes] = []
        for r in range(n_repairs):
            row = np.frombuffer(self.repair_row(r), dtype=np.uint8)
            # acc = XOR_j MUL[row[j], data_j] — one gather per data packet.
            acc = np.zeros(stack.shape[1], dtype=np.uint8)
            for j in range(self.k):
                coeff = row[j]
                if coeff:
                    acc ^= _MUL[coeff][stack[j]]
            out.append(acc.tobytes())
        return out

    def encode_one(self, data: Sequence[bytes], repair_index: int) -> bytes:
        """Produce the single repair payload with the given index."""
        return self.encode(data, repair_index + 1)[repair_index] if repair_index >= 0 else b""

    # ---------------------------------------------------------------- decoding

    def decode(self, packets: Dict[int, bytes]) -> List[bytes]:
        """Reconstruct the ``k`` data payloads from any k-subset."""
        if len(packets) < self.k:
            raise CodecError(
                f"need at least k={self.k} packets to decode, got {len(packets)}"
            )
        chosen = sorted(packets)[: self.k]
        width = len(packets[chosen[0]])
        for index in chosen:
            if len(packets[index]) != width:
                raise CodecError("packet payloads must be equal length")
        if all(index < self.k for index in chosen):
            return [bytes(packets[i]) for i in range(self.k)]
        # Invert via the reference implementation (k×k is tiny), then apply
        # the inverse rows vectorized.
        from repro.fec.matrix import GFMatrix

        rows: List[List[int]] = []
        for index in chosen:
            if index < self.k:
                rows.append([1 if j == index else 0 for j in range(self.k)])
            else:
                rows.append(list(self.repair_row(index - self.k)))
        inverse = GFMatrix(rows).inverse()
        received = np.frombuffer(
            b"".join(bytes(packets[i]) for i in chosen), dtype=np.uint8
        ).reshape(self.k, width)
        out: List[bytes] = []
        for i in range(self.k):
            acc = np.zeros(width, dtype=np.uint8)
            inv_row = inverse.row(i)
            for j in range(self.k):
                coeff = inv_row[j]
                if coeff:
                    acc ^= _MUL[coeff][received[j]]
            out.append(acc.tobytes())
        return out

    def can_decode(self, indices: Sequence[int]) -> bool:
        """Same MDS shortcut as the reference codec."""
        return self._reference.can_decode(indices)
