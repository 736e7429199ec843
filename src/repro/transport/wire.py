"""Versioned binary codec for every SHARQFEC and SRM PDU.

Frame layout (all integers big-endian)::

    +----+----+------+-----------+----------+-------------+---------...--+
    | "SF"    | ver  | type code | src  i32 | group i32   | size u32 | body |
    +----+----+------+-----------+----------+-------------+---------...--+
      2 bytes   u8       u8         4          4              4

``src``/``group``/``size_bytes`` mirror the :class:`repro.net.packet.Packet`
addressing header so a relay can route (and apply loss to) a frame from the
fixed-size prefix alone — see :func:`peek_header`.  Each PDU class's
``_DESCRIBE_FIELDS`` *is* its body layout: the fields its constructor takes,
in that order, pack into one fixed struct, and the last one may instead be
a variable-length trailer (see :class:`_Codec`):

* floats travel as IEEE-754 doubles (``!d``), so every RTT estimate and
  timestamp round-trips bit-exact and ``describe()`` output matches on both
  ends of the wire;
* entry tuples (session entries, NACK RTT chains, reconcile queues) are a
  ``u16`` count followed by fixed-size records, one per element;
* optional payloads are a ``u32`` length, with ``0xFFFFFFFF`` marking an
  absent (``None``) payload — distinct from a present-but-empty one.

Decoding is strict: bad magic, unknown version or type code, a truncated
body, or trailing bytes all raise :class:`~repro.errors.WireError`.  The
codec never silently drops or defaults a field, which is what makes the
round-trip property (``decode(encode(p))`` equals ``p`` field-for-field and
``describe()``-for-``describe()``) testable in ``tests/test_transport_wire.py``.
"""

from __future__ import annotations

import inspect
import struct
from operator import attrgetter
from typing import Any, Dict, NamedTuple, Optional, Tuple, Type

from repro.core.pdus import (
    DataPdu,
    FecPdu,
    NackPdu,
    RttChainEntry,
    SessionEntry,
    SessionPdu,
    ZcrChallengePdu,
    ZcrElectPdu,
    ZcrReconcilePdu,
    ZcrResponsePdu,
    ZcrTakeoverPdu,
)
from repro.errors import WireError
from repro.net.packet import Packet
from repro.srm.pdus import (
    SrmDataPdu,
    SrmRepairPdu,
    SrmRequestPdu,
    SrmSessionEntry,
    SrmSessionPdu,
)

__all__ = [
    "WIRE_VERSION",
    "MAGIC",
    "HEADER_SIZE",
    "WireError",
    "WireHeader",
    "encode",
    "decode",
    "peek_header",
]

WIRE_VERSION = 1
MAGIC = b"SF"

_HEADER = struct.Struct("!2sBBiiI")
HEADER_SIZE = _HEADER.size

_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")
_NONE_PAYLOAD = 0xFFFFFFFF

# Type codes.  SHARQFEC occupies 1-15, SRM 17-31; gaps are reserved so new
# PDUs slot into their protocol's range without renumbering.
T_DATA = 1
T_FEC = 2
T_NACK = 3
T_SESSION = 4
T_ZCR_CHAL = 5
T_ZCR_RESP = 6
T_ZCR_TAKE = 7
T_ZCR_ELECT = 8
T_ZCR_RECON = 9
T_SRM_DATA = 17
T_SRM_NACK = 18
T_SRM_REPAIR = 19
T_SRM_SESSION = 20


class WireHeader(NamedTuple):
    """The routable prefix of a frame (see :func:`peek_header`)."""

    kind: str
    type_code: int
    src: int
    group: int
    size_bytes: int
    loss_exempt: bool


class _Reader:
    """Cursor over a frame body; under- and over-runs raise WireError."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes, pos: int) -> None:
        self._data = data
        self._pos = pos

    def unpack(self, st: struct.Struct) -> Tuple[Any, ...]:
        end = self._pos + st.size
        if end > len(self._data):
            raise WireError(
                f"truncated frame: need {end} bytes, have {len(self._data)}"
            )
        values = st.unpack_from(self._data, self._pos)
        self._pos = end
        return values

    def take(self, n: int) -> bytes:
        end = self._pos + n
        if end > len(self._data):
            raise WireError(
                f"truncated frame: need {end} bytes, have {len(self._data)}"
            )
        chunk = self._data[self._pos : end]
        self._pos = end
        return chunk

    def finish(self) -> None:
        if self._pos != len(self._data):
            raise WireError(
                f"trailing garbage: {len(self._data) - self._pos} bytes past frame end"
            )


# ---------------------------------------------------------------- registry


class _Codec:
    """One PDU class's body layout, derived from the class itself.

    The fields are the class's ``_DESCRIBE_FIELDS`` that its constructor
    takes, in that order — so ``challenger_id`` / ``candidate_id``, which
    are the header ``src``, stay off the wire.  They pack into the
    ``fixed`` struct, except that the last one is a trailer when it is
    ``payload`` (a ``u32`` length, ``0xFFFFFFFF`` for ``None``) or when the
    row names a ``record`` struct (a ``u16`` count, then one record per
    element, rebuilt as ``record_cls`` when given and as plain tuples
    otherwise).
    """

    __slots__ = (
        "code", "cls", "kind", "loss_exempt", "frame", "fields",
        "fixed", "names", "trailer", "record", "record_cls", "unique_peers",
    )

    def __init__(
        self,
        code: int,
        cls: Type[Packet],
        kind: str,
        loss_exempt: bool,
        fixed: str,
        record: Optional[str] = None,
        record_cls: Optional[Type[tuple]] = None,
    ) -> None:
        params = inspect.signature(cls).parameters
        names = [n for n in cls._DESCRIBE_FIELDS if n in params]
        trailer = names.pop() if record or names[-1] == "payload" else None
        self.code, self.cls, self.kind, self.loss_exempt = code, cls, kind, loss_exempt
        self.fixed = struct.Struct(fixed)
        assert len(self.fixed.unpack(bytes(self.fixed.size))) == len(names), cls
        # Header and fixed part pack in one call.
        self.frame = struct.Struct(_HEADER.format + fixed.lstrip("!"))
        self.fields = attrgetter("src", "group", "size_bytes", *names)
        self.names = tuple(names)
        self.trailer = trailer
        self.record = struct.Struct(record) if record else None
        self.record_cls = record_cls
        # A session message's echo rows: a hearer closes its RTT loop from
        # *the* row about itself, so a second row would be ambiguous.
        self.unique_peers = "peer_id" in getattr(record_cls, "_fields", ())

    def encode(self, pdu: Packet) -> bytes:
        head = self.frame.pack(MAGIC, WIRE_VERSION, self.code, *self.fields(pdu))
        if self.trailer is None:
            return head
        value = getattr(pdu, self.trailer)
        if self.record is None:
            if value is None:
                return head + _U32.pack(_NONE_PAYLOAD)
            if len(value) >= _NONE_PAYLOAD:
                raise WireError(f"payload too large to frame: {len(value)} bytes")
            return head + _U32.pack(len(value)) + value
        if len(value) > 0xFFFF:
            raise WireError(f"too many {self.trailer} to frame: {len(value)}")
        pack = self.record.pack
        return b"".join([head, _U16.pack(len(value)), *(pack(*row) for row in value)])

    def decode_body(self, r: _Reader) -> Dict[str, Any]:
        kwargs = dict(zip(self.names, r.unpack(self.fixed)))
        if self.trailer is None:
            return kwargs
        if self.record is None:
            (n,) = r.unpack(_U32)
            kwargs[self.trailer] = None if n == _NONE_PAYLOAD else r.take(n)
            return kwargs
        (count,) = r.unpack(_U16)
        rows = self.record.iter_unpack(r.take(count * self.record.size))
        if self.record_cls is not None:
            rows = map(self.record_cls._make, rows)
        value = tuple(rows)
        if self.unique_peers and len({row.peer_id for row in value}) != count:
            raise WireError(f"{self.trailer} list a peer more than once")
        kwargs[self.trailer] = value
        return kwargs


_CODECS = [
    _Codec(T_DATA, DataPdu, "DATA", False, "!iii"),
    _Codec(T_FEC, FecPdu, "FEC", False, "!iiii"),
    _Codec(T_NACK, NackPdu, "NACK", True, "!iiiii", "!iid", RttChainEntry),
    _Codec(T_SESSION, SessionPdu, "SESSION", True, "!ididii", "!iddd", SessionEntry),
    _Codec(T_ZCR_CHAL, ZcrChallengePdu, "ZCR_CHAL", True, "!id"),
    _Codec(T_ZCR_RESP, ZcrResponsePdu, "ZCR_RESP", True, "!iid"),
    _Codec(T_ZCR_TAKE, ZcrTakeoverPdu, "ZCR_TAKE", True, "!idi"),
    _Codec(T_ZCR_ELECT, ZcrElectPdu, "ZCR_ELECT", True, "!iiid"),
    _Codec(T_ZCR_RECON, ZcrReconcilePdu, "ZCR_RECON", True, "!ii", "!ii"),
    _Codec(T_SRM_DATA, SrmDataPdu, "DATA", False, "!i"),
    _Codec(T_SRM_NACK, SrmRequestPdu, "NACK", True, "!i"),
    _Codec(T_SRM_REPAIR, SrmRepairPdu, "REPAIR", False, "!i"),
    _Codec(T_SRM_SESSION, SrmSessionPdu, "SESSION", True, "!di", "!idd", SrmSessionEntry),
]

_BY_CODE: Dict[int, _Codec] = {c.code: c for c in _CODECS}
# Exact-type dispatch: a subclass of a PDU would silently lose its extra
# fields under isinstance dispatch, so refuse it instead.
_BY_CLASS: Dict[Type[Packet], _Codec] = {c.cls: c for c in _CODECS}

assert len(_BY_CODE) == len(_CODECS), "duplicate wire type code"


# ------------------------------------------------------------------- public


def encode(pdu: Packet) -> bytes:
    """Serialize a PDU to a self-contained datagram frame."""
    codec = _BY_CLASS.get(type(pdu))
    if codec is None:
        raise WireError(f"no wire codec for {type(pdu).__name__}")
    return codec.encode(pdu)


def _check_header(data: bytes) -> Tuple[_Codec, int, int, int]:
    if len(data) < HEADER_SIZE:
        raise WireError(f"frame shorter than header: {len(data)} bytes")
    magic, version, code, src, group, size_bytes = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise WireError(f"bad magic {magic!r}")
    if version != WIRE_VERSION:
        raise WireError(f"unsupported wire version {version}")
    codec = _BY_CODE.get(code)
    if codec is None:
        raise WireError(f"unknown wire type code {code}")
    return codec, src, group, size_bytes


def decode(data: bytes) -> Packet:
    """Parse a frame back into the exact PDU class that produced it.

    Strict: raises :class:`WireError` on any malformation, including bytes
    left over after the body (a frame is one whole datagram, never a prefix).
    """
    codec, src, group, size_bytes = _check_header(data)
    reader = _Reader(data, HEADER_SIZE)
    kwargs = codec.decode_body(reader)
    reader.finish()
    try:
        return codec.cls(src, group, size_bytes, **kwargs)
    except (ValueError, TypeError) as exc:
        raise WireError(f"frame decodes to invalid {codec.cls.__name__}: {exc}") from exc


def peek_header(data: bytes) -> WireHeader:
    """Routing view of a frame without decoding the body.

    The relay uses this to learn the group (fan-out key) and the
    ``loss_exempt`` class (whether to roll the Gilbert–Elliott dice) from
    the 16-byte prefix — the body stays opaque in transit.
    """
    codec, src, group, size_bytes = _check_header(data)
    return WireHeader(codec.kind, codec.code, src, group, size_bytes, codec.loss_exempt)
