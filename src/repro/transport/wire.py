"""Versioned binary codec for every SHARQFEC and SRM PDU.

Frame layout (all integers big-endian)::

    +----+----+------+-----------+----------+-------------+---------...--+
    | "SF"    | ver  | type code | src  i32 | group i32   | size u32 | body |
    +----+----+------+-----------+----------+-------------+---------...--+
      2 bytes   u8       u8         4          4              4

``src``/``group``/``size_bytes`` mirror the :class:`repro.net.packet.Packet`
addressing header so a relay can route (and apply loss to) a frame from the
fixed-size prefix alone — see :func:`peek_header`.  The body is a
type-specific fixed struct, optionally followed by length-prefixed
repetitions:

* floats travel as IEEE-754 doubles (``!d``), so every RTT estimate and
  timestamp round-trips bit-exact and ``describe()`` output matches on both
  ends of the wire;
* entry tuples (session entries, NACK RTT chains, reconcile queues) are a
  ``u16`` count followed by fixed-size records;
* optional payloads are a ``u32`` length, with ``0xFFFFFFFF`` marking an
  absent (``None``) payload — distinct from a present-but-empty one.

Decoding is strict: bad magic, unknown version or type code, a truncated
body, or trailing bytes all raise :class:`~repro.errors.WireError`.  The
codec never silently drops or defaults a field, which is what makes the
round-trip property (``decode(encode(p))`` equals ``p`` field-for-field and
``describe()``-for-``describe()``) testable in ``tests/test_transport_wire.py``.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple, Type

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


# ------------------------------------------------------------ field helpers


def _put_payload(out: bytearray, payload: Optional[bytes]) -> None:
    if payload is None:
        out += _U32.pack(_NONE_PAYLOAD)
        return
    if len(payload) >= _NONE_PAYLOAD:
        raise WireError(f"payload too large to frame: {len(payload)} bytes")
    out += _U32.pack(len(payload))
    out += payload


def _get_payload(r: _Reader) -> Optional[bytes]:
    (n,) = r.unpack(_U32)
    if n == _NONE_PAYLOAD:
        return None
    return r.take(n)


def _put_count(out: bytearray, n: int, what: str) -> None:
    if n > 0xFFFF:
        raise WireError(f"too many {what} to frame: {n}")
    out += _U16.pack(n)


def _get_entries(
    r: _Reader, entry_cls: Callable[..., Any], st: struct.Struct
) -> Tuple[Any, ...]:
    """A session message's echo rows (SHARQFEC's or SRM's), one per peer."""
    (count,) = r.unpack(_U16)
    entries = tuple(entry_cls(*r.unpack(st)) for _ in range(count))
    if len({e.peer_id for e in entries}) != count:
        # One echo per peer: a hearer closes its RTT loop from *the* row
        # about itself, so a second row would be ambiguous, not additive.
        raise WireError("session entries list a peer more than once")
    return entries


# ------------------------------------------------------------- body codecs
#
# One (encode_body, decode_body) pair per PDU type.  encode_body appends the
# body to a bytearray; decode_body consumes a _Reader and returns the kwargs
# beyond the addressing header, which decode() feeds to the PDU constructor.

_DATA_BODY = struct.Struct("!iii")


def _enc_data(p: DataPdu, out: bytearray) -> None:
    out += _DATA_BODY.pack(p.seq, p.group_id, p.index)
    _put_payload(out, p.payload)


def _dec_data(r: _Reader) -> Dict[str, Any]:
    seq, group_id, index = r.unpack(_DATA_BODY)
    return {"seq": seq, "group_id": group_id, "index": index, "payload": _get_payload(r)}


_FEC_BODY = struct.Struct("!iiii")


def _enc_fec(p: FecPdu, out: bytearray) -> None:
    out += _FEC_BODY.pack(p.group_id, p.index, p.new_high_id, p.zone_id)
    _put_payload(out, p.payload)


def _dec_fec(r: _Reader) -> Dict[str, Any]:
    group_id, index, new_high_id, zone_id = r.unpack(_FEC_BODY)
    return {
        "group_id": group_id,
        "index": index,
        "new_high_id": new_high_id,
        "zone_id": zone_id,
        "payload": _get_payload(r),
    }


_NACK_BODY = struct.Struct("!iiiii")
_RTT_CHAIN_ENTRY = struct.Struct("!iid")


def _enc_nack(p: NackPdu, out: bytearray) -> None:
    out += _NACK_BODY.pack(p.group_id, p.llc, p.highest_seen, p.n_needed, p.zone_id)
    _put_count(out, len(p.rtt_chain), "RTT chain entries")
    for e in p.rtt_chain:
        out += _RTT_CHAIN_ENTRY.pack(e.zone_id, e.zcr_id, e.rtt_to_sender)


def _dec_nack(r: _Reader) -> Dict[str, Any]:
    group_id, llc, highest_seen, n_needed, zone_id = r.unpack(_NACK_BODY)
    (count,) = r.unpack(_U16)
    chain = tuple(RttChainEntry(*r.unpack(_RTT_CHAIN_ENTRY)) for _ in range(count))
    return {
        "group_id": group_id,
        "llc": llc,
        "highest_seen": highest_seen,
        "n_needed": n_needed,
        "zone_id": zone_id,
        "rtt_chain": chain,
    }


_SESSION_BODY = struct.Struct("!ididii")
_SESSION_ENTRY = struct.Struct("!iddd")


def _enc_session(p: SessionPdu, out: bytearray) -> None:
    out += _SESSION_BODY.pack(
        p.zone_id, p.timestamp, p.zcr_id, p.zcr_parent_rtt, p.zcr_epoch, p.highest_group
    )
    _put_count(out, len(p.entries), "session entries")
    for e in p.entries:
        out += _SESSION_ENTRY.pack(e.peer_id, e.peer_timestamp, e.elapsed, e.rtt_estimate)


def _dec_session(r: _Reader) -> Dict[str, Any]:
    zone_id, timestamp, zcr_id, zcr_parent_rtt, zcr_epoch, highest_group = r.unpack(
        _SESSION_BODY
    )
    entries = _get_entries(r, SessionEntry, _SESSION_ENTRY)
    return {
        "zone_id": zone_id,
        "timestamp": timestamp,
        "zcr_id": zcr_id,
        "zcr_parent_rtt": zcr_parent_rtt,
        "zcr_epoch": zcr_epoch,
        "highest_group": highest_group,
        "entries": entries,
    }


_ZCR_CHAL_BODY = struct.Struct("!id")


def _enc_zcr_chal(p: ZcrChallengePdu, out: bytearray) -> None:
    # challenger_id is definitionally the header src; not re-encoded.
    out += _ZCR_CHAL_BODY.pack(p.zone_id, p.sent_at)


def _dec_zcr_chal(r: _Reader) -> Dict[str, Any]:
    zone_id, sent_at = r.unpack(_ZCR_CHAL_BODY)
    return {"zone_id": zone_id, "sent_at": sent_at}


_ZCR_RESP_BODY = struct.Struct("!iid")


def _enc_zcr_resp(p: ZcrResponsePdu, out: bytearray) -> None:
    out += _ZCR_RESP_BODY.pack(p.zone_id, p.challenger_id, p.processing_delay)


def _dec_zcr_resp(r: _Reader) -> Dict[str, Any]:
    zone_id, challenger_id, processing_delay = r.unpack(_ZCR_RESP_BODY)
    return {
        "zone_id": zone_id,
        "challenger_id": challenger_id,
        "processing_delay": processing_delay,
    }


_ZCR_TAKE_BODY = struct.Struct("!idi")


def _enc_zcr_take(p: ZcrTakeoverPdu, out: bytearray) -> None:
    out += _ZCR_TAKE_BODY.pack(p.zone_id, p.dist_to_parent, p.epoch)


def _dec_zcr_take(r: _Reader) -> Dict[str, Any]:
    zone_id, dist_to_parent, epoch = r.unpack(_ZCR_TAKE_BODY)
    return {"zone_id": zone_id, "dist_to_parent": dist_to_parent, "epoch": epoch}


_ZCR_ELECT_BODY = struct.Struct("!iiid")


def _enc_zcr_elect(p: ZcrElectPdu, out: bytearray) -> None:
    # candidate_id is definitionally the header src; not re-encoded.
    out += _ZCR_ELECT_BODY.pack(p.zone_id, p.epoch, p.attempt, p.dist_to_parent)


def _dec_zcr_elect(r: _Reader) -> Dict[str, Any]:
    zone_id, epoch, attempt, dist_to_parent = r.unpack(_ZCR_ELECT_BODY)
    return {
        "zone_id": zone_id,
        "epoch": epoch,
        "attempt": attempt,
        "dist_to_parent": dist_to_parent,
    }


_ZCR_RECON_BODY = struct.Struct("!ii")
_RECON_ENTRY = struct.Struct("!ii")


def _enc_zcr_recon(p: ZcrReconcilePdu, out: bytearray) -> None:
    out += _ZCR_RECON_BODY.pack(p.zone_id, p.epoch)
    _put_count(out, len(p.outstanding), "reconcile entries")
    for group_id, n in p.outstanding:
        out += _RECON_ENTRY.pack(group_id, n)


def _dec_zcr_recon(r: _Reader) -> Dict[str, Any]:
    zone_id, epoch = r.unpack(_ZCR_RECON_BODY)
    (count,) = r.unpack(_U16)
    outstanding = tuple(r.unpack(_RECON_ENTRY) for _ in range(count))
    return {"zone_id": zone_id, "epoch": epoch, "outstanding": outstanding}


_SEQ_BODY = struct.Struct("!i")


def _enc_seq(p: Any, out: bytearray) -> None:
    out += _SEQ_BODY.pack(p.seq)


def _dec_seq(r: _Reader) -> Dict[str, Any]:
    (seq,) = r.unpack(_SEQ_BODY)
    return {"seq": seq}


_SRM_SESSION_BODY = struct.Struct("!di")
_SRM_SESSION_ENTRY = struct.Struct("!idd")


def _enc_srm_session(p: SrmSessionPdu, out: bytearray) -> None:
    out += _SRM_SESSION_BODY.pack(p.timestamp, p.highest_seq)
    _put_count(out, len(p.entries), "session entries")
    for e in p.entries:
        out += _SRM_SESSION_ENTRY.pack(e.peer_id, e.peer_timestamp, e.elapsed)


def _dec_srm_session(r: _Reader) -> Dict[str, Any]:
    timestamp, highest_seq = r.unpack(_SRM_SESSION_BODY)
    entries = _get_entries(r, SrmSessionEntry, _SRM_SESSION_ENTRY)
    return {"timestamp": timestamp, "highest_seq": highest_seq, "entries": entries}


# ---------------------------------------------------------------- registry


class _Codec(NamedTuple):
    code: int
    cls: Type[Packet]
    kind: str
    loss_exempt: bool
    encode_body: Callable[[Any, bytearray], None]
    decode_body: Callable[[_Reader], Dict[str, Any]]


_CODECS = [
    _Codec(T_DATA, DataPdu, "DATA", False, _enc_data, _dec_data),
    _Codec(T_FEC, FecPdu, "FEC", False, _enc_fec, _dec_fec),
    _Codec(T_NACK, NackPdu, "NACK", True, _enc_nack, _dec_nack),
    _Codec(T_SESSION, SessionPdu, "SESSION", True, _enc_session, _dec_session),
    _Codec(T_ZCR_CHAL, ZcrChallengePdu, "ZCR_CHAL", True, _enc_zcr_chal, _dec_zcr_chal),
    _Codec(T_ZCR_RESP, ZcrResponsePdu, "ZCR_RESP", True, _enc_zcr_resp, _dec_zcr_resp),
    _Codec(T_ZCR_TAKE, ZcrTakeoverPdu, "ZCR_TAKE", True, _enc_zcr_take, _dec_zcr_take),
    _Codec(T_ZCR_ELECT, ZcrElectPdu, "ZCR_ELECT", True, _enc_zcr_elect, _dec_zcr_elect),
    _Codec(T_ZCR_RECON, ZcrReconcilePdu, "ZCR_RECON", True, _enc_zcr_recon, _dec_zcr_recon),
    _Codec(T_SRM_DATA, SrmDataPdu, "DATA", False, _enc_seq, _dec_seq),
    _Codec(T_SRM_NACK, SrmRequestPdu, "NACK", True, _enc_seq, _dec_seq),
    _Codec(T_SRM_REPAIR, SrmRepairPdu, "REPAIR", False, _enc_seq, _dec_seq),
    _Codec(T_SRM_SESSION, SrmSessionPdu, "SESSION", True, _enc_srm_session, _dec_srm_session),
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
    out = bytearray(
        _HEADER.pack(MAGIC, WIRE_VERSION, codec.code, pdu.src, pdu.group, pdu.size_bytes)
    )
    codec.encode_body(pdu, out)
    return bytes(out)


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
    try:
        kwargs = codec.decode_body(reader)
    except struct.error as exc:  # pragma: no cover - _Reader bounds-checks first
        raise WireError(str(exc)) from exc
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
