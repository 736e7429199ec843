"""Wire-codec round-trips for every PDU class, plus malformed-frame rejection.

The invariant under test: ``decode(encode(p))`` reconstructs the exact PDU
class with every protocol field equal — including ``describe()`` output, so
a trace captured on the far side of a real UDP hop diffs clean against the
sender's.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.errors import ReproError, WireError
from repro.net.packet import Packet
from repro.srm.pdus import (
    SrmDataPdu,
    SrmRepairPdu,
    SrmRequestPdu,
    SrmSessionEntry,
    SrmSessionPdu,
)
from repro.transport.wire import (
    HEADER_SIZE,
    MAGIC,
    WIRE_VERSION,
    decode,
    encode,
    peek_header,
)

# ------------------------------------------------------------------ samples
#
# At least one instance per PDU class, exercising sentinels (-1 ids, absent
# payloads), empty and non-empty entry tuples, and empty-but-present bytes.

SAMPLES = [
    DataPdu(0, 3, 1024, seq=7, group_id=0, index=7),
    DataPdu(2, 3, 1024, seq=8, group_id=1, index=0, payload=b""),
    DataPdu(-1, 3, 1024, seq=9, group_id=1, index=1, payload=b"\x00\xffhello"),
    FecPdu(4, 5, 1024, group_id=2, index=17, new_high_id=19, zone_id=9),
    FecPdu(4, 5, 1024, group_id=2, index=18, new_high_id=19, zone_id=-1, payload=b"fec"),
    NackPdu(6, 7, 64, group_id=3, llc=2, highest_seen=15, n_needed=2, zone_id=9),
    NackPdu(
        6,
        7,
        64,
        group_id=3,
        llc=0,
        highest_seen=-1,
        n_needed=1,
        zone_id=9,
        rtt_chain=(
            RttChainEntry(9, 4, 0.052),
            RttChainEntry(12, 2, -1.0),
        ),
    ),
    SessionPdu(
        8,
        9,
        220,
        zone_id=9,
        timestamp=12.125,
        zcr_id=-1,
        zcr_parent_rtt=-1.0,
        entries=(),
    ),
    SessionPdu(
        8,
        9,
        220,
        zone_id=9,
        timestamp=12.125,
        zcr_id=4,
        zcr_parent_rtt=0.034,
        entries=(
            SessionEntry(2, 11.5, 0.625, 0.041),
            SessionEntry(3, 11.75, 0.375, -1.0),
        ),
        zcr_epoch=2,
        highest_group=17,
    ),
    ZcrChallengePdu(10, 11, 48, zone_id=9, sent_at=3.5),
    ZcrResponsePdu(11, 12, 48, zone_id=9, challenger_id=10, processing_delay=0.002),
    ZcrTakeoverPdu(12, 13, 48, zone_id=9, dist_to_parent=0.025, epoch=3),
    ZcrElectPdu(13, 14, 48, zone_id=9, epoch=4, attempt=1, dist_to_parent=-1.0),
    ZcrReconcilePdu(
        14, 15, 64, zone_id=9, epoch=5, outstanding=((0, 2), (3, 1), (7, 4))
    ),
    ZcrReconcilePdu(14, 15, 64, zone_id=9, epoch=5, outstanding=()),
    SrmDataPdu(0, 1, 1000, seq=42),
    SrmRequestPdu(3, 1, 64, seq=42),
    SrmRepairPdu(5, 1, 1000, seq=42),
    SrmSessionPdu(7, 2, 128, timestamp=4.25, highest_seq=-1, entries=()),
    SrmSessionPdu(
        7,
        2,
        128,
        timestamp=4.25,
        highest_seq=99,
        entries=(SrmSessionEntry(1, 3.5, 0.75), SrmSessionEntry(2, 3.625, 0.625)),
    ),
]

ALL_PDU_CLASSES = {
    DataPdu,
    FecPdu,
    NackPdu,
    SessionPdu,
    ZcrChallengePdu,
    ZcrResponsePdu,
    ZcrTakeoverPdu,
    ZcrElectPdu,
    ZcrReconcilePdu,
    SrmDataPdu,
    SrmRequestPdu,
    SrmRepairPdu,
    SrmSessionPdu,
}


def _protocol_fields(pdu):
    """Every slot attribute across the MRO except per-process state: the
    uid and the session echo index (a cache, never encoded)."""
    names = []
    for klass in type(pdu).__mro__:
        names.extend(getattr(klass, "__slots__", ()))
    return {n: getattr(pdu, n) for n in names if n not in ("uid", "_echo_index")}


def assert_roundtrip(pdu):
    frame = encode(pdu)
    clone = decode(frame)
    assert type(clone) is type(pdu)
    assert _protocol_fields(clone) == _protocol_fields(pdu)
    assert clone.describe() == pdu.describe()
    header = peek_header(frame)
    assert header.kind == pdu.kind
    assert header.src == pdu.src
    assert header.group == pdu.group
    assert header.size_bytes == pdu.size_bytes
    assert header.loss_exempt == pdu.loss_exempt
    return frame


def test_every_pdu_class_has_a_sample():
    assert {type(p) for p in SAMPLES} == ALL_PDU_CLASSES


@pytest.mark.parametrize("pdu", SAMPLES, ids=lambda p: p.describe())
def test_roundtrip(pdu):
    assert_roundtrip(pdu)


def test_encoding_is_deterministic():
    a = NackPdu(6, 7, 64, 3, 2, 15, 2, 9, rtt_chain=(RttChainEntry(9, 4, 0.052),))
    b = NackPdu(6, 7, 64, 3, 2, 15, 2, 9, rtt_chain=(RttChainEntry(9, 4, 0.052),))
    assert encode(a) == encode(b)  # uid and identity never leak into frames


# ------------------------------------------------------- malformed frames


@pytest.mark.parametrize("pdu", SAMPLES, ids=lambda p: p.describe())
def test_every_truncation_is_rejected(pdu):
    frame = encode(pdu)
    for cut in range(len(frame)):
        with pytest.raises(WireError):
            decode(frame[:cut])


@pytest.mark.parametrize("pdu", SAMPLES, ids=lambda p: p.describe())
def test_trailing_bytes_rejected(pdu):
    with pytest.raises(WireError):
        decode(encode(pdu) + b"\x00")


def test_bad_magic_rejected():
    frame = bytearray(encode(SAMPLES[0]))
    frame[0:2] = b"XX"
    with pytest.raises(WireError, match="magic"):
        decode(bytes(frame))


def test_unknown_version_rejected():
    frame = bytearray(encode(SAMPLES[0]))
    frame[2] = WIRE_VERSION + 1
    with pytest.raises(WireError, match="version"):
        decode(bytes(frame))


def test_unknown_type_code_rejected():
    frame = bytearray(encode(SAMPLES[0]))
    frame[3] = 0x7F
    with pytest.raises(WireError, match="type code"):
        decode(bytes(frame))


def test_empty_and_short_frames_rejected():
    with pytest.raises(WireError):
        decode(b"")
    with pytest.raises(WireError):
        peek_header(MAGIC)
    with pytest.raises(WireError):
        decode(encode(SAMPLES[0])[: HEADER_SIZE - 1])


def test_corrupt_entry_count_rejected():
    # Inflate the NACK rtt_chain count without providing the entries.
    pdu = NackPdu(6, 7, 64, 3, 2, 15, 2, 9, rtt_chain=(RttChainEntry(9, 4, 0.052),))
    frame = bytearray(encode(pdu))
    count_off = HEADER_SIZE + struct.calcsize("!iiiii")
    frame[count_off : count_off + 2] = struct.pack("!H", 500)
    with pytest.raises(WireError, match="truncated"):
        decode(bytes(frame))


def _session_with(entries):
    return SessionPdu(8, 9, 220, 9, 12.125, 4, 0.034, tuple(entries), 2, 17)


def test_duplicate_session_peer_rejected():
    # Two rows about peer 2: a hearer could not tell which echo closes its
    # RTT loop.  The encoder frames what it is given; the decoder refuses.
    rows = (
        SessionEntry(2, 11.5, 0.625, 0.041),
        SessionEntry(3, 11.75, 0.375, -1.0),
        SessionEntry(2, 11.9, 0.225, 0.043),
    )
    with pytest.raises(WireError, match="more than once"):
        decode(encode(_session_with(rows)))
    assert_roundtrip(_session_with(rows[:2]))


def test_duplicate_srm_session_peer_rejected():
    # SRM's full-mesh session closes echoes off the same per-PDU index.
    rows = (
        SrmSessionEntry(2, 11.5, 0.625),
        SrmSessionEntry(3, 11.75, 0.375),
        SrmSessionEntry(2, 11.9, 0.225),
    )
    with pytest.raises(WireError, match="more than once"):
        decode(encode(SrmSessionPdu(8, 9, 220, 12.125, 40, rows)))
    pdu = SrmSessionPdu(8, 9, 220, 12.125, 40, rows[:2])
    plain = encode(pdu)
    pdu.echo_index()
    assert encode(pdu) == plain  # the index is never framed
    assert_roundtrip(pdu)


def test_duplicate_session_peer_refused_in_process_too():
    # The simulator never encodes, so the shared index refuses on its own.
    pdu = _session_with([SessionEntry(2, 1.0, 0.1, 0.04), SessionEntry(2, 2.0, 0.1, 0.04)])
    with pytest.raises(ValueError, match="more than once"):
        pdu.echo_index()


def test_frame_decoding_to_invalid_packet_rejected():
    # size_bytes == 0 violates the Packet constructor; the codec surfaces
    # that as a WireError rather than a bare ValueError.
    frame = bytearray(encode(SAMPLES[0]))
    frame[12:16] = struct.pack("!I", 0)
    with pytest.raises(WireError, match="invalid"):
        decode(bytes(frame))


def test_unencodable_packets_rejected():
    with pytest.raises(WireError, match="no wire codec"):
        encode(Packet("DATA", 0, 1, 100))

    class SneakyData(DataPdu):
        __slots__ = ("extra",)

    sneaky = SneakyData(0, 1, 100, 1, 0, 1)
    sneaky.extra = "dropped-on-the-floor"
    with pytest.raises(WireError, match="no wire codec"):
        encode(sneaky)  # exact-type dispatch: subclasses would lose fields


def test_loss_exempt_survives_peek():
    exempt = {p.describe(): peek_header(encode(p)).loss_exempt for p in SAMPLES}
    # Data and repair traffic is lossy; NACKs, session and ZCR control are
    # exempt (§6.2) — the relay enforces this from the header alone.
    for pdu in SAMPLES:
        assert peek_header(encode(pdu)).loss_exempt == pdu.loss_exempt, exempt


# ------------------------------------------------------------- hypothesis

i32 = st.integers(-(2**31), 2**31 - 1)
sizes = st.integers(1, 2**31)
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
payloads = st.none() | st.binary(max_size=128)

rtt_chains = st.tuples() | st.lists(
    st.builds(RttChainEntry, i32, i32, finite), max_size=8
).map(tuple)
session_entries = st.lists(
    st.builds(SessionEntry, i32, finite, finite, finite),
    max_size=8,
    unique_by=lambda e: e.peer_id,  # one echo per peer; duplicates are refused
).map(tuple)
srm_entries = st.lists(
    st.builds(SrmSessionEntry, i32, finite, finite),
    max_size=8,
    unique_by=lambda e: e.peer_id,
).map(tuple)
outstanding = st.lists(st.tuples(i32, i32), max_size=8).map(tuple)

pdu_strategy = st.one_of(
    st.builds(DataPdu, i32, i32, sizes, i32, i32, i32, payloads),
    st.builds(FecPdu, i32, i32, sizes, i32, i32, i32, i32, payloads),
    st.builds(NackPdu, i32, i32, sizes, i32, i32, i32, i32, i32, rtt_chains),
    st.builds(SessionPdu, i32, i32, sizes, i32, finite, i32, finite, session_entries, i32, i32),
    st.builds(ZcrChallengePdu, i32, i32, sizes, i32, finite),
    st.builds(ZcrResponsePdu, i32, i32, sizes, i32, i32, finite),
    st.builds(ZcrTakeoverPdu, i32, i32, sizes, i32, finite, i32),
    st.builds(ZcrElectPdu, i32, i32, sizes, i32, i32, i32, finite),
    st.builds(ZcrReconcilePdu, i32, i32, sizes, i32, i32, outstanding),
    st.builds(SrmDataPdu, i32, i32, sizes, i32),
    st.builds(SrmRequestPdu, i32, i32, sizes, i32),
    st.builds(SrmRepairPdu, i32, i32, sizes, i32),
    st.builds(SrmSessionPdu, i32, i32, sizes, finite, i32, srm_entries),
)


@settings(max_examples=200, deadline=None)
@given(pdu_strategy)
def test_roundtrip_property(pdu):
    assert_roundtrip(pdu)


@settings(max_examples=100, deadline=None)
@given(pdu_strategy, st.data())
def test_truncation_property(pdu, data):
    frame = encode(pdu)
    cut = data.draw(st.integers(0, len(frame) - 1))
    with pytest.raises(WireError):
        decode(frame[:cut])


@settings(max_examples=100, deadline=None)
@given(session_entries.filter(len), st.data())
def test_duplicate_session_peer_property(entries, data):
    # Any row repeated under any peer already present, at any position.
    victim = data.draw(st.sampled_from(entries))
    extra = data.draw(st.builds(SessionEntry, st.just(victim.peer_id), finite, finite, finite))
    at = data.draw(st.integers(0, len(entries)))
    with pytest.raises(WireError, match="more than once"):
        decode(encode(_session_with(entries[:at] + (extra,) + entries[at:])))


@settings(max_examples=200, deadline=None)
@given(session_entries, st.lists(i32, max_size=4))
def test_echo_index_equals_scan(entries, strangers):
    # The per-PDU index answers exactly what the row-by-row scan it
    # replaced answered, for listed peers and for absent ones, and a
    # decoded copy builds the same index.
    pdu = _session_with(entries)
    clone = decode(encode(pdu))
    for peer in [e.peer_id for e in entries] + strangers:
        scanned = [e for e in entries if e.peer_id == peer]
        assert len(scanned) <= 1
        expected = scanned[0] if scanned else None
        assert pdu.echo_index().get(peer) == expected
        assert clone.echo_index().get(peer) == expected
    assert pdu.echo_index() is pdu.echo_index()  # built once, then shared
    assert encode(pdu) == encode(_session_with(entries))  # and never framed


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=64))
def test_garbage_never_crashes(blob):
    # Arbitrary noise must yield WireError, never a struct.error / IndexError.
    try:
        decode(blob)
    except WireError:
        pass


def test_wire_error_is_repro_error():
    assert issubclass(WireError, ReproError)
