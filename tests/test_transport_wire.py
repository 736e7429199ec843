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

from repro.core.config import MAX_IDENTITY
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


# ------------------------------------------------------ golden v1 frames
#
# Round-trips pass even when a layout changes the same way on both sides, so
# these pin the version-1 bytes: one frame per PDU class, recorded from the
# codec as first released.  A change here is a wire-version change.

GOLDEN_V1 = [
    (SAMPLES[2], "53460101ffffffff00000003000004000000000900000001000000010000000700ff68656c6c6f"),
    (SAMPLES[4], "53460102000000040000000500000400000000020000001200000013ffffffff00000003666563"),
    (
        SAMPLES[6],
        "534601030000000600000007000000400000000300000000ffffffff0000000100000009"
        "000200000009000000043faa9fbe76c8b4390000000c00000002bff0000000000000",
    ),
    (
        SAMPLES[8],
        "534601040000000800000009000000dc000000094028400000000000000000043fa16872b020c49c"
        "000000020000001100020000000240270000000000003fe40000000000003fa4fdf3b645a1cb"
        "0000000340278000000000003fd8000000000000bff0000000000000",
    ),
    (SAMPLES[9], "534601050000000a0000000b0000003000000009400c000000000000"),
    (SAMPLES[10], "534601060000000b0000000c00000030000000090000000a3f60624dd2f1a9fc"),
    (SAMPLES[11], "534601070000000c0000000d00000030000000093f9999999999999a00000003"),
    (SAMPLES[12], "534601080000000d0000000e00000030000000090000000400000001bff0000000000000"),
    (
        SAMPLES[13],
        "534601090000000e0000000f0000004000000009000000050003000000000000000200000003"
        "000000010000000700000004",
    ),
    (SAMPLES[15], "534601110000000000000001000003e80000002a"),
    (SAMPLES[16], "534601120000000300000001000000400000002a"),
    (SAMPLES[17], "534601130000000500000001000003e80000002a"),
    (
        SAMPLES[19],
        "53460114000000070000000200000080401100000000000000000063000200000001400c000000"
        "0000003fe800000000000000000002400d0000000000003fe4000000000000",
    ),
]


def test_golden_frames_cover_every_pdu_class():
    assert {type(p) for p, _ in GOLDEN_V1} == ALL_PDU_CLASSES


@pytest.mark.parametrize("pdu,frame_hex", GOLDEN_V1, ids=[type(p).__name__ for p, _ in GOLDEN_V1])
def test_golden_v1_frame(pdu, frame_hex):
    frame = bytes.fromhex(frame_hex)
    assert encode(pdu) == frame
    clone = decode(frame)
    assert type(clone) is type(pdu)
    assert _protocol_fields(clone) == _protocol_fields(pdu)
    assert clone.describe() == pdu.describe()


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


# A frame field holds any i32, but a packet identity must be one the erasure
# code can produce (0..MAX_IDENTITY; a NACK's highest_seen may also be -1,
# "none").  Each frame is a golden v1 frame above with one identity field
# rewritten; counted toward a group, it would complete a group nobody can
# rebuild.

OUT_OF_CODE_V1 = {
    "DATA index -7": "53460101ffffffff0000000300000400"
    "0000000900000001fffffff90000000700ff68656c6c6f",
    "DATA index 300": "53460101ffffffff0000000300000400"
    "00000009000000010000012c0000000700ff68656c6c6f",
    "FEC index -7": "53460102000000040000000500000400"
    "00000002fffffff900000013ffffffff00000003666563",
    "FEC index 256": "53460102000000040000000500000400"
    "000000020000010000000013ffffffff00000003666563",
    "FEC new_high_id -7": "53460102000000040000000500000400"
    "0000000200000012fffffff9ffffffff00000003666563",
    "FEC new_high_id 300": "53460102000000040000000500000400"
    "00000002000000120000012cffffffff00000003666563",
    "NACK highest_seen 256": "53460103000000060000000700000040"
    "0000000300000000000001000000000100000009000200000009000000043faa9fbe76c8"
    "b4390000000c00000002bff0000000000000",
    "NACK highest_seen -2": "53460103000000060000000700000040"
    "0000000300000000fffffffe0000000100000009000200000009000000043faa9fbe76c8"
    "b4390000000c00000002bff0000000000000",
}


@pytest.mark.parametrize("frame_hex", OUT_OF_CODE_V1.values(), ids=list(OUT_OF_CODE_V1))
def test_identity_outside_the_code_rejected(frame_hex):
    with pytest.raises(WireError, match="outside"):
        decode(bytes.fromhex(frame_hex))


def test_identity_outside_the_code_refused_in_process_too():
    for bad in (-1, MAX_IDENTITY + 1):
        with pytest.raises(ValueError):
            DataPdu(0, 3, 1024, seq=7, group_id=0, index=bad)
        with pytest.raises(ValueError):
            FecPdu(4, 5, 1024, group_id=2, index=bad, new_high_id=19, zone_id=9)
        with pytest.raises(ValueError):
            FecPdu(4, 5, 1024, group_id=2, index=17, new_high_id=bad, zone_id=9)
    with pytest.raises(ValueError):
        NackPdu(6, 7, 64, 3, 2, MAX_IDENTITY + 1, 2, 9)
    # The code's last identity is still one.
    assert_roundtrip(FecPdu(4, 5, 1024, 2, MAX_IDENTITY, MAX_IDENTITY, 9))
    assert_roundtrip(NackPdu(6, 7, 64, 3, 2, MAX_IDENTITY, 2, 9))


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
identities = st.integers(0, MAX_IDENTITY)  # the erasure code's, see above

pdu_strategy = st.one_of(
    st.builds(DataPdu, i32, i32, sizes, i32, i32, identities, payloads),
    st.builds(FecPdu, i32, i32, sizes, i32, identities, identities, i32, payloads),
    st.builds(NackPdu, i32, i32, sizes, i32, i32, st.integers(-1, MAX_IDENTITY), i32, i32,
              rtt_chains),
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
