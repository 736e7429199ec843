"""Round-trip and property tests for the erasure codec."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MAX_GROUP_SIZE, MAX_IDENTITY
from repro.core.state import GroupState
from repro.errors import CodecError
from repro.fec.codec import ErasureCodec, decode_blob, encode_blob


def make_data(k, width=32, seed=0):
    return [bytes((seed + i * 7 + j) % 256 for j in range(width)) for i in range(k)]


def test_repairs_recover_any_single_loss():
    k = 8
    codec = ErasureCodec(k)
    data = make_data(k)
    repairs = codec.encode(data, 1)
    for lost in range(k):
        packets = {i: data[i] for i in range(k) if i != lost}
        packets[k] = repairs[0]
        assert codec.decode(packets) == data


def test_all_original_fast_path():
    k = 4
    codec = ErasureCodec(k)
    data = make_data(k)
    assert codec.decode({i: data[i] for i in range(k)}) == data


def test_decode_from_repairs_only():
    k = 5
    codec = ErasureCodec(k)
    data = make_data(k)
    repairs = codec.encode(data, k)
    packets = {k + r: repairs[r] for r in range(k)}
    assert codec.decode(packets) == data


def test_insufficient_packets_raise():
    k = 4
    codec = ErasureCodec(k)
    data = make_data(k)
    with pytest.raises(CodecError):
        codec.decode({0: data[0], 1: data[1], 2: data[2]})


def test_encode_one_matches_batch():
    k = 6
    codec = ErasureCodec(k)
    data = make_data(k)
    batch = codec.encode(data, 4)
    for r in range(4):
        assert codec.encode_one(data, r) == batch[r]
    assert codec.encode(data, 0) == []


def test_unequal_payload_lengths_rejected():
    codec = ErasureCodec(2)
    with pytest.raises(CodecError):
        codec.encode([b"aa", b"bbb"], 1)
    with pytest.raises(CodecError):
        codec.decode({0: b"aa", 3: b"bbb"})


def test_wrong_data_count_rejected():
    codec = ErasureCodec(3)
    with pytest.raises(CodecError):
        codec.encode([b"aa", b"bb"], 1)


def test_invalid_k_rejected():
    with pytest.raises(CodecError):
        ErasureCodec(0)
    with pytest.raises(CodecError):
        ErasureCodec(ErasureCodec.MAX_PACKETS + 1)


def test_negative_repair_index_rejected():
    with pytest.raises(CodecError):
        ErasureCodec(4).repair_row(-1)
    with pytest.raises(CodecError):
        ErasureCodec(4).encode(make_data(4), -1)


@pytest.mark.parametrize("k", [1, 2, 16, 100, 128])
def test_identity_bounds_are_the_codes(k):
    """``core.config`` states the code's limits without importing it."""
    codec = ErasureCodec(k)
    codec.repair_row(MAX_IDENTITY - k)  # the highest identity exists...
    with pytest.raises(CodecError):
        codec.repair_row(MAX_IDENTITY - k + 1)  # ...and is the last one
    assert ErasureCodec(MAX_GROUP_SIZE).k == MAX_GROUP_SIZE
    with pytest.raises(CodecError):
        ErasureCodec(MAX_GROUP_SIZE + 1)


def test_can_decode_matches_real_decoder():
    """The simulator's identity-count shortcut must agree with the codec."""
    k = 4
    codec = ErasureCodec(k)
    data = make_data(k)
    repairs = codec.encode(data, 4)
    everything = {i: data[i] for i in range(k)}
    everything.update({k + r: repairs[r] for r in range(4)})
    import itertools

    # Identities the code cannot produce count for nothing, whatever bytes
    # arrive under them.
    strangers = {-7: data[0], -1: data[1], 256: data[2], 300: data[3]}

    for size in range(1, 7):
        for combo in itertools.combinations(sorted(everything), size):
            for extra in ((), (-1,), (256,), (-7, 300)):
                subset = {i: everything[i] for i in combo}
                subset.update({i: strangers[i] for i in extra})
                if codec.can_decode(combo + extra):
                    assert codec.decode(subset) == data
                else:
                    with pytest.raises(CodecError):
                        codec.decode(subset)
    assert not ErasureCodec(16).can_decode(list(range(15)) + [300])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.lists(st.integers(min_value=-2, max_value=260), max_size=10),
)
def test_identity_model_is_the_code(k, draws):
    """Counting identities (the simulator) agrees with the real decoder.

    For any multiset of identities fed through ``GroupState.record_index``:
    the group is complete iff the codec says it can decode them iff
    decoding their payloads returns the data.
    """
    codec = ErasureCodec(k)
    data = make_data(k, width=4)
    repairs = codec.encode(data, MAX_IDENTITY + 1 - k)
    payload = {i: data[i] for i in range(k)}
    payload.update({k + r: repairs[r] for r in range(len(repairs))})

    state = GroupState(0, k, zone_ids=[0])
    for index in draws:
        if 0 <= index <= MAX_IDENTITY:
            state.record_index(index)
        else:
            with pytest.raises(CodecError):
                state.record_index(index)

    assert state.complete == codec.can_decode(draws)
    received = {i: payload.get(i, b"????") for i in draws}
    if state.complete:
        assert codec.decode(received) == data
    else:
        with pytest.raises(CodecError):
            codec.decode(received)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=0, max_value=16),
    st.randoms(use_true_random=False),
)
def test_random_erasures_roundtrip(k, extra, rnd):
    """Any k survivors out of k data + m repairs reconstruct the group."""
    codec = ErasureCodec(k)
    width = 16
    data = [bytes(rnd.randrange(256) for _ in range(width)) for _ in range(k)]
    repairs = codec.encode(data, extra)
    pool = {i: data[i] for i in range(k)}
    pool.update({k + r: repairs[r] for r in range(extra)})
    indices = sorted(pool)
    rnd.shuffle(indices)
    survivors = {i: pool[i] for i in indices[:k]}
    if len(survivors) == k:
        assert codec.decode(survivors) == data


@settings(max_examples=40, deadline=None)
@given(
    st.binary(min_size=0, max_size=400),
    st.integers(min_value=1, max_value=12),
    st.randoms(use_true_random=False),
)
def test_blob_roundtrip_under_random_loss(blob, k, rnd):
    header, data, repairs = encode_blob(blob, k, n_repairs=k)
    pool = {i: data[i] for i in range(k)}
    pool.update({k + r: repairs[r] for r in range(len(repairs))})
    indices = sorted(pool)
    rnd.shuffle(indices)
    survivors = {i: pool[i] for i in indices[:k]}
    assert decode_blob(header, survivors) == blob


def test_blob_header_validation():
    header, data, repairs = encode_blob(b"hello world", 3, 1)
    with pytest.raises(CodecError):
        decode_blob(b"bad", {0: data[0]})
    with pytest.raises(CodecError):
        decode_blob(header, {0: b"wrong-width", 1: data[1], 2: data[2]})


def test_blob_empty_input():
    header, data, repairs = encode_blob(b"", 4, 2)
    assert decode_blob(header, {i: data[i] for i in range(4)}) == b""
