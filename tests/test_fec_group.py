"""Tests for incremental group assembly."""

from __future__ import annotations

import pytest

from repro.errors import CodecError
from repro.fec.codec import ErasureCodec
from repro.fec.group import GroupAssembler


def test_completion_at_k_distinct_packets():
    asm = GroupAssembler(k=4)
    for i in range(3):
        assert asm.add(i) is True
        assert not asm.is_complete()
    asm.add(7)  # a repair packet counts toward completion
    assert asm.is_complete()


def test_duplicates_do_not_advance():
    asm = GroupAssembler(k=3)
    asm.add(0)
    assert asm.add(0) is False
    assert asm.received == 1
    assert asm.duplicates == 1


def test_deficit_counts_remaining_need():
    asm = GroupAssembler(k=5)
    assert asm.deficit() == 5
    asm.add(0)
    asm.add(9)
    assert asm.deficit() == 3
    for i in (1, 2, 3):
        asm.add(i)
    assert asm.deficit() == 0


def test_negative_index_rejected():
    asm = GroupAssembler(k=2)
    with pytest.raises(CodecError):
        asm.add(-1)
    with pytest.raises(CodecError):
        asm.add(256)  # past the code's last identity
    assert asm.received == 0


def test_reconstruct_with_payloads():
    k = 4
    codec = ErasureCodec(k)
    data = [bytes([i] * 8) for i in range(k)]
    repairs = codec.encode(data, 2)
    asm = GroupAssembler(k, group_id=3, codec=codec)
    asm.add(0, data[0])
    asm.add(3, data[3])
    asm.add(4, repairs[0])
    asm.add(5, repairs[1])
    assert asm.reconstruct() == data


def test_reconstruct_before_complete_raises():
    asm = GroupAssembler(k=3)
    asm.add(0, b"x")
    with pytest.raises(CodecError):
        asm.reconstruct()


def test_identity_only_tracking_cannot_reconstruct():
    asm = GroupAssembler(k=2)
    asm.add(0)
    asm.add(1)
    assert asm.is_complete()
    with pytest.raises(CodecError):
        asm.reconstruct()


def test_indices_view_is_a_copy():
    asm = GroupAssembler(k=2)
    asm.add(0)
    view = asm.indices
    view.add(99)
    assert asm.received == 1
