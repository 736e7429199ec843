"""Tests for per-group state."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MAX_IDENTITY
from repro.core.state import GroupState
from repro.errors import CodecError
from repro.testing import property_max_examples

ZONES = [10, 11, 12]  # smallest -> root


def make_state(k=16):
    return GroupState(group_id=0, k=k, zone_ids=ZONES)


def test_initial_highest_is_k_minus_one():
    s = make_state(16)
    assert s.highest_known == 15


def test_record_index_tracks_data_and_completion():
    s = make_state(4)
    for i in range(3):
        assert s.record_index(i)
        assert not s.complete
    s.record_index(7)  # a repair identity
    assert s.complete
    assert s.data_count == 3
    assert s.received() == 4


def test_duplicates_are_ignored():
    s = make_state(4)
    assert s.record_index(0)
    assert not s.record_index(0)
    assert s.received() == 1


def test_llc_counts_only_detected_losses():
    s = make_state(8)
    s.record_index(0)
    s.record_index(3)  # indices 1, 2 missing
    assert s.count_data_losses_before(3) == 2
    assert s.llc == 2
    # Re-counting the same gap adds nothing.
    assert s.count_data_losses_before(3) == 0
    assert s.llc == 2


def rescan_losses_before(indices, counted_lost, k, index):
    """The full rescan loss detection once was: every data index below
    ``index`` that never arrived and is not yet counted becomes lost."""
    new = 0
    for j in range(min(index, k)):
        if j not in indices and j not in counted_lost:
            counted_lost.add(j)
            new += 1
    return new


@st.composite
def _intake(draw):
    """A group shape and an interleaving of arrivals and loss scans."""
    k = draw(st.integers(1, 32))
    r = draw(st.integers(0, 16))
    op = st.one_of(
        st.tuples(st.just("record"), st.integers(0, k + r)),
        st.tuples(st.just("count"), st.integers(0, k + r)),
        st.just(("finalize", k)),
    )
    return k, draw(st.lists(op, max_size=60))


@settings(max_examples=property_max_examples(100), deadline=None)
@given(_intake())
def test_loss_watermark_matches_a_full_rescan(case):
    k, ops = case
    s = make_state(k)
    indices, counted_lost = set(), set()
    for op, i in ops:
        if op == "record":
            assert s.record_index(i) == (i not in indices)
            indices.add(i)
            continue
        expected = rescan_losses_before(indices, counted_lost, k, i)
        got = s.finalize_data_losses() if op == "finalize" else s.count_data_losses_before(i)
        assert got == expected
        assert s.counted_lost == counted_lost
        assert s.llc == len(counted_lost)


def test_finalize_counts_tail_losses():
    s = make_state(8)
    s.record_index(0)
    s.record_index(1)
    assert s.finalize_data_losses() == 6
    assert s.llc == 6


def test_deficit_accounts_for_repairs():
    s = make_state(4)
    s.record_index(0)
    assert s.deficit() == 3
    s.record_index(9)   # repair identity closes part of the hole
    assert s.deficit() == 2


def test_zlc_monotone_per_zone():
    s = make_state()
    assert s.raise_zlc(10, 3)
    assert not s.raise_zlc(10, 2)
    assert s.zlc_for(10) == 3
    assert s.zlc_for(11) == 0
    assert s.raise_zlc(11, 5)


def test_allocate_repair_indices_monotone():
    s = make_state(16)
    first = s.allocate_repair_index()
    second = s.allocate_repair_index()
    assert first == 16
    assert second == 17
    assert s.repairs_sent == 2


def test_note_highest_moves_allocation_forward():
    """NACK/FEC announcements keep repairers from reusing identities (§4)."""
    s = make_state(16)
    s.note_highest(20)
    assert s.allocate_repair_index() == 21
    s.note_highest(5)  # lower values never move it back
    assert s.allocate_repair_index() == 22


def test_allocation_stops_at_the_codes_last_identity():
    s = make_state(16)
    s.note_highest(MAX_IDENTITY - 1)
    assert s.allocate_repair_index() == MAX_IDENTITY
    with pytest.raises(CodecError):
        s.allocate_repair_index()
    assert s.highest_known == MAX_IDENTITY


def test_identities_outside_the_code_are_refused():
    s = make_state(16)
    for i in range(14):
        s.record_index(i)
    for stranger in (-7, MAX_IDENTITY + 1, 300):
        with pytest.raises(CodecError):
            s.record_index(stranger)
    assert not s.complete and s.deficit() == 2


def test_zero_k_group_is_trivially_complete():
    s = GroupState(0, 0, ZONES)
    assert s.complete


def test_outstanding_and_fec_heard_start_zero():
    s = make_state()
    assert all(v == 0 for v in s.outstanding.values())
    assert all(v == 0 for v in s.fec_heard.values())
    assert set(s.outstanding) == set(ZONES)
