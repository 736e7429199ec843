"""Unit tests for zone hierarchies."""

from __future__ import annotations

import pytest

from repro.errors import ScopeError
from repro.scoping.zone import ZoneHierarchy


def build_paper_figure3():
    """The hierarchy of the paper's Figure 3: Z0 > (Z1 > Z3,Z4), (Z2 > Z5,Z6)."""
    h = ZoneHierarchy()
    z0 = h.add_root(range(14), name="Z0")
    z1 = h.add_zone(z0.zone_id, {2, 4, 5, 8, 9, 10, 11, 12, 13}, name="Z1")
    z2 = h.add_zone(z0.zone_id, {3, 6, 7}, name="Z2")
    z3 = h.add_zone(z1.zone_id, {8, 9, 10}, name="Z3")
    z4 = h.add_zone(z1.zone_id, {5, 11, 12, 13}, name="Z4")
    z5 = h.add_zone(z2.zone_id, {6}, name="Z5")
    z6 = h.add_zone(z2.zone_id, {7}, name="Z6")
    return h, (z0, z1, z2, z3, z4, z5, z6)


def test_chain_for_leaf_node():
    h, (z0, z1, z2, z3, z4, z5, z6) = build_paper_figure3()
    chain = h.chain_for(11)
    assert [z.name for z in chain] == ["Z4", "Z1", "Z0"]


def test_chain_for_intermediate_node():
    h, zones = build_paper_figure3()
    chain = h.chain_for(2)
    assert [z.name for z in chain] == ["Z1", "Z0"]


def test_chain_for_root_only_node():
    h, zones = build_paper_figure3()
    assert [z.name for z in h.chain_for(0)] == ["Z0"]


def test_smallest_zone():
    h, zones = build_paper_figure3()
    assert h.smallest_zone(6).name == "Z5"
    assert h.smallest_zone(1).name == "Z0"


def test_levels():
    h, (z0, z1, z2, z3, z4, z5, z6) = build_paper_figure3()
    assert z0.level == 0
    assert z1.level == 1
    assert z4.level == 2
    assert h.depth() == 3


def test_children_and_parent():
    h, (z0, z1, *_rest) = build_paper_figure3()
    assert {z.name for z in h.children(z0.zone_id)} == {"Z1", "Z2"}
    assert h.parent(z1.zone_id).name == "Z0"
    assert h.parent(z0.zone_id) is None


def test_validate_passes_on_good_hierarchy():
    h, _ = build_paper_figure3()
    h.validate()


def test_second_root_rejected():
    h = ZoneHierarchy()
    h.add_root({0, 1})
    with pytest.raises(ScopeError):
        h.add_root({2})


def test_child_escaping_parent_rejected():
    h = ZoneHierarchy()
    root = h.add_root({0, 1, 2})
    with pytest.raises(ScopeError):
        h.add_zone(root.zone_id, {2, 3})


def test_overlapping_siblings_rejected():
    h = ZoneHierarchy()
    root = h.add_root({0, 1, 2, 3})
    h.add_zone(root.zone_id, {1, 2})
    with pytest.raises(ScopeError):
        h.add_zone(root.zone_id, {2, 3})


def test_empty_zone_rejected():
    h = ZoneHierarchy()
    with pytest.raises(ScopeError):
        h.add_root(set())
    root = h.add_root({0})
    with pytest.raises(ScopeError):
        h.add_zone(root.zone_id, set())


def test_node_outside_session_rejected():
    h = ZoneHierarchy()
    h.add_root({0, 1})
    with pytest.raises(ScopeError):
        h.chain_for(9)


def test_unknown_zone_rejected():
    h = ZoneHierarchy()
    h.add_root({0})
    with pytest.raises(ScopeError):
        h.zone(42)


def test_members_is_root_set():
    h, _ = build_paper_figure3()
    assert h.members() == set(range(14))
