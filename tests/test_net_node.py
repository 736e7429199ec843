"""Unit tests for the Node delivery plumbing."""

from __future__ import annotations

import pytest

from repro.net.node import Node
from repro.net.packet import Packet


def test_handlers_per_group():
    node = Node(1)
    got_a, got_b = [], []
    node.add_handler(10, got_a.append)
    node.add_handler(20, got_b.append)
    node.deliver(Packet("DATA", 0, 10, 100))
    assert len(got_a) == 1 and got_b == []
    assert sorted(node.groups()) == [10, 20]


def test_multiple_handlers_same_group():
    node = Node(1)
    got_a, got_b = [], []
    node.add_handler(10, got_a.append)
    node.add_handler(10, got_b.append)
    node.deliver(Packet("DATA", 0, 10, 100))
    assert len(got_a) == 1 and len(got_b) == 1


def test_remove_handler():
    node = Node(1)
    handler = lambda p: None
    node.add_handler(10, handler)
    node.remove_handler(10, handler)
    assert node.groups() == []
    with pytest.raises(ValueError):
        node.remove_handler(10, handler)


def test_handler_may_unsubscribe_during_delivery():
    node = Node(1)
    got = []

    def once(packet):
        got.append(packet)
        node.remove_handler(10, once)

    node.add_handler(10, once)
    node.deliver(Packet("DATA", 0, 10, 100))
    node.deliver(Packet("DATA", 0, 10, 100))
    assert len(got) == 1


def test_default_name():
    assert Node(7).name == "n7"
    assert Node(7, "router").name == "router"
