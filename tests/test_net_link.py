"""Unit tests for the directed link model."""

from __future__ import annotations

import pytest

from repro.errors import TopologyError
from repro.net.link import Link


def test_serialization_delay():
    link = Link(0, 1, bandwidth_bps=8e6, latency_s=0.01)
    # 1000 bytes at 8 Mbit/s = 1 ms.
    assert link.serialization_delay(1000) == pytest.approx(0.001)


def test_transmit_arrival_time():
    link = Link(0, 1, bandwidth_bps=8e6, latency_s=0.01)
    arrival = link.transmit(now=0.0, size_bytes=1000)
    assert arrival == pytest.approx(0.011)


def test_fifo_serialization_queues_back_to_back_packets():
    link = Link(0, 1, bandwidth_bps=8e6, latency_s=0.01)
    first = link.transmit(0.0, 1000)
    second = link.transmit(0.0, 1000)  # queued behind the first
    assert second == pytest.approx(first + 0.001)


def test_idle_gap_resets_queueing():
    link = Link(0, 1, bandwidth_bps=8e6, latency_s=0.0)
    link.transmit(0.0, 1000)
    arrival = link.transmit(10.0, 1000)
    assert arrival == pytest.approx(10.001)


def test_counters():
    link = Link(0, 1, 1e6, 0.0)
    link.transmit(0.0, 500)
    link.transmit(0.0, 700)
    link.record_drop()
    assert link.packets_sent == 2
    assert link.bytes_sent == 1200
    assert link.packets_dropped == 1


@pytest.mark.parametrize(
    "kwargs",
    [
        {"bandwidth_bps": 0, "latency_s": 0.0},
        {"bandwidth_bps": -1, "latency_s": 0.0},
        {"bandwidth_bps": 1e6, "latency_s": -0.1},
        {"bandwidth_bps": 1e6, "latency_s": 0.0, "loss_rate": 1.0},
        {"bandwidth_bps": 1e6, "latency_s": 0.0, "loss_rate": -0.2},
    ],
)
def test_invalid_parameters_rejected(kwargs):
    with pytest.raises(TopologyError):
        Link(0, 1, **kwargs)
