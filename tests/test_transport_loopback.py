"""Loopback SHARQFEC over real asyncio UDP sockets.

One event loop hosts the relay plus one sender and two receiver
:class:`~repro.transport.runtime.NodeRuntime` endpoints — the same wiring
``scripts/loopback_demo.py`` spreads across processes, compressed into a
test.  The relay injects Gilbert–Elliott burst loss per destination, and
the assertion is the simulation suite's own eventual-delivery invariant
running against :class:`ProtocolView`.

Wall-clock bounded: the stream is short (48 packets at 100 pkt/s) and the
timeout generous, so the test passes comfortably on slow CI yet fails
fast if delivery wedges.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.config import SharqfecConfig
from repro.testing.invariants import assert_eventual_delivery
from repro.transport.api import Clock, Transport
from repro.transport.runtime import NodeRuntime, ProtocolView
from repro.transport.udp import UdpRelay, UdpTransport, gilbert_elliott_factory
from repro.transport.wire import encode

MEMBERS = [0, 1, 2]
SOURCE = 0


def _small_config() -> SharqfecConfig:
    # 6 FEC groups of 8 packets, 0.48 s of CBR at the paper's 100 pkt/s.
    return SharqfecConfig(group_size=8, n_packets=48)


async def _run_session(loss_factory, timeout: float = 45.0, announce: bool = True):
    relay = UdpRelay(loss_factory=loss_factory)
    addr = await relay.start()
    nodes = [
        NodeRuntime(nid, MEMBERS, SOURCE, addr, config=_small_config(), seed=7)
        for nid in MEMBERS
    ]
    try:
        for node in nodes:
            await node.start(session_start=0.5, data_start=2.0)
        results = await asyncio.gather(
            *(node.wait_complete(timeout, announce=announce) for node in nodes)
        )
        if not announce:
            # Complete with no time left: what a receiver that finishes
            # during the last poll interval looks like to wait_complete.
            results = [await node.wait_complete(0.0) for node in nodes]
        stats = await nodes[0].transport.relay_stats()
        return nodes, results, relay, stats
    finally:
        for node in nodes:
            node.stop()
        relay.close()


def test_lossless_loopback_delivers():
    """Sanity: with no loss proxy, plain CBR delivery completes."""

    async def main():
        nodes, results, relay, stats = await _run_session(None, announce=False)
        assert all(results), f"incomplete nodes: {results}"
        assert relay.lossy_dropped == 0
        assert stats["measured_loss"] == 0.0
        view = ProtocolView(
            nodes[1].config, {n.node_id: n.agent for n in nodes if not n.is_sender}
        )
        assert_eventual_delivery(view, context="lossless loopback")
        assert view.completion_fraction() == 1.0
        # Receivers announced DONE to the relay roster, deadline or not.
        assert set(stats["done"]) == {1, 2}

    asyncio.run(main())


def test_lossy_loopback_recovers_full_stream():
    """The acceptance gate: >=10% injected loss, yet eventual delivery."""

    async def main():
        # Stationary bad-state fraction p_gb/(p_gb+p_bg) = 1/6 of slots
        # drop everything: comfortably past the 10% floor in expectation.
        factory = gilbert_elliott_factory(p_gb=0.05, p_bg=0.25, seed=11)
        nodes, results, relay, stats = await _run_session(loss_factory=factory)
        assert all(results), (
            f"receivers never completed under loss; relay stats: {relay.stats()}"
        )
        view = ProtocolView(
            nodes[1].config, {n.node_id: n.agent for n in nodes if not n.is_sender}
        )
        assert_eventual_delivery(view, context="lossy loopback")
        assert set(stats["done"]) == {1, 2}
        # Loss really happened — this is a recovery test, not a lucky run.
        assert relay.lossy_dropped > 0
        assert stats["lossy_dropped"] == relay.lossy_dropped
        assert stats["measured_loss"] > 0.0
        # Recovery traffic flowed (NACKs and repairs, not just luck).
        receivers = [n.agent for n in nodes if not n.is_sender]
        assert any(r.nacks_sent > 0 for r in receivers) or relay.lossy_dropped < 5

    asyncio.run(main())


def test_runtime_satisfies_transport_and_clock_protocols():
    async def main():
        relay = UdpRelay()
        addr = await relay.start()
        node = NodeRuntime(1, MEMBERS, SOURCE, addr, config=_small_config())
        try:
            assert isinstance(node.clock, Clock)
            assert isinstance(node.transport, Transport)
            assert not node.is_sender
            assert NodeRuntime(0, MEMBERS, SOURCE, addr).is_sender
        finally:
            node.stop()
            relay.close()

    asyncio.run(main())


def test_runtime_rejects_bad_membership():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        NodeRuntime(1, [1, 2], source_id=0, relay_addr=("127.0.0.1", 1))
    with pytest.raises(ConfigError):
        NodeRuntime(9, [0, 1, 2], source_id=0, relay_addr=("127.0.0.1", 1))


def test_deterministic_group_plan_across_processes():
    """Independent transports derive identical group ids from the same plan."""

    async def main():
        from repro.scoping.channels import ScopedChannels

        relay = UdpRelay()
        addr = await relay.start()
        nodes = [
            NodeRuntime(nid, MEMBERS, SOURCE, addr, config=_small_config())
            for nid in MEMBERS
        ]
        try:
            for node in nodes:
                await node.start(session_start=60.0, data_start=60.0)
            plans = [
                (
                    n.channels.data_group_id,
                    n.channels.repair_group(n.hierarchy.root.zone_id),
                    n.channels.session_group(n.hierarchy.root.zone_id),
                )
                for n in nodes
            ]
            assert plans[0] == plans[1] == plans[2]
            assert len(set(plans[0])) == 3  # three distinct channels
        finally:
            for node in nodes:
                node.stop()
            relay.close()

    asyncio.run(main())


def test_relay_ignores_malformed_and_unknown_frames():
    async def main():
        from repro.core.pdus import DataPdu

        relay = UdpRelay()
        addr = await relay.start()
        loop = asyncio.get_running_loop()
        transport, _ = await loop.create_datagram_endpoint(
            asyncio.DatagramProtocol, remote_addr=addr
        )
        try:
            # asyncio's sendto drops empty payloads client-side, so use a raw
            # socket to exercise the relay's empty-datagram guard.
            import socket

            raw = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            raw.sendto(b"", addr)
            raw.close()
            transport.sendto(bytes([99]) + b"junk")  # unknown op
            transport.sendto(bytes([3]) + b"\x00\x01short")  # DATA, bad frame
            # A well-formed DATA frame for a group with no subscribers is
            # silently dropped, not an error.
            frame = encode(DataPdu(0, 1, 100, seq=0, group_id=0, index=0))
            transport.sendto(bytes([3]) + frame)
            deadline = loop.time() + 2.0
            while relay.malformed < 3 and loop.time() < deadline:
                await asyncio.sleep(0.01)
            assert relay.malformed == 3
            assert relay.forwarded == 0
        finally:
            transport.close()
            relay.close()

    asyncio.run(main())


def test_subscription_reannounce_heals_relay_restart_window():
    """SUBs sent before the relay heard them are healed by the re-announce."""

    async def main():
        relay = UdpRelay()
        addr = await relay.start()
        clock_holder = {}

        # An endpoint with a fast re-announce timer.
        from repro.transport.clock import AsyncioClock

        clock = AsyncioClock()
        clock_holder["clock"] = clock
        endpoint = UdpTransport(clock, addr, announce_interval=0.05)
        await endpoint.start()
        try:
            group = endpoint.create_group("g")
            got = []
            endpoint.subscribe(group.group_id, 7, got.append)
            # Simulate the relay having lost the subscription state.
            relay._subs.clear()
            deadline = clock.now + 2.0
            while not relay._subs and clock.now < deadline:
                await asyncio.sleep(0.01)
            assert relay._subs.get(group.group_id, {}).get(7) is not None
        finally:
            endpoint.close()
            relay.close()

    asyncio.run(main())
