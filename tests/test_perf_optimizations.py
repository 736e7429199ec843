"""Regression tests for the hot-path optimization layer.

Every optimization here (tuple heap, tombstone compaction, event
recycling, handle-free ``push_call`` entries, compiled forwarding) is
required to be *behaviour-preserving*: seeded runs must
replay byte-identically whichever path executes.  These tests pin the
equivalences and the queue bookkeeping that the optimizations rely on.
"""

from __future__ import annotations

import itertools

import pytest

from repro.errors import ScopeError
from repro.faults.models import GilbertElliott
from repro.net.monitor import PacketEvent, TrafficMonitor
from repro.net.network import Network
from repro.net.packet import Packet
from repro.sim.events import COMPACT_MIN_DEAD, EventQueue
from repro.sim.scheduler import Simulator
from repro.sim.timers import Timer
from repro.sim.trace import Tracer
from repro.topology.figure10 import build_figure10


# --------------------------------------------------------- queue bookkeeping


def test_clear_resets_sequence_counter():
    q = EventQueue()
    for _ in range(5):
        q.push(1.0, lambda: None)
    q.clear()
    event = q.push(1.0, lambda: None)
    assert event.seq == 0


def test_reset_replays_same_time_events_in_original_order():
    """A reset simulator must re-run with the seed queue's tie-breaks.

    All events fire at the same instant, so ordering is decided purely by
    sequence numbers; if ``clear()`` carried the counter over, the replay
    would still fire in schedule order but any code comparing recorded
    sequences (or mixing in new pushes) would diverge from a fresh run.
    """

    def run_once(sim: Simulator) -> list:
        order = []
        for tag in range(8):
            sim.schedule(0.5, order.append, tag)
        sim.run()
        return order

    sim = Simulator(seed=3)
    first = run_once(sim)
    seqs_before = sim.queue._next_seq
    sim.reset(seed=3)
    assert sim.queue._next_seq == 0
    second = run_once(sim)
    assert first == second
    assert sim.queue._next_seq == seqs_before


def test_cancel_after_fire_is_noop_and_len_stays_consistent():
    q = EventQueue()
    event = q.push(1.0, lambda: None)
    other = q.push(2.0, lambda: None)
    assert len(q) == 2
    fired = q.pop()
    assert fired is event and fired.fired
    assert len(q) == 1
    # Cancelling a fired event must not decrement the live count again.
    q.cancel(event)
    assert len(q) == 1
    assert not event.cancelled
    q.cancel(other)
    assert len(q) == 0
    q.cancel(other)  # double cancel: still a no-op
    assert len(q) == 0
    assert q.pop() is None


def test_tombstone_compaction_bounds_heap_size():
    q = EventQueue()
    # One long-lived survivor plus a churn of cancellations far beyond the
    # compaction floor: the raw heap must not grow with the cancel count.
    q.push(1000.0, lambda: None)
    for i in range(20 * COMPACT_MIN_DEAD):
        q.cancel(q.push(1.0 + i, lambda: None))
    assert len(q) == 1
    assert q.heap_size <= 2 * COMPACT_MIN_DEAD + 2
    assert q.tombstones <= q.heap_size


def test_compaction_preserves_pop_order():
    q = EventQueue()
    fired = []
    keepers = []
    for i in range(300):
        event = q.push(float(i), fired.append, (i,))
        if i % 3 == 0:
            keepers.append(i)
        else:
            q.cancel(event)
    while q:
        q.pop().fire()
    assert fired == keepers


def test_same_time_ordering_across_entry_kinds():
    """push, push_call, reschedule and rearm share one tie-break sequence."""
    q = EventQueue()
    fired = []
    q.push(1.0, fired.append, ("push-0",))
    q.push_call(1.0, fired.append, ("call-1",))
    moved = q.push(0.5, fired.append, ("resched-2",))
    q.reschedule(moved, 1.0)  # consumes seq 3: fires after call-1
    q.push_call(1.0, fired.append, ("call-3",))
    while q:
        q.pop().fire()
    assert fired == ["push-0", "call-1", "resched-2", "call-3"]


def test_reschedule_rejects_fired_and_cancelled_events():
    q = EventQueue()
    event = q.push(1.0, lambda: None)
    q.cancel(event)
    with pytest.raises(ValueError):
        q.reschedule(event, 2.0)
    live = q.push(1.0, lambda: None)
    q.pop().fire()
    with pytest.raises(ValueError):
        q.reschedule(live, 2.0)


def test_rearm_fired_recycles_event_object():
    q = EventQueue()
    fired = []
    event = q.push(1.0, fired.append, ("x",))
    q.pop().fire()
    assert q.rearm_fired(event, 2.0) is event
    assert len(q) == 1 and not event.fired
    popped = q.pop()
    assert popped is event and popped.time == 2.0
    popped.fire()
    assert fired == ["x", "x"]


def test_rearm_fired_rejects_pending_and_cancelled_events():
    q = EventQueue()
    pending = q.push(1.0, lambda: None)
    with pytest.raises(ValueError):
        q.rearm_fired(pending, 2.0)
    q.cancel(pending)
    with pytest.raises(ValueError):
        q.rearm_fired(pending, 2.0)


def test_push_call_fires_through_run_loop():
    sim = Simulator()
    fired = []
    sim.call_at(0.25, fired.append, "a")
    sim.schedule(0.25, fired.append, "b")
    sim.call_at(0.25, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 0.25


def test_push_call_respects_run_horizon():
    sim = Simulator()
    fired = []
    sim.call_at(1.0, fired.append, "late")
    sim.run(until=0.5)
    assert fired == []
    assert sim.now == 0.5
    sim.run()
    assert fired == ["late"]


def test_timer_restart_recycles_after_fire():
    sim = Simulator()
    count = [0]
    timer = Timer(sim, lambda: count.__setitem__(0, count[0] + 1), name="t")
    timer.start(0.1)
    sim.run()
    assert count[0] == 1 and not timer.running
    timer.restart(0.1)  # recycles the fired event in place
    assert timer.running
    sim.run()
    assert count[0] == 2


# ----------------------------------------------------------------- tracing


def test_tracer_version_bumps_on_table_and_enable_changes():
    tracer = Tracer()
    v0 = tracer.version
    listener = lambda record: None
    tracer.subscribe("pkt.recv", listener)
    assert tracer.version > v0
    v1 = tracer.version
    tracer.enabled = False
    assert tracer.version > v1
    v2 = tracer.version
    tracer.enabled = False  # unchanged value: no bump
    assert tracer.version == v2
    tracer.unsubscribe("pkt.recv", listener)
    assert tracer.version > v2


def test_tracer_wants_tracks_subscriptions_and_enabled():
    tracer = Tracer()
    assert not tracer.wants("pkt.recv")
    listener = lambda record: None
    tracer.subscribe("pkt.recv", listener)
    assert tracer.wants("pkt.recv")
    assert not tracer.wants("pkt.send")
    tracer.enabled = False
    assert not tracer.wants("pkt.recv")
    tracer.enabled = True
    tracer.subscribe(None, listener)  # wildcard reaches every category
    assert tracer.wants("pkt.send")


# --------------------------------------------- forwarding path equivalence


def _notify(net: Network, method: str, event: PacketEvent) -> None:
    for observer in net._observers:
        callback = getattr(observer, method, None)
        if callback is not None:
            callback(event)


def reference_multicast(net: Network, src: int, packet: Packet) -> None:
    """The interpreted per-hop walk that ``Network.multicast`` must replay.

    Same tree (the compiled schedule flattened back to a children dict per
    packet), but links looked up per hop, ``_drops`` / ``link.transmit`` /
    ``node.deliver`` called where the compiled path inlines them, observers
    found by ``getattr``, the tracer asked on every event.  Single engine only.
    """
    group = net._group(packet.group)
    if not group.allows(src):
        raise ScopeError(f"node {src} cannot send on group {group.name!r}: outside scope")
    if not net.nodes[src].up:
        net.sim.tracer.emit(net.sim.now, "pkt.stifled", src, packet)
        return
    children, stack = {}, [net._schedule_for(src, group)]
    while stack:
        node, _, _, kids = stack.pop()
        children[node] = [child[0] for _, child in kids]
        stack.extend(child for _, child in kids)
    _notify(net, "on_send", PacketEvent(net.sim.now, src, packet.kind, packet.size_bytes, True))
    net.sim.tracer.emit(net.sim.now, "pkt.send", src, packet)
    _forward_hops(net, children, src, packet)


def _forward_hops(net: Network, children: dict, node: int, packet: Packet) -> None:
    now = net.sim.now
    for child in children[node]:
        link = net._links[(node, child)]
        if net._drops(link, packet):
            link.record_drop()
            category = "pkt.drop"
        else:
            arrival = link.transmit(now, packet.size_bytes)
            if arrival is not None:
                net.sim.at(arrival, _arrive_multicast, net, packet, children, child)
                continue
            category = "pkt.qdrop"  # drop-tail queue overflow
        _notify(net, "on_drop", PacketEvent(now, child, packet.kind, packet.size_bytes, False))
        net.sim.tracer.emit(now, category, child, packet)


def _arrive_multicast(net: Network, packet: Packet, children: dict, node: int) -> None:
    now = net.sim.now
    if not net.nodes[node].up:
        _notify(net, "on_drop", PacketEvent(now, node, packet.kind, packet.size_bytes, False))
        net.sim.tracer.emit(now, "pkt.nodedrop", node, packet)
        return
    is_subscriber = node in net.groups[packet.group].subscribers
    _notify(net, "on_receive", PacketEvent(now, node, packet.kind, packet.size_bytes, is_subscriber))
    if is_subscriber:
        net.sim.tracer.emit(now, "pkt.recv", node, packet)
        net.nodes[node].deliver(packet)
    _forward_hops(net, children, node, packet)


#: Flood case -> the trace category that proves the case bit.  The first is
#: the common case the compiled path inlines; the rest are what it
#: special-cases (a non-inlined branch, or state read after compile time).
FLOOD_CASES = {
    "bernoulli": "pkt.drop",
    "queue_overflow": "pkt.qdrop",
    "gilbert_elliott": "pkt.drop",
    "loss_oracle": "pkt.drop",
    "faults_in_flight": "pkt.nodedrop",
    "loss_exempt": "pkt.recv",
}


def _flood(case: str, n_packets: int = 60, seed: int = 11):
    """Flood the Figure 10 topology and return observable outcomes."""
    sim = Simulator(seed=seed)
    fig = build_figure10(sim)
    net = fig.network
    group = net.create_group("flood")
    delivered = []
    handlers = {
        node: (lambda pkt, n=node: delivered.append((n, pkt.uid))) for node in fig.receivers
    }
    for node, handler in handlers.items():
        net.subscribe(group.group_id, node, handler)
    monitor = TrafficMonitor()
    net.add_observer(monitor)
    trace = []
    for category in ("pkt.recv", "pkt.drop", "pkt.qdrop", "pkt.nodedrop"):
        sim.tracer.subscribe(category, lambda rec: trace.append((rec.time, rec.node, rec.category)))

    head, crashed = fig.heads[0], fig.heads[3]
    child = fig.children[head][0]
    burst = 1
    if case == "queue_overflow":
        # Four back-to-back 45 Mbit arrivals into a 10 Mbit link that buffers one.
        burst = 4
        for kid in fig.children[head]:
            net.link(head, kid).queue_limit = 1
    elif case == "gilbert_elliott":
        net.set_loss_model(
            fig.source, head,
            GilbertElliott(0.3, 0.4, loss_good=0.05, loss_bad=0.9, slot_s=0.004,
                           state_rng=sim.rng.stream("ge.state"),
                           packet_rng=sim.rng.stream("ge.packet")),
        )
    elif case == "loss_oracle":
        crossings = itertools.count()
        net.loss_oracle = lambda link, pkt: next(crossings) % 7 == 3
    elif case == "faults_in_flight":
        # Backbone + tree latencies keep ~20 packets in flight: each change
        # below lands on stale records, then on a rebuilt tree 30 ms later.
        net.reconvergence_delay = 0.03
        leaver = fig.grandchildren[fig.children[fig.heads[5]][1]][2]
        sim.at(0.050, net.set_link_up, head, child, False)
        sim.at(0.060, net.set_node_up, crashed, False)
        sim.at(0.070, net.unsubscribe, group.group_id, leaver, handlers[leaver])
        sim.at(0.120, net.set_node_up, crashed, True)
        sim.at(0.125, net.set_link_up, head, child, True)

    def send(i: int) -> None:
        exempt = case == "loss_exempt" and i % 2 == 0
        net.multicast(fig.source, Packet("DATA", fig.source, group.group_id, 1024, exempt))

    for i in range(n_packets):
        sim.at((i // burst) * burst * 0.003, send, i)
    sim.run()
    series = {
        node: monitor.series(["DATA"], node, t_end=sim.now) for node in fig.receivers
    }
    # Packet uids come from a process-global counter; normalize to the
    # run's first uid so two runs compare by position in the stream.
    base = min((uid for _, uid in delivered), default=0)
    deliveries = sorted((node, uid - base) for node, uid in delivered)
    return deliveries, trace, monitor.total(["DATA"]), monitor.drops, series


def test_compiled_forwarding_matches_reference_walk(monkeypatch):
    """The compiled schedule must replay the interpreted walk byte for byte.

    Same seed, same topology, same sends and faults: every delivery, every
    traced arrival and drop, every loss draw and every per-interval bin
    must agree — the compiled schedule may only change *speed*.
    """
    for case, proof in FLOOD_CASES.items():
        fast = _flood(case)
        with monkeypatch.context() as patch:
            patch.setattr(Network, "multicast", reference_multicast)
            reference = _flood(case)
        assert fast == reference, case
        deliveries, trace, received, dropped, series = fast
        assert received > 0 and dropped > 0, case  # the comparison is not vacuous
        assert any(category == proof for _, _, category in trace), case
        if case == "loss_exempt":  # the exempt half reached every receiver
            assert len(deliveries) > 30 * len(series)


# ------------------------------------------------------------ codec default


def test_default_codec_selection():
    from repro.fec import ErasureCodec, default_codec

    assert type(default_codec(8)) is ErasureCodec
