"""Seeded micro-kernels for the simulator's hot paths.

Each function runs one deterministic workload against the *public*
simulator APIs.  ``benchmarks/e2e/kernels.py`` times them (median of five)
for the per-layer ``sim.churn_events_per_s``, ``net.flood_pkts_per_s``,
``obs.flood_overhead_ratio`` and ``fec.*_mb_per_s`` metrics.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

from repro.sim.scheduler import Simulator
from repro.sim.timers import Timer

MB = 1024.0 * 1024.0


# ------------------------------------------------------------- event core


def run_timer_churn(n_timers: int = 512, horizon: float = 40.0, seed: int = 7) -> int:
    """A timer-heavy workload shaped like SHARQFEC suppression traffic.

    Every firing restarts the timer itself *and* re-arms a pseudo-random
    neighbour (the suppression pattern: most scheduled expiries are pushed
    out before they fire), so the event queue sees far more cancellations/
    reschedules than firings — exactly the churn the tombstone-compaction
    work targets.  Returns the number of events fired (deterministic).
    """
    sim = Simulator(seed=seed)
    rngs = [sim.rng.stream(f"churn.{i}") for i in range(n_timers)]
    timers: List[Timer] = []

    def make_callback(i: int) -> Callable[[], None]:
        def fire() -> None:
            rng = rngs[i]
            timers[i].restart(0.01 + rng.random() * 0.05)
            timers[(i * 7 + 3) % n_timers].restart(0.02 + rng.random() * 0.05)

        return fire

    for i in range(n_timers):
        timers.append(Timer(sim, make_callback(i), name=f"churn{i}"))
    for i, timer in enumerate(timers):
        timer.start(0.001 * (i + 1))
    sim.run(until=horizon)
    for timer in timers:
        timer.cancel()
    return sim.events_fired


# -------------------------------------------------------------- forwarding


def run_flood(n_packets: int = 512, seed: int = 3) -> tuple:
    """Multicast flood on the paper's 113-node Figure 10 topology.

    No protocol agents: the source floods fixed-size data packets to all
    112 receivers through the lossy scoped tree.  This isolates the
    forwarding engine — tree walk, per-link FIFO accounting, Bernoulli
    loss draws, arrival delivery — from SHARQFEC protocol logic.
    Returns (monitor, sim).
    """
    from repro.net.monitor import TrafficMonitor
    from repro.net.packet import Packet
    from repro.topology.figure10 import build_figure10

    sim = Simulator(seed=seed)
    fig = build_figure10(sim)
    net = fig.network
    group = net.create_group("flood")

    def sink(packet) -> None:
        return None

    for node in fig.receivers:
        net.subscribe(group.group_id, node, sink)
    monitor = TrafficMonitor()
    net.add_observer(monitor)

    def send() -> None:
        net.multicast(fig.source, Packet("DATA", fig.source, group.group_id, 1024))

    for i in range(n_packets):
        sim.at(i * 0.002, send)
    sim.run()
    return monitor, sim


# ----------------------------------------------------------- observability


def run_flood_observed(n_packets: int = 512, seed: int = 3) -> tuple:
    """The :func:`run_flood` workload with the full observability layer on.

    Attaches a :class:`repro.obs.RunObserver` with trace capture (the most
    expensive listener set: every ``pkt.*`` category fires on every
    forwarded packet) on top of the usual :class:`TrafficMonitor`.
    Contrasted with plain :func:`run_flood` this measures exactly what
    turning observation on costs — and, because the tracer table is
    versioned, what turning it off refunds.
    """
    from repro.net.monitor import TrafficMonitor
    from repro.net.packet import Packet
    from repro.obs import RunObserver
    from repro.topology.figure10 import build_figure10

    sim = Simulator(seed=seed)
    fig = build_figure10(sim)
    net = fig.network
    group = net.create_group("flood")

    def sink(packet) -> None:
        return None

    for node in fig.receivers:
        net.subscribe(group.group_id, node, sink)
    monitor = TrafficMonitor()
    net.add_observer(monitor)
    observer = RunObserver(sim, capture_trace=True).attach()

    def send() -> None:
        net.multicast(fig.source, Packet("DATA", fig.source, group.group_id, 1024))

    for i in range(n_packets):
        sim.at(i * 0.002, send)
    sim.run()
    observer.detach()
    return monitor, sim


# ------------------------------------------------------------------- codec


def _codec_workload(codec_cls, k: int, width: int, groups: int, n_repairs: int) -> Dict[str, float]:
    codec = codec_cls(k)
    data = [bytes((i * 31 + j) % 256 for j in range(width)) for i in range(k)]
    encode_bytes = groups * k * width

    t0 = time.perf_counter()
    for _ in range(groups):
        codec.encode(data, n_repairs)
    enc_wall = time.perf_counter() - t0

    repairs = codec.encode(data, n_repairs)
    lossy = {i: data[i] for i in range(n_repairs, k)}
    for r in range(n_repairs):
        lossy[k + r] = repairs[r]
    decode_bytes = groups * k * width

    t0 = time.perf_counter()
    for _ in range(groups):
        codec.decode(lossy)
    dec_wall = time.perf_counter() - t0
    return {
        "encode_mb_per_sec": encode_bytes / MB / enc_wall,
        "decode_mb_per_sec": decode_bytes / MB / dec_wall,
    }
