"""Directed link model.

Each physical duplex link is represented as two :class:`Link` objects, one
per direction, so loss rates and utilization can be asymmetric (the paper's
Fig 10 topology is symmetric, but the model does not require it).

A link models three effects:

* propagation delay (``latency_s``),
* serialization delay (``size * 8 / bandwidth_bps``) with FIFO queueing via a
  ``busy_until`` watermark,
* independent Bernoulli loss per packet (skipped for ``loss_exempt``
  packets, matching §6.2 of the paper where session traffic and NACKs are
  lossless).

Two fault-injection hooks extend the base model (see :mod:`repro.faults`):

* ``up`` — administrative link state.  A down link loses *every* packet,
  including ``loss_exempt`` ones: the exemption models the paper's idealized
  lossless control channels, not immunity to physical faults.
* ``loss_model`` — an optional stateful loss process (e.g. Gilbert–Elliott
  burst loss) that replaces the memoryless Bernoulli draw.  Its state is
  time-driven and advanced on *every* crossing — exempt or not — so the loss
  schedule a run experiences is a function of the clock alone, not of how
  much control traffic happens to be interleaved.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import TopologyError


class Link:
    """One direction of a point-to-point link."""

    __slots__ = (
        "src",
        "dst",
        "bandwidth_bps",
        "latency_s",
        "loss_rate",
        "queue_limit",
        "up",
        "loss_model",
        "busy_until",
        "packets_sent",
        "packets_dropped",
        "queue_drops",
        "bytes_sent",
        "_ser_cache",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        bandwidth_bps: float,
        latency_s: float,
        loss_rate: float = 0.0,
        queue_limit: Optional[int] = None,
    ) -> None:
        if bandwidth_bps <= 0:
            raise TopologyError(f"link {src}->{dst}: bandwidth must be positive")
        if latency_s < 0:
            raise TopologyError(f"link {src}->{dst}: latency must be non-negative")
        if not 0.0 <= loss_rate < 1.0:
            raise TopologyError(f"link {src}->{dst}: loss rate {loss_rate} outside [0,1)")
        if queue_limit is not None and queue_limit < 1:
            raise TopologyError(f"link {src}->{dst}: queue limit must be >= 1")
        self.src = src
        self.dst = dst
        self.bandwidth_bps = float(bandwidth_bps)
        self.latency_s = float(latency_s)
        self.loss_rate = float(loss_rate)
        # Drop-tail buffer depth in packets (None = unbounded FIFO).  The
        # paper's losses "due to congestion" can be modelled causally by
        # bounding this instead of (or on top of) the Bernoulli rates.
        self.queue_limit = queue_limit
        self.up = True
        # Optional stateful loss process (duck-typed: ``advance_to(now)`` +
        # ``drops(now)``); None means plain Bernoulli via ``loss_rate``.
        self.loss_model = None
        self.busy_until = 0.0
        self.packets_sent = 0
        self.packets_dropped = 0
        self.queue_drops = 0
        self.bytes_sent = 0
        # Serialization delay memo keyed by packet size: protocols use a
        # handful of fixed PDU sizes, and the forwarding fast path pays
        # this per hop.  Invalidated by set_bandwidth().
        self._ser_cache: dict = {}

    def serialization_delay(self, size_bytes: int) -> float:
        """Time to clock ``size_bytes`` onto the wire (memoized per size)."""
        delay = self._ser_cache.get(size_bytes)
        if delay is None:
            delay = (size_bytes * 8.0) / self.bandwidth_bps
            self._ser_cache[size_bytes] = delay
        return delay

    def set_bandwidth(self, bandwidth_bps: float) -> None:
        """Change the link rate (drops the serialization-delay memo)."""
        if bandwidth_bps <= 0:
            raise TopologyError(f"link {self.src}->{self.dst}: bandwidth must be positive")
        self.bandwidth_bps = float(bandwidth_bps)
        self._ser_cache.clear()

    def transmit(self, now: float, size_bytes: int) -> Optional[float]:
        """Account for one transmission and return the arrival time at dst.

        The link serializes packets FIFO: transmission begins at
        ``max(now, busy_until)``; ``busy_until`` advances by the
        serialization delay.  Propagation delay is added on top.

        Returns None when a configured drop-tail queue overflows (the
        backlog already holds ``queue_limit`` packets' worth of
        serialization time); the caller must treat that as a loss.
        """
        tx_time = self._ser_cache.get(size_bytes)
        if tx_time is None:
            tx_time = (size_bytes * 8.0) / self.bandwidth_bps
            self._ser_cache[size_bytes] = tx_time
        if self.queue_limit is not None and now < self.busy_until:
            backlog = (self.busy_until - now) / max(tx_time, 1e-12)
            if backlog >= self.queue_limit:
                self.queue_drops += 1
                self.packets_dropped += 1
                return None
        start = now if now > self.busy_until else self.busy_until
        tx_done = start + tx_time
        self.busy_until = tx_done
        self.packets_sent += 1
        self.bytes_sent += size_bytes
        return tx_done + self.latency_s

    def record_drop(self) -> None:
        """Count a packet lost on this link (after the loss draw)."""
        self.packets_dropped += 1

    def fail(self) -> None:
        """Take the link down: every subsequent packet is lost."""
        self.up = False

    def restore(self) -> None:
        """Bring a failed link back up."""
        self.up = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mbps = self.bandwidth_bps / 1e6
        state = "" if self.up else " DOWN"
        return (
            f"<Link {self.src}->{self.dst} {mbps:g}Mbit "
            f"{self.latency_s * 1e3:g}ms loss={self.loss_rate:.3f}{state}>"
        )
