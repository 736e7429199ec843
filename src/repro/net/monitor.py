"""Traffic monitoring.

The paper's §6.2 measures "the sum of data and repair traffic visible at
each session member over 0.1 second intervals".  :class:`TrafficMonitor`
bins packet arrivals online per (kind, node) so an entire run aggregates to
a few small dicts instead of a packet-level log.

Binning goes through :mod:`repro.obs.binning` — the shared, integer-safe
definition of "which bin is time t in" — so an arrival at exactly
``t = k * bin_width`` lands in bin ``k`` despite binary floating point
(``int(0.3 / 0.1)`` is 2, not 3; the naive divide misplaced boundary
arrivals one bin early).

Series length contract (pinned by ``tests/test_net_monitor.py``):

* no data, no ``t_end`` → ``[]``;
* ``t_end`` given → at least ``n_bins(t_end, bin_width)`` entries — so
  ``t_end=0.0`` yields ``[]``, and an end time of exactly ``k*bin_width``
  yields exactly ``k`` entries;
* data past ``t_end`` (or no ``t_end``) extends the series through the
  last nonzero bin.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.obs.binning import BOUNDARY_RTOL, bin_index, n_bins


class TrafficMonitor:
    """Online per-interval packet counter.

    Attributes:
        bin_width: width of an aggregation interval in seconds (the paper
            uses 0.1 s).
        drops: total packets lost anywhere (all kinds, all nodes) — the
            backward-compatible aggregate over the per-(kind, node) drop
            bins.
    """

    def __init__(self, bin_width: float = 0.1) -> None:
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        self.bin_width = float(bin_width)
        # (kind, node) -> [ {bin_index: packet_count}, total_packets,
        # total_bytes ] — one record per key so the per-arrival hot path
        # hashes the key once instead of updating three parallel dicts.
        self._stats: Dict[Tuple[str, int], list] = {}
        # (kind, node) -> {bin_index: packets sent by that node}
        self._send_bins: Dict[Tuple[str, int], Dict[int, int]] = {}
        # (kind, node) -> same record shape as _stats, for drops: the node
        # is where the packet *would* have arrived, so loss is attributable
        # to a subtree / zone instead of one opaque global count.
        self._drop_stats: Dict[Tuple[str, int], list] = {}
        self.sends: Dict[str, int] = {}
        self.drops: int = 0
        # The bin the last per-packet event fell in and a window of times
        # [lo, hi) known to share it (empty until the first event), so
        # bin_index runs once per interval instead of once per packet.
        self._window_lo = 0.0
        self._window_hi = 0.0
        self._window_index = 0

    # ----------------------------------------------------------- observer API

    def _enter_bin(self, time: float) -> int:
        """``bin_index(time)``, remembered with a window that shares it.

        The window is sound, not tight: ``lo = k * width`` divides back to
        within a few ulps of ``k``, which bin_index snaps to ``k``; ``hi``
        stops twice the snap tolerance short of the next boundary — a
        tolerance relative to the boundary's index, so it widens with
        time — and everything below it floors to ``k``.  Times in the gap
        just come back here.
        """
        width = self.bin_width
        index = self._window_index = bin_index(time, width)
        upper = index + 1
        self._window_lo = index * width
        self._window_hi = (upper - 2.0 * BOUNDARY_RTOL * max(1.0, abs(upper))) * width
        return index

    def on_send(self, time: float, node: int, kind: str, size_bytes: int) -> None:
        """Record a packet's first transmission by its originator."""
        self.sends[kind] = self.sends.get(kind, 0) + 1
        key = (kind, node)
        if self._window_lo <= time < self._window_hi:
            index = self._window_index
        else:
            index = self._enter_bin(time)
        bins = self._send_bins.setdefault(key, {})
        bins[index] = bins.get(index, 0) + 1

    def on_receive(self, time: float, node: int, kind: str, size_bytes: int) -> None:
        """Record a packet arrival at a group subscriber — "traffic visible
        at each session member".  The network reports subscriber arrivals
        only; routers merely forwarding never reach here."""
        key = (kind, node)
        record = self._stats.get(key)
        if record is None:
            record = self._stats[key] = [{}, 0, 0]
        bins = record[0]
        if self._window_lo <= time < self._window_hi:
            index = self._window_index
        else:
            index = self._enter_bin(time)
        bins[index] = bins.get(index, 0) + 1
        record[1] += 1
        record[2] += size_bytes

    def on_drop(self, time: float, node: int, kind: str, size_bytes: int) -> None:
        """Record a packet lost on its way to ``node``."""
        self.drops += 1
        key = (kind, node)
        record = self._drop_stats.get(key)
        if record is None:
            record = self._drop_stats[key] = [{}, 0, 0]
        bins = record[0]
        if self._window_lo <= time < self._window_hi:
            index = self._window_index
        else:
            index = self._enter_bin(time)
        bins[index] = bins.get(index, 0) + 1
        record[1] += 1
        record[2] += size_bytes

    def record_bulk(
        self,
        direction: str,
        kind: str,
        node: int,
        t_base: float,
        dt: float,
        mask: int,
        size_bytes: int,
    ) -> None:
        """Record a batch of same-kind packets in one call.

        The hybrid flow engine (:mod:`repro.hybrid`) models a whole FEC
        group's delivery analytically and reports the outcome here instead
        of firing one observer event per packet.  ``mask`` is an integer
        bitmask: bit ``i`` set means one packet of ``size_bytes`` at time
        ``t_base + i * dt``.  Counts land in exactly the bins the
        equivalent per-packet :meth:`on_send` / :meth:`on_receive` /
        :meth:`on_drop` calls would have used.  Subscriber gating is the
        caller's responsibility — bulk receive records are only emitted
        for group subscribers, mirroring the per-packet path.
        """
        if mask == 0:
            return
        width = self.bin_width
        key = (kind, node)
        count = 0
        if direction == "send":
            bins = self._send_bins.setdefault(key, {})
        else:
            if direction == "recv":
                table = self._stats
            elif direction == "drop":
                table = self._drop_stats
            else:
                raise ValueError(f"unknown traffic direction {direction!r}")
            record = table.get(key)
            if record is None:
                record = table[key] = [{}, 0, 0]
            bins = record[0]
        m = mask
        while m:
            bit = m & -m
            i = bit.bit_length() - 1
            index = bin_index(t_base + i * dt, width)
            bins[index] = bins.get(index, 0) + 1
            count += 1
            m ^= bit
        if direction == "send":
            self.sends[kind] = self.sends.get(kind, 0) + count
            return
        record[1] += count
        record[2] += count * size_bytes
        if direction == "drop":
            self.drops += count

    # -------------------------------------------------------------- accessors

    def total(self, kinds: Iterable[str], node: Optional[int] = None) -> int:
        """Total packets of the given kinds (at one node, or at all nodes)."""
        kinds = set(kinds)
        total = 0
        for (kind, n), record in self._stats.items():
            if kind in kinds and (node is None or n == node):
                total += record[1]
        return total

    def total_packets(self) -> int:
        """Total counted arrivals of every kind at every node."""
        return sum(record[1] for record in self._stats.values())

    def total_bytes(self, kinds: Iterable[str], node: Optional[int] = None) -> int:
        """Total bytes of the given kinds (at one node, or at all nodes)."""
        kinds = set(kinds)
        total = 0
        for (kind, n), record in self._stats.items():
            if kind in kinds and (node is None or n == node):
                total += record[2]
        return total

    # ----------------------------------------------------------------- series

    def _merged_series(
        self,
        binned: Iterable[Tuple[Tuple[str, int], Dict[int, int]]],
        kinds: Iterable[str],
        nodes: Iterable[int],
        t_end: Optional[float],
    ) -> List[int]:
        """Shared merge+pad kernel behind every per-interval series.

        One pass over ``binned`` sums the records of every node in
        ``nodes`` (a node listed twice counts twice).
        """
        kinds = set(kinds)
        times: Dict[int, int] = {}
        for node in nodes:
            times[node] = times.get(node, 0) + 1
        merged: Dict[int, int] = {}
        for (kind, n), bins in binned:
            weight = times.get(n)
            if weight is None or kind not in kinds:
                continue
            for index, count in bins.items():
                merged[index] = merged.get(index, 0) + count * weight
        length = n_bins(t_end, self.bin_width) if t_end is not None else 0
        if merged:
            length = max(length, max(merged) + 1)
        return [merged.get(i, 0) for i in range(length)]

    def _receive_bins(self) -> Iterator[Tuple[Tuple[str, int], Dict[int, int]]]:
        return ((key, record[0]) for key, record in self._stats.items())

    def series(
        self,
        kinds: Iterable[str],
        node: int,
        t_end: Optional[float] = None,
    ) -> List[int]:
        """Packets-per-interval time series for one node.

        The series starts at t=0 and is padded with zeros through ``t_end``
        (or through the last nonzero bin if ``t_end`` is None).
        """
        return self._merged_series(self._receive_bins(), kinds, (node,), t_end)

    def mean_series(
        self,
        kinds: Iterable[str],
        nodes: Sequence[int],
        t_end: Optional[float] = None,
    ) -> List[float]:
        """Per-interval series averaged over ``nodes``.

        This is the quantity plotted in the paper's Figures 14–19: the mean
        over receivers of packets seen per 0.1 s interval.
        """
        if not nodes:
            return []
        n = float(len(nodes))
        totals = self._merged_series(self._receive_bins(), kinds, nodes, t_end)
        return [total / n for total in totals]

    def send_series(
        self,
        kinds: Iterable[str],
        node: int,
        t_end: Optional[float] = None,
    ) -> List[int]:
        """Packets-per-interval *sent by* one node.

        The paper's Figures 20/21 plot "traffic seen by the source", which
        for a sender-only protocol is dominated by what the source itself
        transmits; combine with :meth:`series` for the full picture.
        """
        return self._merged_series(self._send_bins.items(), kinds, (node,), t_end)

    def node_traffic_series(
        self,
        kinds: Iterable[str],
        node: int,
        t_end: Optional[float] = None,
    ) -> List[int]:
        """Per-interval packets sent by plus received at one node."""
        received = self.series(kinds, node, t_end)
        sent = self.send_series(kinds, node, t_end)
        length = max(len(received), len(sent))
        return [
            (received[i] if i < len(received) else 0)
            + (sent[i] if i < len(sent) else 0)
            for i in range(length)
        ]

    # ------------------------------------------------------- export / reload

    def receive_records(self) -> Iterator[Tuple[Tuple[str, int], Tuple[Dict[int, int], int, int]]]:
        """Iterate ``((kind, node), (bins, packets, bytes))`` receive data."""
        for key, record in self._stats.items():
            yield key, (dict(record[0]), record[1], record[2])

    def send_records(self) -> Iterator[Tuple[Tuple[str, int], Dict[int, int]]]:
        """Iterate ``((kind, node), bins)`` send data."""
        for key, bins in self._send_bins.items():
            yield key, dict(bins)

    def drop_records(self) -> Iterator[Tuple[Tuple[str, int], Tuple[Dict[int, int], int, int]]]:
        """Iterate ``((kind, node), (bins, packets, bytes))`` drop data."""
        for key, record in self._drop_stats.items():
            yield key, (dict(record[0]), record[1], record[2])

    def load_record(
        self,
        direction: str,
        kind: str,
        node: int,
        bins: Dict[int, int],
        packets: Optional[int] = None,
        nbytes: int = 0,
    ) -> None:
        """Merge one exported record back in (the JSONL loader's entry point).

        ``direction`` is ``"recv"``, ``"send"`` or ``"drop"``; counts are
        exact integers, so a monitor rebuilt from exported records
        reproduces every series of the original bit-for-bit.
        """
        bins = {int(i): int(c) for i, c in bins.items()}
        count = int(packets) if packets is not None else sum(bins.values())
        key = (kind, node)
        if direction == "send":
            target = self._send_bins.setdefault(key, {})
            for index, c in bins.items():
                target[index] = target.get(index, 0) + c
            self.sends[kind] = self.sends.get(kind, 0) + count
            return
        if direction == "recv":
            table = self._stats
        elif direction == "drop":
            table = self._drop_stats
            self.drops += count
        else:
            raise ValueError(f"unknown traffic direction {direction!r}")
        record = table.get(key)
        if record is None:
            record = table[key] = [{}, 0, 0]
        target = record[0]
        for index, c in bins.items():
            target[index] = target.get(index, 0) + c
        record[1] += count
        record[2] += int(nbytes)
