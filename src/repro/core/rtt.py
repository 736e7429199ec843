"""RTT estimation state (§5, §5.1).

One :class:`RttTable` per session member holds:

* **direct** RTT estimates to peers measured via session-message timestamp
  echo (SRM-style: A stamps ``t1``; B records arrival; B's next message
  echoes ``(t1, elapsed)``; A computes ``rtt = now - t1 - elapsed``),
* the most recent message heard from each peer (what we must echo back),
* **overheard** ZCR tables: for each of our ancestral ZCRs, the RTTs it
  advertises to the peers of its *parent* zone — the "summarized view of
  more distant receivers" that makes indirect estimation possible.

New samples merge into old estimates through an EWMA, which is why the
paper's Figures 11–13 show estimates converging asymptotically after a
suboptimal initial ZCR election.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class RttTable:
    """Per-node RTT estimate storage."""

    def __init__(self, node_id: int, ewma_keep: float = 0.75) -> None:
        self.node_id = node_id
        self.ewma_keep = ewma_keep
        # peer -> smoothed RTT estimate (seconds)
        self._estimates: Dict[int, float] = {}
        # zone_id -> peer -> (peer's send timestamp, our receive time);
        # indexed by zone because every session send reads one zone's worth.
        self._heard: Dict[int, Dict[int, Tuple[float, float]]] = {}
        # zone_id -> ascending peer ids of _heard[zone_id].  Removals drop
        # the entry; additions only grow the zone's dict, so a kept order
        # is current exactly when the lengths agree.
        self._heard_order: Dict[int, List[int]] = {}
        # zcr -> peer -> RTT the ZCR advertises to that peer
        self._zcr_peer_rtts: Dict[int, Dict[int, float]] = {}

    # ------------------------------------------------------------- direct RTT

    def observe(self, peer: int, sample: float) -> float:
        """Merge a fresh RTT sample for ``peer``; returns the new estimate."""
        if sample < 0:
            sample = 0.0
        current = self._estimates.get(peer)
        if current is None:
            merged = sample
        else:
            merged = self.ewma_keep * current + (1.0 - self.ewma_keep) * sample
        self._estimates[peer] = merged
        return merged

    def get(self, peer: int) -> Optional[float]:
        """Direct RTT estimate to ``peer``, or None."""
        if peer == self.node_id:
            return 0.0
        return self._estimates.get(peer)

    def one_way(self, peer: int) -> Optional[float]:
        """Half the RTT estimate — the ``d_S,A`` of the timer formulas."""
        rtt = self.get(peer)
        return None if rtt is None else rtt / 2.0

    def max_estimate(self) -> Optional[float]:
        """Largest direct RTT estimate held, or None when there is none."""
        return max(self._estimates.values(), default=None)

    def forget(self, peer: int) -> None:
        """Drop all state about a departed peer."""
        self._estimates.pop(peer, None)
        for zone_heard in self._heard.values():
            zone_heard.pop(peer, None)
        self._heard_order.clear()
        self._zcr_peer_rtts.pop(peer, None)

    # ---------------------------------------------------------------- echoing

    def record_heard(self, zone_id: int, peer: int, peer_timestamp: float, now: float) -> None:
        """Remember a session message so the next one of ours can echo it."""
        zone_heard = self._heard.get(zone_id)
        if zone_heard is None:
            zone_heard = self._heard[zone_id] = {}
        zone_heard[peer] = (peer_timestamp, now)

    def heard_in_zone(self, zone_id: int) -> Dict[int, Tuple[float, float]]:
        """Peers heard in a zone: peer -> (their timestamp, our recv time).

        A live view — callers must not mutate it.
        """
        return self._heard.get(zone_id) or {}

    def echo_rows(self, zone_id: int) -> List[Tuple[int, Tuple[float, float], float]]:
        """What a session message to ``zone_id`` echoes, in ascending peer
        order: ``(peer, (their timestamp, our recv time), estimate)`` with
        -1.0 for a peer heard but not yet measured.

        Peers heard are never this node, so the estimate is read straight
        from the table.  The order is re-sorted only when the zone's peer
        set has changed since the last call.
        """
        heard = self._heard.get(zone_id)
        if not heard:
            return []
        order = self._heard_order.get(zone_id)
        if order is None or len(order) != len(heard):
            order = self._heard_order[zone_id] = sorted(heard)
        estimate = self._estimates.get
        return [(peer, heard[peer], estimate(peer, -1.0)) for peer in order]

    def prune_stale(self, now: float, timeout: float) -> List[int]:
        """Drop peers not heard within ``timeout``; returns their ids."""
        dropped = set()
        for zone_heard in self._heard.values():
            stale = [
                peer for peer, (_ts, recv_at) in zone_heard.items()
                if now - recv_at > timeout
            ]
            for peer in stale:
                del zone_heard[peer]
            dropped.update(stale)
        if dropped:
            self._heard_order.clear()
        return sorted(dropped)

    def close_echo(self, peer: int, peer_sent_at: float, elapsed: float, now: float) -> float:
        """Finish an RTT measurement from an echoed entry about ourselves.

        ``peer`` sent a session entry saying: "I heard your message stamped
        ``peer_sent_at`` and sat on it for ``elapsed`` seconds."
        """
        sample = now - peer_sent_at - elapsed
        return self.observe(peer, sample)

    # ----------------------------------------------------------- ZCR overhear

    def set_zcr_peer_rtt(self, zcr: int, peer: int, rtt: float) -> None:
        """Record a ZCR-advertised RTT between the ZCR and a parent-zone peer."""
        if rtt < 0:
            return
        self._zcr_peer_rtts.setdefault(zcr, {})[peer] = rtt

    def zcr_peer_rtt(self, zcr: int, peer: int) -> Optional[float]:
        """The RTT a ZCR advertises to one of its parent-zone peers."""
        table = self._zcr_peer_rtts.get(zcr)
        if table is None:
            return None
        return table.get(peer)

    def state_size(self) -> int:
        """Number of RTT entries held (the paper's Fig 8 'state' metric)."""
        return len(self._estimates) + sum(
            len(t) for t in self._zcr_peer_rtts.values()
        )
