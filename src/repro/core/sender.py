"""SHARQFEC sender: CBR source + proactive FEC + authoritative repairs (§4).

The sender divides its stream into groups of ``k`` packets sent at the
advertised constant bit rate.  After the last data packet of a group it
enters that group's repair phase immediately: with injection enabled it
queues the EWMA-predicted number of FEC packets for the largest scope zone,
transmits the first at once and spaces the rest at half the inter-packet
interval (§6.2).  NACKs that reach the sender's scope are answered without
suppression delay — the sender always holds the complete group.
"""

from __future__ import annotations

from typing import Optional

from repro.core.agent import SharqfecEndpoint
from repro.core.config import PACKET_SIZE
from repro.core.pdus import DataPdu
from repro.core.state import GroupState


class SharqfecSender(SharqfecEndpoint):
    """The session's data source (and top ZCR)."""

    is_source = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.packets_sent = 0
        self.finished_at: Optional[float] = None
        # Highest group whose data emission has finished (stream extent).
        self._extent = -1

    # ------------------------------------------------------------------- CBR

    def start_stream(self, t_start: float) -> None:
        """Schedule the whole CBR emission starting at ``t_start``."""
        ipt = self.config.inter_packet_interval
        for seq in range(self.config.n_packets):
            self.clock.at(t_start + seq * ipt, self._emit, seq)

    def _emit(self, seq: int) -> None:
        group_id = seq // self.config.group_size
        index = seq % self.config.group_size
        state = self.group_state(group_id)
        pdu = DataPdu(
            src=self.node_id,
            group=self.channels.data_group_id,
            size_bytes=PACKET_SIZE,
            seq=seq,
            group_id=group_id,
            index=index,
        )
        self.packets_sent += 1
        self.transport.multicast(self.node_id, pdu)
        if index == state.k - 1:
            self._enter_repair_phase(state)
            if seq == self.config.n_packets - 1:
                self.finished_at = self.clock.now

    def _on_group_created(self, state: GroupState) -> None:
        # The sender holds every original packet by construction.
        for index in range(state.k):
            state.record_index(index)
        state.repair_phase = False

    # ----------------------------------------------------------- repair phase

    def _enter_repair_phase(self, state: GroupState) -> None:
        """After the group's last data packet: queue proactive FEC (§4)."""
        state.repair_phase = True
        if state.group_id > self._extent:
            self._extent = state.group_id
        root_zone = self.zone_ids[-1]
        if self.config.injection:
            planned = self.predictor(root_zone).predict_packets()
            if planned > 0:
                state.outstanding[root_zone] = (
                    state.outstanding.get(root_zone, 0) + planned
                )
        if state.outstanding.get(root_zone, 0) > 0:
            # "immediately generating and transmitting the first of any
            # queued repairs in the largest scope zone" (§4).
            self._arm_reply_timer(root_zone, state, 0.0)
        self._schedule_zlc_sampling(state)

    def _stream_extent(self) -> int:
        # The authoritative advertisement: every group up to _extent has
        # finished its data emission.
        return self._extent

    # ------------------------------------------------------------- accounting

    def _zlc_sampling_zones(self):
        # The sender predicts for the largest scope zone: the redundancy
        # needed to reach the worst top-level ZCR (Figure 2's receiver Y).
        return [self.zone_ids[-1]]

    def _injection_zones(self):
        # Proactive sender FEC is queued at repair-phase entry, not via the
        # completion hook (the sender is never "newly complete").
        return []
