"""Session-level wiring for the SRM baseline."""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.churn import ReceiverChurn
from repro.errors import ConfigError
from repro.net.network import Network
from repro.srm.agent import SrmAgent
from repro.srm.config import SrmConfig


class SrmProtocol(ReceiverChurn):
    """One SRM session: a global data/repair group + a session group."""

    def __init__(
        self,
        network: Network,
        config: SrmConfig,
        source_id: int,
        receiver_ids: Iterable[int],
    ) -> None:
        self.network = network
        self.sim = network.sim
        self.config = config
        self.source_id = source_id
        self.receiver_ids: List[int] = sorted(set(receiver_ids) - {source_id})
        if not self.receiver_ids:
            raise ConfigError("a session needs at least one receiver")
        members = set(self.receiver_ids) | {source_id}
        self.data_group = network.create_group("srm.data", scope=members).group_id
        self.session_group = network.create_group("srm.session", scope=members).group_id
        self.source = SrmAgent(
            source_id, self.sim, network, self.data_group, self.session_group,
            config, source_id, is_source=True,
        )
        self.receivers: Dict[int, SrmAgent] = {
            rid: SrmAgent(
                rid, self.sim, network, self.data_group, self.session_group,
                config, source_id,
            )
            for rid in self.receiver_ids
        }

    # -------------------------------------------------------------- lifecycle

    def start(self, session_start: float = 1.0, data_start: float = 6.0) -> None:
        """The paper's run shape: sessions at t=1, CBR data at t=6 (§6.2)."""
        if data_start < session_start:
            raise ConfigError("data must not start before the session")
        self.sim.at(session_start, self._start_sessions)
        self.sim.at(data_start, self.source.start_stream, data_start)

    def _start_sessions(self) -> None:
        self.source.start_session()
        for receiver in self.receivers.values():
            if not receiver._stopped:
                # Deferred receivers (defer_receiver) sit out until joined.
                receiver.start_session()

    def stop(self) -> None:
        """Cancel every agent timer."""
        self.source.stop()
        for receiver in self.receivers.values():
            receiver.stop()

    # ------------------------------------------------------------- statistics

    def completion_fraction(self) -> float:
        """Fraction of (receiver, packet) pairs delivered."""
        total = len(self.receivers) * self.config.n_packets
        got = sum(
            self.config.n_packets - r.missing() for r in self.receivers.values()
        )
        return got / total if total else 1.0

    def all_complete(self) -> bool:
        """True when every receiver holds the full stream."""
        return all(r.all_received() for r in self.receivers.values())

    def incomplete_receivers(self) -> List[int]:
        """Receivers still missing packets."""
        return [rid for rid, r in self.receivers.items() if not r.all_received()]

    def total_nacks_sent(self) -> int:
        """Request transmissions summed over receivers."""
        return sum(r.nacks_sent for r in self.receivers.values())

    def total_repairs_sent(self) -> int:
        """Repair transmissions summed over all members."""
        return self.source.repairs_sent + sum(
            r.repairs_sent for r in self.receivers.values()
        )
