"""SRM configuration.

The stream, timer and session values are SHARQFEC's (:mod:`repro.core.config`):
§6.2 runs both protocols with the same stream, and the SRM timer constants are
the ones SHARQFEC's suppression timers take over.  Only the wire sizes differ.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import DATA_RATE_BPS, PACKET_SIZE
from repro.errors import ConfigError

NACK_SIZE = 32
SESSION_HEADER_SIZE = 32


@dataclass
class SrmConfig:
    """What an SRM run varies (defaults per Floyd et al. and §6.2)."""

    n_packets: int = 1024
    # Adapt the request/repair timer multipliers at runtime.
    adaptive: bool = True

    def __post_init__(self) -> None:
        if self.n_packets < 1:
            raise ConfigError("n_packets must be >= 1")

    @property
    def inter_packet_interval(self) -> float:
        """Seconds between successive CBR data packets."""
        return PACKET_SIZE * 8.0 / DATA_RATE_BPS
