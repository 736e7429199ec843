"""SHARQFEC protocol configuration.

One frozen-ish dataclass holds every constant the paper specifies, plus the
three ablation flags that generate the comparison protocols of §6.2:

========================  =========================================
Variant                   Flags
========================  =========================================
SHARQFEC                  defaults
SHARQFEC(ns)              ``scoping=False``
SHARQFEC(ni)              ``injection=False``
SHARQFEC(ns,ni)           both of the above
SHARQFEC(ns,ni,so)        + ``sender_only=True``  (≈ ECSRM)
========================  =========================================
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

from repro.errors import ConfigError


@dataclass
class SharqfecConfig:
    """All protocol constants, defaulted to the paper's values."""

    # --- data stream (§6.2 simulation setup) ---
    group_size: int = 16               # k: data packets per FEC group
    packet_size: int = 1000            # bytes per data/FEC packet
    data_rate_bps: float = 800e3       # CBR source rate
    n_packets: int = 1024              # packets per run

    # --- ablation flags (§6.2 protocol variants) ---
    scoping: bool = True               # False -> single global zone ("ns")
    injection: bool = True             # False -> no preemptive FEC ("ni")
    sender_only: bool = False          # True -> only the sender repairs ("so")

    # --- suppression timers (§4; SRM fixed-timer form) ---
    c1: float = 2.0                    # request window start multiplier
    c2: float = 2.0                    # request window width multiplier
    d1: float = 1.0                    # reply window start multiplier
    d2: float = 1.0                    # reply window width multiplier
    # §7 future work: adapt C1/C2 per receiver from observed duplicate
    # NACKs, SRM-style.  Off by default (the paper's SHARQFEC uses fixed
    # timers).
    adaptive_timers: bool = False

    # --- late joins (§7 pointer to [9]) ---
    # When False (default), a receiver that joins mid-stream tracks only
    # groups from the first packet it hears.  When True it also recovers
    # every earlier group through scope-escalating requests — the
    # "significantly larger repairs that result from late-joins".
    late_join_recovery: bool = False

    # --- EWMA redundancy predictor (§4) ---
    ewma_keep: float = 0.75            # weight on the previous prediction
    # ZCR measures the true ZLC after this many RTTs to the most distant
    # known receiver (§4: "two and a half times the RTT").
    zlc_measure_rtt_multiple: float = 2.5

    # --- session management (§5) ---
    session_interval: Tuple[float, float] = (0.9, 1.1)
    session_fast_interval: Tuple[float, float] = (0.05, 0.25)
    session_fast_count: int = 3
    rtt_ewma_keep: float = 0.75        # old-estimate weight when merging RTTs
    # Peers silent for this long drop out of our session echo lists (a
    # departed member must not be advertised forever).
    session_peer_timeout: float = 6.0

    # --- ZCR election (§5.2) ---
    zcr_challenge_interval: Tuple[float, float] = (4.5, 5.5)
    zcr_watchdog_factor: float = 1.6   # non-ZCR watchdog = factor x interval
    zcr_takeover_margin: float = 0.002  # seconds of RTT advantage required

    # --- explicit ZCR elections (failure detector + election rounds) ---
    # A per-zone failure detector derives ZCR liveness from session-message
    # silence (session PDUs are loss-exempt, so silence means crash or
    # partition, not loss) and a silent representative triggers an explicit
    # election round instead of waiting for the challenge watchdog's
    # free-for-all takeover bids.
    # A zone's ZCR speaks on the session channel about once per
    # session_interval; this must comfortably exceed its upper bound.
    zcr_liveness_timeout: float = 3.0
    # Candidate-collection window of one election round.  Long enough for
    # announcements to cross the zone, short against the liveness timeout.
    zcr_election_window: float = 0.4
    # Retry backoff when a computed winner dies mid-election: attempt ``i``
    # waits about ``zcr_election_retry_base * 2**i`` before re-announcing.
    zcr_election_retry_base: float = 0.3
    # Attempts before the zone falls back to the bootstrap watchdog path.
    zcr_election_max_retries: int = 4

    # --- repair behaviour (§4) ---
    # NACK attempts at one zone before escalating to the next-larger zone.
    escalation_attempts: int = 2
    # Spacing between successive repairs from one repairer, as a fraction of
    # the data inter-packet interval ("half that of the inter-packet
    # interval", §6.2).
    repair_spacing_fraction: float = 0.5
    # Fallback one-way distance estimate before session state converges.
    default_distance: float = 0.050
    # Cap on the request-timer backoff exponent (the paper does not bound i;
    # a bound keeps pathological runs finite).
    max_backoff_exponent: int = 8
    # Bounded give-up (§7 robustness): request-timer firings for one group
    # with *zero* new packets arriving in between before the receiver stops
    # retrying its current zone and escalates one level.  At the top zone
    # it keeps retrying at the capped backoff.
    giveup_fires: int = 4

    # --- wire sizes for non-data PDUs (bytes) ---
    nack_size: int = 64
    session_entry_size: int = 12
    session_header_size: int = 40
    zcr_pdu_size: int = 48

    def __post_init__(self) -> None:
        if self.group_size < 1:
            raise ConfigError("group_size must be >= 1")
        if self.packet_size <= 0:
            raise ConfigError("packet_size must be positive")
        if self.data_rate_bps <= 0:
            raise ConfigError("data_rate_bps must be positive")
        if self.n_packets < 1:
            raise ConfigError("n_packets must be >= 1")
        if not 0.0 <= self.ewma_keep < 1.0:
            raise ConfigError("ewma_keep must be in [0, 1)")
        if not 0.0 <= self.rtt_ewma_keep < 1.0:
            raise ConfigError("rtt_ewma_keep must be in [0, 1)")
        for name in ("c1", "c2", "d1", "d2"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if self.escalation_attempts < 1:
            raise ConfigError("escalation_attempts must be >= 1")
        if self.giveup_fires < 1:
            raise ConfigError("giveup_fires must be >= 1")
        for name in ("session_interval", "session_fast_interval", "zcr_challenge_interval"):
            lo, hi = getattr(self, name)
            if not 0 < lo <= hi:
                raise ConfigError(f"{name} must satisfy 0 < lo <= hi")
        for name in ("zcr_liveness_timeout", "zcr_election_window", "zcr_election_retry_base"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.zcr_liveness_timeout <= self.session_interval[1]:
            raise ConfigError(
                "zcr_liveness_timeout must exceed the session interval upper "
                "bound (a live ZCR is only guaranteed to speak that often)"
            )
        if self.zcr_election_max_retries < 1:
            raise ConfigError("zcr_election_max_retries must be >= 1")

    # ------------------------------------------------------------- derived

    @property
    def inter_packet_interval(self) -> float:
        """Seconds between successive CBR data packets."""
        return self.packet_size * 8.0 / self.data_rate_bps

    @property
    def n_groups(self) -> int:
        """Number of FEC groups in the stream (last one may be short)."""
        return (self.n_packets + self.group_size - 1) // self.group_size

    @property
    def repair_spacing(self) -> float:
        """Interval between successive repairs from one repairer."""
        return self.inter_packet_interval * self.repair_spacing_fraction

    def group_k(self, group_id: int) -> int:
        """Data packets in a particular group (the tail group may be short)."""
        if not 0 <= group_id < self.n_groups:
            raise ConfigError(f"group {group_id} out of range")
        if group_id < self.n_groups - 1:
            return self.group_size
        remainder = self.n_packets - group_id * self.group_size
        return remainder if remainder else self.group_size

    # ------------------------------------------------------------- variants

    def variant(
        self,
        scoping: bool = True,
        injection: bool = True,
        sender_only: bool = False,
    ) -> "SharqfecConfig":
        """Copy with the given ablation flags (paper's ns/ni/so notation)."""
        return replace(self, scoping=scoping, injection=injection, sender_only=sender_only)

    def ecsrm(self) -> "SharqfecConfig":
        """The SHARQFEC(ns,ni,so) variant the paper equates with ECSRM [4]."""
        return self.variant(scoping=False, injection=False, sender_only=True)

    def variant_name(self) -> str:
        """Paper-style name, e.g. ``SHARQFEC(ns,ni)``."""
        flags = []
        if not self.scoping:
            flags.append("ns")
        if not self.injection:
            flags.append("ni")
        if self.sender_only:
            flags.append("so")
        return f"SHARQFEC({','.join(flags)})" if flags else "SHARQFEC"
