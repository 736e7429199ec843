"""SHARQFEC protocol configuration.

The paper states its timer and stream values as constants, so they are
module-level constants here; the SRM baseline imports the ones it shares
(§6.2 runs every protocol with the same stream and timer values).  The
dataclass holds only what a run varies: the stream shape, the three
ablation flags that generate the comparison protocols of §6.2, and the §7
extensions.

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

from dataclasses import dataclass

from repro.errors import ConfigError

# --- data stream (§6.2 simulation setup; shared with SRM) ---
PACKET_SIZE = 1000                 # bytes per data/FEC packet
DATA_RATE_BPS = 800e3              # default CBR source rate

# --- the erasure code's limits (repro.fec.ErasureCodec; a test pins them) ---
# Agents count identities, exact because the code is MDS, but only for
# identities the code has: repair identity i is the Cauchy row x = i < 256.
MAX_IDENTITY = 255                 # highest packet identity of any group
MAX_GROUP_SIZE = 128               # largest k (ErasureCodec.MAX_PACKETS)

# --- suppression timers (§4; SRM fixed-timer form; shared with SRM) ---
C1 = 2.0                           # request window start multiplier
C2 = 2.0                           # request window width multiplier
D1 = 1.0                           # reply window start multiplier
D2 = 1.0                           # reply window width multiplier
# Clamps on the adapted constants (the SRM paper bounds them).
C1_BOUNDS = (0.5, 8.0)
C2_BOUNDS = (1.0, 8.0)
D1_BOUNDS = (0.5, 8.0)
D2_BOUNDS = (1.0, 8.0)
# Cap on the request-timer backoff exponent (the paper does not bound i;
# a bound keeps pathological runs finite).
MAX_BACKOFF_EXPONENT = 8
# Fallback one-way distance estimate before session state converges.
DEFAULT_DISTANCE = 0.050

# --- session management (§5; shared with SRM) ---
SESSION_INTERVAL = (0.9, 1.1)
SESSION_FAST_INTERVAL = (0.05, 0.25)
SESSION_FAST_COUNT = 3
RTT_EWMA_KEEP = 0.75               # old-estimate weight when merging RTTs
SESSION_ENTRY_SIZE = 12            # bytes per session-message entry

# --- SHARQFEC only ---
# ZCR measures the true ZLC after this many RTTs to the most distant
# known receiver (§4: "two and a half times the RTT").
ZLC_MEASURE_RTT_MULTIPLE = 2.5
# Peers silent for this long drop out of our session echo lists (a
# departed member must not be advertised forever).
SESSION_PEER_TIMEOUT = 6.0

# ZCR election (§5.2).
ZCR_CHALLENGE_INTERVAL = (4.5, 5.5)
ZCR_WATCHDOG_FACTOR = 1.6          # non-ZCR watchdog = factor x interval
ZCR_TAKEOVER_MARGIN = 0.002        # seconds of RTT advantage required

# Explicit ZCR elections (failure detector + election rounds).  A per-zone
# failure detector derives ZCR liveness from session-message silence
# (session PDUs are loss-exempt, so silence means crash or partition, not
# loss) and a silent representative triggers an explicit election round
# instead of waiting for the challenge watchdog's free-for-all takeover
# bids.  A zone's ZCR speaks on the session channel about once per
# SESSION_INTERVAL; the liveness timeout must comfortably exceed its upper
# bound.
ZCR_LIVENESS_TIMEOUT = 3.0
# Candidate-collection window of one election round.  Long enough for
# announcements to cross the zone, short against the liveness timeout.
ZCR_ELECTION_WINDOW = 0.4
# Retry backoff when a computed winner dies mid-election: attempt ``i``
# waits about ``ZCR_ELECTION_RETRY_BASE * 2**i`` before re-announcing.
ZCR_ELECTION_RETRY_BASE = 0.3
# Attempts before the zone falls back to the bootstrap watchdog path.
ZCR_ELECTION_MAX_RETRIES = 4

# Repair behaviour (§4).
# NACK attempts at one zone before escalating to the next-larger zone.
ESCALATION_ATTEMPTS = 2
# Spacing between successive repairs from one repairer, as a fraction of
# the data inter-packet interval ("half that of the inter-packet
# interval", §6.2).
REPAIR_SPACING_FRACTION = 0.5
# Bounded give-up (§7 robustness): request-timer firings for one group
# with *zero* new packets arriving in between before the receiver stops
# retrying its current zone and escalates one level.  At the top zone it
# keeps retrying at the capped backoff.
GIVEUP_FIRES = 4

# Wire sizes for non-data PDUs (bytes).
NACK_SIZE = 64
SESSION_HEADER_SIZE = 40
ZCR_PDU_SIZE = 48


@dataclass
class SharqfecConfig:
    """What a SHARQFEC run varies; everything else is a module constant."""

    # --- data stream (§6.2 simulation setup) ---
    group_size: int = 16               # k: data packets per FEC group
    data_rate_bps: float = DATA_RATE_BPS
    n_packets: int = 1024              # packets per run

    # --- ablation flags (§6.2 protocol variants) ---
    scoping: bool = True               # False -> single global zone ("ns")
    injection: bool = True             # False -> no preemptive FEC ("ni")
    sender_only: bool = False          # True -> only the sender repairs ("so")

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

    def __post_init__(self) -> None:
        if not 1 <= self.group_size <= MAX_GROUP_SIZE:
            raise ConfigError(f"group_size must be in [1, {MAX_GROUP_SIZE}]")
        if self.data_rate_bps <= 0:
            raise ConfigError("data_rate_bps must be positive")
        if self.n_packets < 1:
            raise ConfigError("n_packets must be >= 1")
        if not 0.0 <= self.ewma_keep < 1.0:
            raise ConfigError("ewma_keep must be in [0, 1)")

    # ------------------------------------------------------------- derived

    @property
    def inter_packet_interval(self) -> float:
        """Seconds between successive CBR data packets."""
        return PACKET_SIZE * 8.0 / self.data_rate_bps

    @property
    def n_groups(self) -> int:
        """Number of FEC groups in the stream (last one may be short)."""
        return (self.n_packets + self.group_size - 1) // self.group_size

    @property
    def repair_spacing(self) -> float:
        """Interval between successive repairs from one repairer."""
        return self.inter_packet_interval * REPAIR_SPACING_FRACTION

    def group_k(self, group_id: int) -> int:
        """Data packets in a particular group (the tail group may be short)."""
        if not 0 <= group_id < self.n_groups:
            raise ConfigError(f"group {group_id} out of range")
        if group_id < self.n_groups - 1:
            return self.group_size
        remainder = self.n_packets - group_id * self.group_size
        return remainder if remainder else self.group_size

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
