"""Session-management experiments: Figures 11, 12 and 13 (§6.1).

The paper's test: on the Figure 10 topology (losses disabled for session
traffic), let ZCR election and scoped RTT determination converge, then have
a chosen receiver send "fake NACKs" at regular times to the largest scope.
Every other receiver estimates its RTT to the sender from the NACK's
partial-RTT chain; the figures plot the ratio of estimated to actual RTT.

Figures 11/12/13 use senders from the three hierarchy levels (receivers 3,
25 and 36 in the paper's numbering) — here ``role`` picks a tree head, a
child, or a grandchild.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List, Optional

from repro.core.config import NACK_SIZE, SharqfecConfig
from repro.core.pdus import NackPdu
from repro.core.protocol import SharqfecProtocol
from repro.errors import ConfigError
from repro.sim.scheduler import Simulator
from repro.topology.figure10 import build_figure10

ROLES = ("head", "child", "grandchild")


@dataclass
class RttAccuracy:
    """Estimation accuracy for one fake-NACK transmission."""

    nack_index: int
    time: float
    ratios: Dict[int, float]  # observer -> estimated/actual
    unresolved: List[int]     # observers with no estimate at all

    def fraction_within(self, tolerance: float) -> float:
        """Fraction of observers whose estimate is within ±tolerance."""
        if not self.ratios:
            return 0.0
        good = sum(1 for r in self.ratios.values() if abs(r - 1.0) <= tolerance)
        return good / len(self.ratios)

    def median_ratio(self) -> float:
        """Median estimated/actual ratio."""
        return median(self.ratios.values()) if self.ratios else 0.0


@dataclass
class RttExperimentResult:
    """All transmissions of one sender's fake-NACK schedule."""

    sender: int
    role: str
    rounds: List[RttAccuracy] = field(default_factory=list)

    def final_round(self) -> RttAccuracy:
        return self.rounds[-1]

    def improves_over_time(self) -> bool:
        """Did the median accuracy move toward 1.0 from first to last round?

        Allows a 1% slack: once estimates have converged, successive rounds
        jitter within measurement noise (the paper's asymptotic behaviour).
        """
        if len(self.rounds) < 2:
            return True
        first = abs(self.rounds[0].median_ratio() - 1.0)
        last = abs(self.rounds[-1].median_ratio() - 1.0)
        return last <= first + 0.01


def pick_sender(topo, role: str) -> int:
    """Choose the fake-NACK sender for a hierarchy level."""
    if role == "head":
        return topo.heads[2]
    if role == "child":
        return topo.children[topo.heads[3]][1]
    if role == "grandchild":
        child = topo.children[topo.heads[5]][0]
        return topo.grandchildren[child][2]
    raise ConfigError(f"unknown role {role!r}; expected one of {ROLES}")


def run_rtt_experiment(
    role: str = "grandchild",
    n_nacks: int = 5,
    interval: float = 3.0,
    first_nack_at: float = 12.0,
    seed: int = 1,
) -> RttExperimentResult:
    """Run the Figure 11–13 session experiment.

    Args:
        role: hierarchy level of the fake-NACK sender.
        n_nacks: transmissions ("to prove that estimates were stable" and
            improve over time, §6.1).
        interval: seconds between transmissions.
        first_nack_at: virtual time of the first NACK (after elections have
            had a few challenge rounds).
        seed: master RNG seed.
    """
    sim = Simulator(seed=seed)
    # §6.1: "link loss rates shown do not apply for session traffic".
    topo = build_figure10(sim, lossless=True)
    config = SharqfecConfig(n_packets=16)  # stream is never started
    proto = SharqfecProtocol(
        topo.network, config, topo.source, topo.receivers, topo.hierarchy
    )
    sim.at(1.0, proto._start_sessions)
    sender = pick_sender(topo, role)
    result = RttExperimentResult(sender=sender, role=role)

    # A dedicated side channel carries the fake NACKs so the estimation
    # measurement has no protocol side effects.
    members = set(topo.receivers) | {topo.source}
    fake_group = topo.network.create_group("fake-nack", scope=members).group_id

    observers = [rid for rid in topo.receivers if rid != sender]

    def observe(round_index: int, pdu: NackPdu) -> None:
        ratios: Dict[int, float] = {}
        unresolved: List[int] = []
        for rid in observers:
            agent = proto.receivers[rid]
            estimate = agent.session.estimate_rtt_to(pdu.src, pdu.rtt_chain)
            actual = topo.network.true_rtt(rid, pdu.src)
            if estimate is None or actual <= 0:
                unresolved.append(rid)
            else:
                ratios[rid] = estimate / actual
        result.rounds.append(
            RttAccuracy(round_index, sim.now, ratios, unresolved)
        )

    def send_fake_nack(round_index: int) -> None:
        agent = proto.receivers[sender]
        pdu = NackPdu(
            src=sender,
            group=fake_group,
            size_bytes=NACK_SIZE,
            group_id=0,
            llc=0,
            highest_seen=0,
            n_needed=0,
            zone_id=proto.hierarchy.root.zone_id,
            rtt_chain=agent.session.build_rtt_chain(),
        )
        # Evaluate at each observer on arrival; a shared handler with the
        # round index captured keeps this deterministic and side-effect
        # free.  (Arrival time differences across observers are irrelevant
        # to the ratio; evaluate once at send time + one measurement per
        # observer, as the paper's receivers do on reception.)
        observe(round_index, pdu)

    for i in range(n_nacks):
        sim.at(first_nack_at + i * interval, send_fake_nack, i)
    sim.run(until=first_nack_at + n_nacks * interval + 1.0)
    proto.stop()
    return result
