"""Stateful per-link loss models.

The paper's evaluation (§6) draws i.i.d. Bernoulli loss per link.  Real
links lose packets in *bursts* — congestion epochs, fades, route flaps —
and reliability protocols behave qualitatively differently under correlated
loss (Ghaderi & Towsley).  :class:`GilbertElliott` is the classic two-state
burst model: a Markov chain alternating between a Good state (loss
probability ``loss_good``, usually 0) and a Bad state (``loss_bad``,
usually 1), with geometric sojourn times.

Determinism contract
--------------------

State transitions are **time-driven**: the chain advances once per
``slot_s`` of virtual time, lazily, from a dedicated named RNG stream.  The
state at virtual time *t* is therefore a pure function of (master seed,
stream name, *t*) — independent of how many packets crossed the link, in
what order, or whether they were ``loss_exempt``.  Two runs with the same
seed see byte-identical burst schedules even when one interleaves extra
session traffic; two protocol *variants* compared under the same seed are
stressed by the same outage windows.

Only the per-packet residual draw (used when ``0 < loss_bad < 1``) consumes
randomness per crossing, from a second stream, and exempt packets never
draw from it.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.errors import FaultError

#: Default chain granularity: 10 ms slots, i.e. one state decision per
#: paper-default packet time (1000 B at 800 kbit/s).
DEFAULT_SLOT_S = 0.01


class GilbertElliott:
    """Two-state Markov (Gilbert–Elliott) burst-loss process.

    Args:
        p_gb: per-slot probability of a Good→Bad transition.
        p_bg: per-slot probability of a Bad→Good transition (mean burst
            length is ``slot_s / p_bg`` seconds).
        loss_good: drop probability while in the Good state (0 = classic).
        loss_bad: drop probability while in the Bad state (1 = classic
            Gilbert model; every packet in a burst dies).
        slot_s: chain granularity in virtual seconds.
        state_rng: RNG driving state transitions (one draw per slot).
        packet_rng: RNG for residual per-packet draws; only consulted when
            the active state's loss probability is strictly between 0 and 1.
        start_bad: initial chain state (Good by default).
    """

    __slots__ = (
        "p_gb",
        "p_bg",
        "loss_good",
        "loss_bad",
        "slot_s",
        "bad",
        "_slot",
        "_state_rng",
        "_packet_rng",
        "transitions",
    )

    def __init__(
        self,
        p_gb: float,
        p_bg: float,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
        slot_s: float = DEFAULT_SLOT_S,
        state_rng: Optional[random.Random] = None,
        packet_rng: Optional[random.Random] = None,
        start_bad: bool = False,
    ) -> None:
        for name, value in (("p_gb", p_gb), ("p_bg", p_bg)):
            if not 0.0 < value <= 1.0:
                raise FaultError(f"{name} must be in (0, 1], got {value!r}")
        for name, value in (("loss_good", loss_good), ("loss_bad", loss_bad)):
            if not 0.0 <= value <= 1.0:
                raise FaultError(f"{name} must be in [0, 1], got {value!r}")
        if slot_s <= 0.0:
            raise FaultError(f"slot_s must be positive, got {slot_s!r}")
        self.p_gb = float(p_gb)
        self.p_bg = float(p_bg)
        self.loss_good = float(loss_good)
        self.loss_bad = float(loss_bad)
        self.slot_s = float(slot_s)
        self.bad = bool(start_bad)
        self._slot = 0
        self._state_rng = state_rng if state_rng is not None else random.Random(0)
        self._packet_rng = packet_rng if packet_rng is not None else random.Random(1)
        self.transitions = 0

    # ----------------------------------------------------------------- chain

    def advance_to(self, now: float) -> None:
        """Advance the chain to virtual time ``now`` (lazy, idempotent)."""
        target = int(now / self.slot_s)
        if target <= self._slot:
            return
        draw = self._state_rng.random
        bad = self.bad
        p_gb = self.p_gb
        p_bg = self.p_bg
        flips = 0
        for _ in range(target - self._slot):
            if bad:
                if draw() < p_bg:
                    bad = False
                    flips += 1
            else:
                if draw() < p_gb:
                    bad = True
                    flips += 1
        self.bad = bad
        self._slot = target
        self.transitions += flips

    def drops(self, now: float) -> bool:
        """Would a (non-exempt) packet crossing at ``now`` be lost?"""
        self.advance_to(now)
        p = self.loss_bad if self.bad else self.loss_good
        if p >= 1.0:
            return True
        if p <= 0.0:
            return False
        return self._packet_rng.random() < p

    # ------------------------------------------------------------- analytics

    @property
    def stationary_loss_rate(self) -> float:
        """Long-run average drop probability of the chain."""
        pi_bad = self.p_gb / (self.p_gb + self.p_bg)
        return pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "BAD" if self.bad else "good"
        return (
            f"<GilbertElliott p_gb={self.p_gb:g} p_bg={self.p_bg:g} "
            f"slot={self.slot_s:g}s state={state}>"
        )


def matched_gilbert_params(loss_rate: float, p_bg: float = 0.2) -> Tuple[float, float]:
    """(p_gb, p_bg) whose stationary loss equals a Bernoulli ``loss_rate``.

    Used to compare burst loss against the paper's i.i.d. rates at the same
    long-run average: bursts of mean length ``1/p_bg`` slots, spaced so that
    the fraction of Bad slots is exactly ``loss_rate`` (with the classic
    ``loss_bad=1, loss_good=0``).
    """
    if not 0.0 < loss_rate < 1.0:
        raise FaultError(f"loss_rate must be in (0, 1), got {loss_rate!r}")
    if not 0.0 < p_bg <= 1.0:
        raise FaultError(f"p_bg must be in (0, 1], got {p_bg!r}")
    p_gb = loss_rate * p_bg / (1.0 - loss_rate)
    if p_gb > 1.0:
        raise FaultError(
            f"loss_rate {loss_rate} unreachable with p_bg={p_bg}: shrink p_bg"
        )
    return p_gb, p_bg


def install_gilbert_elliott(
    network,
    a: int,
    b: int,
    *,
    p_gb: float,
    p_bg: float,
    loss_good: float = 0.0,
    loss_bad: float = 1.0,
    slot_s: float = DEFAULT_SLOT_S,
    both: bool = True,
    start_bad: bool = False,
) -> List[GilbertElliott]:
    """Attach Gilbert–Elliott models to the link a→b (and b→a).

    Each direction gets its own chain, seeded from the simulator's RNG
    registry under names derived from the link endpoints — so the burst
    schedule is reproducible from the master seed alone and identical
    across protocol variants run on the same topology.
    """
    models: List[GilbertElliott] = []
    pairs = [(a, b)] + ([(b, a)] if both else [])
    for src, dst in pairs:
        link = network.link(src, dst)
        model = GilbertElliott(
            p_gb,
            p_bg,
            loss_good,
            loss_bad,
            slot_s,
            state_rng=network.sim.rng.stream(f"fault.ge.state.{src}->{dst}"),
            packet_rng=network.sim.rng.stream(f"fault.ge.pkt.{src}->{dst}"),
            start_bad=start_bad,
        )
        link.loss_model = model
        models.append(model)
    return models


def clear_loss_model(network, a: int, b: int, both: bool = True) -> None:
    """Remove any stateful loss model, reverting to Bernoulli loss."""
    network.link(a, b).loss_model = None
    if both:
        network.link(b, a).loss_model = None
