"""Differential equivalence suite: hybrid fidelity vs. the packet engine.

The hybrid engine (docs/HYBRID.md) promises two different strengths of
equivalence, each pinned here:

* **deterministic across engines**: a sharded hybrid run equals the
  in-process hybrid reference run record for record;
* **statistical** against packet fidelity: completion is exact (1.0 on
  recoverable scenarios), while NACK/drop totals agree in distribution —
  the loss draws come from a different RNG stream, so per-seed counts
  differ but seed-aggregated totals must stay within the documented
  tolerance (a factor of two, far wider than the observed ~15% skew).
"""

from __future__ import annotations

import pytest

from repro.core.config import SharqfecConfig
from repro.engine import run_reference, run_sharded
from repro.experiments.national_scale import national_spec
from repro.hybrid import HybridSharqfecProtocol
from repro.scenario import RunSpec
from repro.sim.scheduler import Simulator
from repro.testing import (
    assert_eventual_delivery,
    assert_no_duplicate_delivery,
)
from repro.testing.invariants import RepairContainment
from repro.topology.figure10 import build_figure10


def fig10_spec(seed: int = 1, fidelity: str = "packet", **kw) -> RunSpec:
    return RunSpec(
        topology="figure10",
        n_packets=32,
        seed=seed,
        capture_trace=True,
        fidelity=fidelity,
        **kw,
    )


def small_national(seed: int, fidelity: str, n_packets: int = 16) -> RunSpec:
    return national_spec(
        regions=2,
        cities_per_region=2,
        suburbs_per_city=2,
        subscribers_per_suburb=10,
        n_packets=n_packets,
        seed=seed,
        capture_trace=True,
        fidelity=fidelity,
    )


# --------------------------------------------------------- completion parity


def test_fig10_completion_parity():
    packet = run_reference(fig10_spec(fidelity="packet"))
    hybrid = run_reference(fig10_spec(fidelity="hybrid"))
    assert packet.completion == 1.0
    assert hybrid.completion == 1.0
    # The whole point of the hybrid engine: far fewer simulated events.
    assert hybrid.events < packet.events / 2


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_small_national_completion_parity(seed):
    packet = run_reference(small_national(seed, "packet"))
    hybrid = run_reference(small_national(seed, "hybrid"))
    assert packet.completion == 1.0
    assert hybrid.completion == 1.0


def test_statistical_tolerance_across_seeds():
    """Seed-aggregated NACK and drop totals agree within a factor of two.

    Per-seed counts are *expected* to differ (different RNG streams decide
    which packets die), so the tolerance is on aggregates — the observed
    skew is ~15% on NACKs and ~2% on drops; 2x is the documented bound.
    """
    seeds = [1, 2, 3, 4]
    p_nacks = p_drops = h_nacks = h_drops = 0
    for seed in seeds:
        p = run_reference(small_national(seed, "packet"))
        h = run_reference(small_national(seed, "hybrid"))
        p_nacks += p.nacks
        h_nacks += h.nacks
        p_drops += p.drops
        h_drops += h.drops
    assert p_nacks > 0 and h_nacks > 0
    assert 0.5 <= h_nacks / p_nacks <= 2.0
    assert 0.5 <= h_drops / p_drops <= 2.0


# ------------------------------------------------------ deterministic engines


def test_sharded_hybrid_equals_reference():
    spec = small_national(1, "hybrid")
    ref = run_reference(spec)
    sharded = run_sharded(spec, workers=2)
    assert sharded.trace == ref.trace
    assert sharded.nacks == ref.nacks
    assert sharded.events == ref.events
    assert sharded.completion == ref.completion
    assert sharded.drops == ref.drops


# -------------------------------------------------------- faults + invariants


def test_fault_plan_wakes_session_and_recovers():
    """A mid-stream link bounce must wake the session plane and still
    deliver everything; the woken run pays for real session traffic, so its
    event count rises well above an undisturbed hybrid run."""
    from repro.faults.plan import FaultPlan

    quiet = run_reference(fig10_spec(fidelity="hybrid"))
    plan = FaultPlan("bounce").link_down(7.0, 0, 1).link_up(9.0, 0, 1)
    woken = run_reference(fig10_spec(fidelity="hybrid", fault_plan=plan))
    packet = run_reference(fig10_spec(fidelity="packet", fault_plan=plan))
    assert woken.completion == 1.0
    assert packet.completion == 1.0
    assert woken.events > quiet.events


def test_invariants_on_direct_hybrid_protocol():
    """Eventual delivery, no duplicate data, and repair containment hold
    when driving :class:`HybridSharqfecProtocol` directly (no engine)."""
    sim = Simulator(seed=5)
    topo = build_figure10(sim)
    cfg = SharqfecConfig(n_packets=32)
    proto = HybridSharqfecProtocol(
        topo.network, cfg, topo.source, topo.receivers, topo.hierarchy
    )
    with RepairContainment.for_protocol(proto) as containment:
        proto.start(session_start=1.0, data_start=6.0)
        sim.run(until=40.0)
    assert_eventual_delivery(proto)
    assert_no_duplicate_delivery(proto)
    containment.assert_contained()
