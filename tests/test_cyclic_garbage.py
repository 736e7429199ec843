"""The invariant that licenses the drivers' collector pause.

A simulated run strands nothing for the cyclic collector: the world it
builds is full of cycles, but all of them stay reachable from the result,
and events, packets and trace records go by reference count.  So the count
``cyclic_garbage_after`` returns is 0 — and, in particular, the same for
two stream lengths, so garbage cannot grow with simulated events while the
collector is off.
"""

from __future__ import annotations

import pytest

import repro.engine.sharded as sharded
from repro.experiments.common import run_traffic
from repro.experiments.national_scale import national_spec
from repro.testing import cyclic_garbage_after

#: benchmarks/e2e's toy national shape.
TOY_NATIONAL = dict(regions=2, cities_per_region=1, suburbs_per_city=2,
                    subscribers_per_suburb=10)


def test_the_helper_counts_what_only_the_collector_could_free():
    def strand_one_cycle():
        cycle = []
        cycle.append(cycle)
        return "kept"

    assert cyclic_garbage_after(strand_one_cycle) == 1
    assert cyclic_garbage_after(lambda: [[] for _ in range(100)]) == 0


@pytest.mark.parametrize("protocol", ["SHARQFEC", "SRM"])
def test_run_traffic_leaves_no_cyclic_garbage(protocol):
    found = [
        cyclic_garbage_after(lambda: run_traffic(protocol, n_packets=n, seed=1))
        for n in (32, 128)
    ]
    assert found == [0, 0]


@pytest.mark.parametrize("fidelity", ["packet", "hybrid"])
def test_run_reference_leaves_no_cyclic_garbage(fidelity, monkeypatch):
    """``run_reference`` drops its worlds on return, and a dropped world is
    cyclic garbage by construction; keep them, as ``run_traffic``'s result
    does, and what is left is what running stranded.  Hybrid fidelity used
    to strand 93 objects per world (``build_seed_plan``'s recursive
    closure)."""
    worlds = []

    class KeptRunner(sharded.LogicalShardRunner):
        def __init__(self, *args):
            super().__init__(*args)
            worlds.append(self)

    monkeypatch.setattr(sharded, "LogicalShardRunner", KeptRunner)
    found = []
    for n_packets in (16, 32):
        spec = national_spec(n_packets=n_packets, seed=1, fidelity=fidelity,
                             drain=5.0, **TOY_NATIONAL)
        del worlds[:]
        found.append(cyclic_garbage_after(lambda: (sharded.run_reference(spec), worlds)))
        assert len(worlds) == 3
    assert found == [0, 0]
