"""A world holds no per-receiver state before its run uses it.

Agents build their RNG streams at the first draw and their ZCR/election
timers at the first arm; a finished shard drops its compiled forwarding
trees.  None of it may change what a run draws or fires; the golden run
(``test_transport_reference``) and the engine differential tests pin that,
so these tests pin only that the idle state is really absent.
"""

from __future__ import annotations

import repro.engine.sharded as sharded
from repro.engine.runner import LogicalShardRunner, plan_for_spec
from repro.experiments.national_scale import national_spec
from repro.net.packet import Packet
from repro.sim.timers import Timer

from tests.test_cyclic_garbage import TOY_NATIONAL


def toy_spec(fidelity):
    return national_spec(n_packets=16, seed=1, fidelity=fidelity, drain=5.0, **TOY_NATIONAL)


def kept_runners(monkeypatch):
    """Patch ``run_reference`` to keep its shard runners; returns the list."""
    runners = []

    class KeptRunner(LogicalShardRunner):
        def __init__(self, *args):
            super().__init__(*args)
            runners.append(self)

    monkeypatch.setattr(sharded, "LogicalShardRunner", KeptRunner)
    return runners


def timer_tables(runner):
    protocol = runner.world.protocol
    agents = list(protocol.receivers.values())
    if protocol.sender is not None:
        agents.append(protocol.sender)
    for agent in agents:
        zcr = agent.election
        election = zcr.coordinator
        yield from (zcr._challenge_timers, zcr._watchdog_timers, zcr._takeover_timers,
                    election._detectors, election._resolvers, election._confirms,
                    election._retries)


def test_a_built_hybrid_shard_holds_only_network_and_flow_streams():
    spec = toy_spec("hybrid")
    plan = plan_for_spec(spec)
    for shard in plan.shards:
        runner = LogicalShardRunner(spec, plan, shard)
        assert runner.sim.events_fired == 0
        # "net.loss" is the network's default stream; a shard replaces it
        # with its own "net.loss.s<index>".
        assert set(runner.sim.rng._streams) == {
            "net.loss", f"net.loss.s{shard.index}", "hybrid.flow",
        }
        assert all(len(table) == 0 for table in timer_tables(runner))


def test_no_election_timer_is_built_before_it_is_armed(monkeypatch):
    """At packet fidelity the session and election planes run in full;
    every timer a table holds at run end was armed at least once."""
    armed = set()
    for method in ("start", "restart"):
        original = getattr(Timer, method)

        def arming(self, delay, _original=original):
            armed.add(id(self))
            _original(self, delay)

        monkeypatch.setattr(Timer, method, arming)
    runners = kept_runners(monkeypatch)
    sharded.run_reference(toy_spec("packet"))
    built = [timer for runner in runners for table in timer_tables(runner)
             for timer in table.values()]
    assert built, "the packet-fidelity run armed no election timer at all"
    assert [t.name for t in built if id(t) not in armed] == []


def test_a_finished_shard_drops_its_trees_and_rebuilds_them_on_demand(monkeypatch):
    runners = kept_runners(monkeypatch)
    sharded.run_reference(toy_spec("hybrid"))
    assert len(runners) == 3
    for runner in runners:
        network = runner.world.network
        assert (network._sched_cache, network._index_cache, network._routing_cache,
                network._zone_cache) == ({}, {}, {}, {})
    runner = runners[1]
    network = runner.world.network
    src, dst = sorted(runner.world.protocol.receivers)[:2]
    group = network.create_group("after-finish")
    got = []
    network.subscribe(group.group_id, dst, got.append)
    network.multicast(src, Packet("DATA", src, group.group_id, 1000))
    runner.sim.run(until=runner.sim.now + 1.0)
    assert len(got) == 1
    assert (group.group_id, src) in network._sched_cache
    assert group.group_id in network._zone_cache
