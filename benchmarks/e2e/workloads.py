"""The six workloads: inputs from a seed, one user-facing call, one traced twin.

Every workload offers the same three steps.  ``setup()`` builds the model
once, untimed by the iterations, so memoised tables are warm.  ``run()`` is
the call a user makes (``run_traffic``, ``run_reference``, ``run_campaign``
+ report, a UDP transfer) and is what the end-to-end pass times.
``run_traced()`` assembles the same scenario through the public
constructors that call uses, so the simulator can be advanced phase by
phase inside spans; it must reproduce ``run()``'s outcome exactly.

Why these six, and which layer each one leaves out, is in README.md.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import repro.campaign as campaign
import repro.engine as engine
from repro.analysis.obsload import load_metrics
from repro.core.config import SharqfecConfig
from repro.core.protocol import SharqfecProtocol
from repro.experiments import common
from repro.experiments.national_scale import national_spec
from repro.net.monitor import TrafficMonitor
from repro.sim.scheduler import Simulator
from repro.srm.config import SrmConfig
from repro.srm.protocol import SrmProtocol
from repro.topology import figure10
from repro.transport.runtime import NodeRuntime
from repro.transport.udp import UdpRelay

from spans import SpanRecorder

HERE = os.path.dirname(os.path.abspath(__file__))
#: Scratch space for campaign exports; inside the checkout, ignored by git.
WORK_DIR = os.path.join(HERE, ".work")

REPAIR_KINDS = ("FEC", "REPAIR")
#: The simulated traffic statistics, for workloads that do not report them.
TRAFFIC_STATISTICS = ("repair_per_data", "control_per_data", "nacks_per_rx", "repair_tail_s",
                      "core.control_share")


@dataclass
class Outcome:
    """What one iteration produced, apart from how long it took."""

    events: int                    # simulated events; datagrams received on UDP
    receivers: int
    deliveries: int                # receivers x data packets, summed over cells
    operations: int                # receivers x FEC groups, summed over cells
    failed: int                    # operations not completed
    recv: Dict[str, int] = field(default_factory=dict)
    drops: int = 0
    nacks_sent: int = 0
    repair_tail_s: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)
    #: Came out of the simulator, so repeats exactly at a fixed seed.  ``False``
    #: on UDP, where wall-clock timers drive the protocol.
    deterministic: bool = True

    def fingerprint(self) -> Tuple:
        return (self.events, self.failed, self.drops, self.nacks_sent,
                self.repair_tail_s, tuple(sorted(self.recv.items())))


def _groups(n_packets: int) -> int:
    """FEC groups in a stream (SRM has none; it is counted in the same units)."""
    return SharqfecConfig(n_packets=n_packets).n_groups


def _failed_operations(completion: float, operations: int) -> int:
    return round((1.0 - completion) * operations)


def _traffic(monitor: TrafficMonitor, data_end: float) -> Tuple[Dict[str, int], float]:
    """Receptions by kind, and how long repair traffic outlived the stream."""
    recv: Dict[str, int] = {}
    last_bin = -1
    for (kind, _node), (bins, packets, _bytes) in monitor.receive_records():
        recv[kind] = recv.get(kind, 0) + packets
        if kind in REPAIR_KINDS or kind == "NACK":
            last_bin = max(last_bin, max(bins))
    tail = max(0.0, (last_bin + 1) * monitor.bin_width - data_end)
    return recv, tail


def _simulated_outcome(monitor, *, events, receivers, n_packets, completion,
                       nacks, data_end) -> Outcome:
    operations = receivers * _groups(n_packets)
    recv, tail = _traffic(monitor, data_end)
    return Outcome(
        events=events,
        receivers=receivers,
        deliveries=receivers * n_packets,
        operations=operations,
        failed=_failed_operations(completion, operations),
        recv=recv,
        drops=monitor.drops,
        nacks_sent=nacks,
        repair_tail_s=tail,
    )


class Workload:
    """Base: subclasses set ``name``/``iterations`` and the three steps."""

    name = ""
    #: Timed iterations in one run of the nominal length.
    iterations = 1
    #: Reports the four simulated traffic statistics.
    simulated = True
    #: Prefixes of per-layer metric names this workload never produces,
    #: because it does not enter that code.  They are reported as 0; any
    #: other metric that goes missing makes the run incorrect.
    bypasses: Tuple[str, ...] = ()

    def __init__(self, seed: int, toy: bool = False) -> None:
        self.seed = seed
        self.toy = toy

    def setup(self) -> None:
        raise NotImplementedError

    def run(self):
        """The user-facing call; whatever it returns goes to :meth:`outcome`."""
        raise NotImplementedError

    def run_traced(self, rec: SpanRecorder) -> Tuple[object, Dict[str, float]]:
        """Same scenario under ``rec``: (``run``'s return value, extra counters).

        The default suits workloads whose user-facing call cannot be taken
        apart; the wrappers installed on the layers still record its spans.
        """
        return self.run(), {}

    def outcome(self, raw) -> Outcome:
        """Reduce ``run``'s return value; called outside the timed region."""
        raise NotImplementedError


# ------------------------------------------------------------------ figure 14


class Fig14(Workload):
    """``run_traffic`` on the 113-node Figure 10 topology."""

    protocol = ""

    def __init__(self, seed: int, toy: bool = False) -> None:
        super().__init__(seed, toy)
        self.n_packets = 16 if toy else 1024
        self.drain = 2.0 if toy else common.DEFAULT_DRAIN

    def _build(self, sim: Simulator, monitor: Optional[TrafficMonitor] = None):
        """Topology, then monitor, then protocol: ``run_traffic``'s order."""
        topo = figure10.build_figure10(sim)
        if monitor is not None:
            topo.network.add_observer(monitor)
        if self.protocol == "SRM":
            config = SrmConfig(n_packets=self.n_packets)
            proto = SrmProtocol(topo.network, config, topo.source, topo.receivers)
            data_end = common.DATA_START + self.n_packets * config.inter_packet_interval
        else:
            config = common.variant_config(self.protocol, self.n_packets)
            proto = SharqfecProtocol(
                topo.network, config, topo.source, topo.receivers, topo.hierarchy
            )
            data_end = proto.data_end_time(common.DATA_START)
        return topo, proto, data_end

    def setup(self) -> None:
        self._build(Simulator(seed=self.seed))

    def run(self):
        return common.run_traffic(
            self.protocol, n_packets=self.n_packets, seed=self.seed, drain=self.drain
        )

    def outcome(self, result) -> Outcome:
        return _simulated_outcome(
            result.monitor, events=result.events, receivers=len(result.receivers),
            n_packets=self.n_packets, completion=result.completion,
            nacks=result.nacks_sent, data_end=result.data_end,
        )

    def run_traced(self, rec: SpanRecorder):
        """``run_traffic``'s body, with the simulator advanced phase by phase."""
        sim = Simulator(seed=self.seed)
        monitor = TrafficMonitor(bin_width=0.1)
        topo, proto, data_end = self._build(sim, monitor)
        proto.start(common.SESSION_START, common.DATA_START)
        run_end = data_end + self.drain
        for phase, until in (("phase.session", common.DATA_START),
                             ("phase.stream", data_end), ("phase.drain", run_end)):
            with rec.span(phase):
                sim.run(until=until)
        proto.stop()
        return common.TrafficRunResult(
            protocol=self.protocol, monitor=monitor, topology=topo,
            data_start=common.DATA_START, data_end=data_end, run_end=run_end,
            completion=proto.completion_fraction(), nacks_sent=proto.total_nacks_sent(),
            events=sim.events_fired, wall_seconds=0.0, seed=self.seed,
        ), {}


class Fig14Sharqfec(Fig14):
    name = "fig14_sharqfec"
    protocol = "SHARQFEC"
    # ISSUE 12 had three; two is what fits the run budget now that
    # national_packet drains for 45 s, and is enough to check that one seed
    # gives one outcome.
    iterations = 2
    bypasses = ("srm.", "engine.", "hybrid.", "obs.", "campaign.", "transport.")


class Fig14Srm(Fig14):
    name = "fig14_srm"
    protocol = "SRM"
    bypasses = ("core.", "engine.", "hybrid.", "obs.", "campaign.", "transport.")


# ------------------------------------------------------------------- national


class National(Workload):
    """``run_reference`` on a national hierarchy, 4 FEC groups."""

    shape: Dict[str, int] = {}
    toy_shape = dict(regions=2, cities_per_region=1, suburbs_per_city=2,
                     subscribers_per_suburb=10)
    fidelity = "packet"
    drain = common.DEFAULT_DRAIN

    def __init__(self, seed: int, toy: bool = False) -> None:
        super().__init__(seed, toy)
        self.spec = national_spec(
            n_packets=16 if toy else 64, seed=seed, fidelity=self.fidelity,
            drain=self.drain, **(self.toy_shape if toy else self.shape),
        )

    def setup(self) -> None:
        plan = engine.plan_for_spec(self.spec)
        for shard in plan.shards:
            engine.LogicalShardRunner(self.spec, plan, shard)

    def outcome(self, merged: engine.MergedRun) -> Outcome:
        return _simulated_outcome(
            merged.monitor, events=merged.events, receivers=merged.n_receivers,
            n_packets=self.spec.n_packets, completion=merged.completion,
            nacks=merged.nacks, data_end=self.spec.data_end,
        )

    def run(self) -> engine.MergedRun:
        return engine.run_reference(self.spec)

    def run_sharded(self, workers: int) -> engine.MergedRun:
        return engine.run_sharded(self.spec, workers=workers)

    def run_traced(self, rec: SpanRecorder):
        """``run_reference``'s own loop, with the windows grouped by phase."""
        spec = self.spec
        plan = engine.plan_for_spec(spec)
        runners = [engine.LogicalShardRunner(spec, plan, shard) for shard in plan.shards]
        ends = engine.window_ends(spec.run_end, plan.lookahead)
        phases = (("phase.session", spec.data_start), ("phase.stream", spec.data_end),
                  ("phase.drain", spec.run_end))
        pending: List[list] = [[] for _ in plan.shards]
        crossed = 0
        position = 0
        for phase, until in phases:
            with rec.span(phase):
                while position < len(ends) and ends[position] <= until:
                    routed: List[list] = [[] for _ in plan.shards]
                    for runner in runners:
                        runner.inject(pending[runner.shard.index])
                        runner.run_until(ends[position])
                        for message in runner.drain_outbox():
                            routed[message.dst_shard].append(message)
                            crossed += 1
                    pending = routed
                    position += 1
        merged = engine.merge_results(spec, plan, [runner.finish() for runner in runners])
        return merged, {"engine.windows": len(ends), "engine.cross_shard_msgs": crossed}


class NationalPacket(National):
    name = "national_packet"
    bypasses = ("srm.", "engine.w2_", "hybrid.", "obs.", "campaign.", "transport.")
    shape = dict(regions=2, cities_per_region=1, suburbs_per_city=5,
                 subscribers_per_suburb=50)
    # At the default 10 s drain four seeds of 1..80 (19, 51, 56, 66) leave a
    # receiver short of a group, its request timer several doublings into
    # its backoff; seed 19 still does at 35 s.  All eighty complete by 45 s.
    drain = 45.0


class NationalHybrid(National):
    name = "national_hybrid"
    fidelity = "hybrid"
    bypasses = ("srm.", "obs.", "campaign.", "transport.")
    shape = dict(regions=2, cities_per_region=3, suburbs_per_city=10,
                 subscribers_per_suburb=50)
    # At the default 10 s drain two seeds in five leave a handful of the
    # 3008 receivers one group short, and seed 13 still does at 30 s; 60 s
    # completes every seed tried for under 0.1% more events.
    drain = 60.0


# ------------------------------------------------------------------- campaign


class CampaignGrid(Workload):
    """2 protocols x 3 seeds with trace capture, then the statistical report."""

    name = "campaign_grid"
    simulated = False
    # ``run_campaign`` cannot be advanced phase by phase from outside.
    bypasses = TRAFFIC_STATISTICS + ("sim.phase_", "srm.", "engine.", "hybrid.", "transport.")

    def __init__(self, seed: int, toy: bool = False) -> None:
        super().__init__(seed, toy)
        self.packets = 16 if toy else 256
        self.capture_trace = True

    def _spec(self):
        return campaign.spec_from_dict({
            "name": "bench-grid",
            "protocols": ["SHARQFEC"] if self.toy else ["SHARQFEC", "SHARQFEC(ni)"],
            "seeds": [self.seed + i for i in range(1 if self.toy else 3)],
            "packets": self.packets,
            "capture_trace": self.capture_trace,
            "scenarios": [{"name": "baseline"}],
        })

    def setup(self) -> None:
        self._spec()  # validates eagerly
        os.makedirs(WORK_DIR, exist_ok=True)
        sim = Simulator(seed=self.seed)
        topo = figure10.build_figure10(sim)
        SharqfecProtocol(
            topo.network, common.variant_config("SHARQFEC", self.packets),
            topo.source, topo.receivers, topo.hierarchy,
        )

    def run(self) -> campaign.CampaignRunReport:
        out_dir = tempfile.mkdtemp(prefix="grid_", dir=WORK_DIR)
        try:
            report = campaign.run_campaign(self._spec(), out_dir, workers=1)
            campaign.write_report(out_dir, campaign.analyze_campaign(out_dir))
        except BaseException:
            shutil.rmtree(out_dir, ignore_errors=True)
            raise
        return report

    def outcome(self, report: campaign.CampaignRunReport) -> Outcome:
        """Reload every cell's export, then delete the campaign directory."""
        out_dir = report.out_dir
        try:
            return self._reduce(report, out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def _reduce(self, report: campaign.CampaignRunReport, out_dir: str) -> Outcome:
        receivers = operations = failed = drops = 0
        recv: Dict[str, int] = {}
        for cell in report.outcomes:
            export = load_metrics(os.path.join(out_dir, cell.metrics_path))
            receivers = len(export.run_summary["receivers"])
            per_cell = receivers * _groups(self.packets)
            operations += per_cell
            if cell.status == "failed":
                failed += per_cell
                continue
            failed += _failed_operations(cell.completion, per_cell)
            for kind, count in _traffic(export.monitor, 0.0)[0].items():
                recv[kind] = recv.get(kind, 0) + count
            drops += export.monitor.drops
        exported = sum(
            os.path.getsize(os.path.join(root, name))
            for root, _dirs, names in os.walk(os.path.join(out_dir, "runs"))
            for name in names
        )
        return Outcome(
            events=sum(cell.events for cell in report.outcomes),
            receivers=receivers,
            deliveries=len(report.outcomes) * receivers * self.packets,
            operations=operations,
            failed=failed,
            recv=recv,
            drops=drops,
            nacks_sent=sum(cell.nacks_sent for cell in report.outcomes),
            counters={"campaign.cells_failed": len(report.failed),
                      "obs.export_bytes": exported},
        )


# ------------------------------------------------------------------------ udp


class UdpLoopback(Workload):
    """Relay + 1 sender + 2 receivers on one asyncio loop, host loopback.

    Open loop: the sender's own CBR clock offers 1000 packets/s whatever
    the receivers do.  No loss is injected: the lossy relay does not
    repeat between runs, and recovery is covered by the simulator
    workloads.
    """

    name = "udp_loopback"
    simulated = False
    bypasses = TRAFFIC_STATISTICS + ("sim.", "net.", "srm.", "engine.", "hybrid.", "obs.",
                                     "campaign.")
    members = (0, 1, 2)
    session_start = 0.2
    data_start = 0.5
    timeout_s = 60.0

    def __init__(self, seed: int, toy: bool = False) -> None:
        super().__init__(seed, toy)
        self.config = SharqfecConfig(
            group_size=16, n_packets=64 if toy else 4096, data_rate_bps=8e6
        )

    async def _session(self, transfer: bool) -> Optional[Outcome]:
        relay = UdpRelay()
        address = await relay.start()
        nodes = [
            NodeRuntime(node, self.members, self.members[0], address,
                        config=self.config, seed=self.seed)
            for node in self.members
        ]
        try:
            for node in nodes:
                await node.start(self.session_start, self.data_start)
            if not transfer:
                return None
            await asyncio.gather(
                *(node.wait_complete(self.timeout_s, poll_interval=0.01) for node in nodes)
            )
            finished_at = nodes[0].clock.now
            stats = relay.stats()
        finally:
            for node in nodes:
                node.stop()
            relay.close()
        config = self.config
        receivers = [node for node in nodes if not node.is_sender]
        complete = sum(node.agent.groups_complete() for node in receivers)
        operations = len(receivers) * config.n_groups
        due = self.data_start + config.n_packets * config.inter_packet_interval
        return Outcome(
            events=sum(node.transport.received for node in nodes),
            receivers=len(receivers),
            deliveries=len(receivers) * config.n_packets,
            operations=operations,
            failed=operations - complete,
            deterministic=False,
            counters={
                "transport.relay_forwarded": stats["forwarded"],
                "transport.relay_malformed": stats["malformed"],
                "transport.finish_lag_s": finished_at - due,
            },
        )

    def setup(self) -> None:
        asyncio.run(self._session(transfer=False))

    def run(self) -> Outcome:
        return asyncio.run(self._session(transfer=True))

    def outcome(self, outcome: Outcome) -> Outcome:
        return outcome


WORKLOADS = {
    cls.name: cls
    for cls in (Fig14Sharqfec, Fig14Srm, CampaignGrid, NationalPacket,
                NationalHybrid, UdpLoopback)
}
