#!/usr/bin/env python3
"""The repository's one benchmark: six workloads, end to end and per layer.

Contract mode (what ``BENCHMARK.json``'s command runs)::

    python3 benchmarks/e2e/bench.py --workload fig14_srm --seed 3 --seconds 10 --trace 0

runs one workload in this process, prints every metric by name with its
unit, checks the outputs, and ends with one JSON line.  ``--trace 0`` is
the end-to-end pass; ``--trace 1`` adds an untraced iteration's twin under
spans plus the isolated kernels and reports the per-layer metrics.

Without ``--workload`` it runs all six, each pass in a fresh subprocess
(so peak RSS is per workload), and with ``--record`` appends the result to
``results/ledger.jsonl``.  See README.md for what each number means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import selectors
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "benchmarks", "perf"))  # suite.py's kernels
sys.path.insert(0, os.path.join(ROOT, "src"))

from calibrate import Region, Timing  # noqa: E402 - needs HERE on sys.path

#: ``--seconds`` this long gives each workload its nominal iteration count.
NOMINAL_SECONDS = 10
#: Fresh-process set-ups whose median is ``setup_s`` (this process is one).
SETUP_SAMPLES = 3
#: Timings each isolated kernel's median is taken over.
KERNEL_SAMPLES = 5
LEDGER = os.path.join(HERE, "results", "ledger.jsonl")
CONTROL_KINDS = ("SESSION",)  # plus every ZCR_* kind


def load_contract() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- set-up


def own_setup(name: str, seed: int, toy: bool):
    """Imports, inputs and one untimed model build, in this process.

    The ``repro`` imports happen inside the region on purpose: work a later
    change moves to import time has to show in ``setup_s``.
    """
    with Region() as region:
        import workloads

        workload = workloads.WORKLOADS[name](seed, toy)
        workload.setup()
    return workload, region.timing, peak_rss_mb()


def setup_in_fresh_process(name: str, seed: int, toy: bool) -> float:
    """``setup_s`` of one more cold process (it prints it and exits)."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(seed), "--setup-only"] + (["--toy"] if toy else [])
    done = subprocess.run(argv, capture_output=True, text=True, timeout=170, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------- measurement


def timed(fn):
    """``fn()`` inside a calibrated region: (timing, result)."""
    with Region() as region:
        result = fn()
    return region.timing, result


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile); all the value when there is one."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def ratios(outcome) -> Dict[str, float]:
    """The paper's traffic-shape ratios (Fig 17, Fig 8, Fig 15/19)."""
    recv = outcome.recv
    data = recv.get("DATA", 0)
    if not data:
        return {"repair_per_data": 0.0, "control_per_data": 0.0, "nacks_per_rx": 0.0}
    control = sum(n for kind, n in recv.items()
                  if kind in CONTROL_KINDS or kind.startswith("ZCR_"))
    return {
        "repair_per_data": (recv.get("FEC", 0) + recv.get("REPAIR", 0)) / data,
        "control_per_data": control / data,
        "nacks_per_rx": outcome.nacks_sent / outcome.receivers,
    }


class Checks:
    """Collects failed correctness checks; any one makes the run incorrect."""

    def __init__(self) -> None:
        self.failures: List[str] = []

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)
            print(f"CHECK FAILED: {message}", file=sys.stderr)


def check_iterations(checks: Checks, outcomes: list) -> None:
    """Every operation completed, and iterations at the one seed agree exactly."""
    first = outcomes[0]
    for i, outcome in enumerate(outcomes):
        checks.require(outcome.failed == 0,
                       f"iteration {i}: {outcome.failed} of {outcome.operations} "
                       f"operations did not complete")
        if outcome.deterministic:
            checks.require(outcome.fingerprint() == first.fingerprint(),
                           f"iteration {i} differs from iteration 0 at the same seed")


# ------------------------------------------------------------------ end to end


def end_to_end(workload, setup: Timing, setup_rss: float, n_iterations: int,
               toy: bool, checks: Checks):
    setups = [setup.ref_wall_s]
    for _ in range(1 if toy else SETUP_SAMPLES - 1):
        setups.append(setup_in_fresh_process(workload.name, workload.seed, toy))
    timings, outcomes = [], []
    for _ in range(n_iterations):
        timing, raw = timed(workload.run)
        timings.append(timing)
        outcomes.append(workload.outcome(raw))
        # The finished model is cyclic garbage; left alone it would be
        # collected on the next iteration's time.
        del raw
        gc.collect()
    check_iterations(checks, outcomes)
    metrics = {
        "wall_us_per_event": statistics.median(
            t.ref_wall_s / o.events * 1e6 for t, o in zip(timings, outcomes)),
        "setup_s": statistics.median(setups),
        "setup_rss_mb": setup_rss,
    }
    notes = {"iterations": n_iterations, "setup_samples": len(setups),
             "sim.events": outcomes[0].events, "peak_rss_mb": peak_rss_mb()}
    for name, values in (("wall_s", [t.ref_wall_s for t in timings]),
                         ("cpu_s", [t.ref_cpu_s for t in timings]),
                         ("raw_wall_s", [t.wall_s for t in timings]),
                         ("raw_cpu_s", [t.cpu_s for t in timings])):
        q1, q2, q3 = quartiles(values)
        notes[name] = f"median {q2!r} q1 {q1!r} q3 {q3!r} n {len(values)}"
    return metrics, notes, outcomes


# ------------------------------------------------------------------- per layer

def _wrap_targets():
    """(owner, attribute, span name) for every layer boundary traced.

    Methods are replaced on the class that defines them, functions wherever
    a ``repro`` module has them bound.
    """
    import repro.analysis.obsload as obsload
    import repro.campaign.report as campaign_report
    import repro.campaign.runner as campaign_runner
    import repro.engine.runner as engine_runner
    import repro.obs.export as obs_export
    import repro.topology.figure10 as figure10
    import repro.topology.national as national
    import repro.transport.wire as wire
    from repro.core.agent import SharqfecEndpoint
    from repro.core.election import ElectionCoordinator
    from repro.core.protocol import SharqfecProtocol
    from repro.core.receiver import SharqfecReceiver
    from repro.core.session import SessionManager
    from repro.core.zcr import ZcrElection
    from repro.net.monitor import TrafficMonitor
    from repro.net.network import Network
    from repro.sim.scheduler import Simulator
    from repro.srm.protocol import SrmProtocol
    from repro.transport.udp import UdpRelay, UdpTransport

    runner = engine_runner.LogicalShardRunner
    return [
        (Simulator, "run", "sim.run"),
        (Network, "multicast", "net.multicast"),
        (TrafficMonitor, "on_send", "net.monitor"),
        (TrafficMonitor, "on_receive", "net.monitor"),
        (TrafficMonitor, "on_drop", "net.monitor"),
        (TrafficMonitor, "record_bulk", "net.monitor"),
        (SharqfecProtocol, "__init__", "core.build"),
        (SessionManager, "handle_session", "core.session"),
        (ZcrElection, "handle_challenge", "core.zcr"),
        (ZcrElection, "handle_response", "core.zcr"),
        (ZcrElection, "handle_takeover", "core.zcr"),
        (ZcrElection, "handle_elect", "core.zcr"),
        (ElectionCoordinator, "handle_elect", "core.zcr"),
        (SharqfecEndpoint, "handle_data", "core.data"),
        (SharqfecEndpoint, "handle_fec", "core.data"),
        (SharqfecReceiver, "handle_data", "core.data"),
        (SharqfecReceiver, "handle_fec", "core.data"),
        (SharqfecEndpoint, "handle_nack", "core.nack"),
        (SrmProtocol, "__init__", "srm.build"),
        (figure10, "build_figure10", "topology.figure10_build"),
        (national, "build_national_network", "topology.national_build"),
        (engine_runner, "plan_for_spec", "engine.plan"),
        (runner, "__init__", "engine.build"),
        (runner, "inject", "engine.sync"),
        (runner, "run_until", "engine.sync"),
        (runner, "drain_outbox", "engine.sync"),
        (runner, "finish", "engine.merge"),
        (engine_runner, "merge_results", "engine.merge"),
        (campaign_runner, "run_campaign", "campaign.run"),
        (campaign_report, "analyze_campaign", "campaign.report"),
        (campaign_report, "write_report", "campaign.report"),
        (obsload, "load_metrics", "analysis.load_metrics"),
        (obs_export, "export_metrics", "obs.export"),
        (obs_export, "export_trace", "obs.export"),
        (UdpTransport, "multicast", "transport.send"),
        (UdpTransport, "datagram_received", "transport.recv"),
        (UdpRelay, "datagram_received", "transport.relay"),
        (wire, "encode", "transport.encode"),
        (wire, "decode", "transport.decode"),
        # Not the program's: the asyncio loop's sleep, so that the paced UDP
        # transfer's wall clock is accounted for rather than left in the root.
        (selectors.DefaultSelector, "select", "bench.idle"),
    ]


def install_wrappers(rec) -> None:
    for owner, attribute, name in _wrap_targets():
        if isinstance(owner, type):
            rec.wrap_method(owner, attribute, name)
        else:
            rec.wrap_function(getattr(owner, attribute), name)


#: Span names whose self time is reported as ``<name>_s``.
SPAN_LAYERS = (
    "net.multicast", "net.monitor", "core.build", "core.session", "core.zcr", "core.data",
    "core.nack", "srm.build", "topology.figure10_build", "topology.national_build",
    "engine.plan", "engine.build", "engine.sync", "engine.merge", "campaign.run",
    "campaign.report", "analysis.load_metrics", "obs.export", "transport.send",
    "transport.recv", "transport.relay", "transport.encode", "transport.decode", "bench.idle",
)
#: Span names whose call count is reported as ``<name>_calls``.
COUNTED_SPANS = ("net.multicast", "core.session", "core.zcr")


def per_layer(workload, toy: bool, trace_out: Optional[str], checks: Checks):
    """Per-layer metrics of one untraced and one traced iteration.

    Only what was measured is returned: a count or ratio the workload has
    no source for is left out, and :func:`run_one` decides whether the
    workload is allowed to miss it.
    """
    import kernels
    from spans import SpanRecorder

    plain_timing, raw = timed(workload.run)
    plain = workload.outcome(raw)
    check_iterations(checks, [plain])
    m: Dict[str, float] = {
        "wall_s": plain_timing.ref_wall_s,
        "cpu_s": plain_timing.ref_cpu_s,
        "raw_wall_s": plain_timing.wall_s,
        "raw_cpu_s": plain_timing.cpu_s,
        "peak_rss_mb": peak_rss_mb(),
        "deliveries_per_s": plain.deliveries / plain_timing.ref_wall_s,
        "failed_frac": plain.failed / plain.operations,
    }
    if plain.deterministic:
        m["sim.events"] = plain.events
        m["sim.events_per_s"] = plain.events / plain_timing.ref_cpu_s
        m["net.recv_total"] = sum(plain.recv.values())
        m["net.drops"] = plain.drops
        m["net.recv.ZCR"] = sum(n for k, n in plain.recv.items() if k.startswith("ZCR_"))
        for kind in ("DATA", "FEC", "REPAIR", "NACK", "SESSION"):
            m[f"net.recv.{kind}"] = plain.recv.get(kind, 0)
    if workload.simulated:
        m.update(ratios(plain), repair_tail_s=plain.repair_tail_s)
        control = m["net.recv.SESSION"] + m["net.recv.ZCR"]
        m["core.control_share"] = control / m["net.recv_total"]
    protocol_nacks = "srm.nacks_sent" if workload.name == "fig14_srm" else "core.nacks_sent"
    m[protocol_nacks] = plain.nacks_sent
    m.update(plain.counters)

    # Everything below that runs unwrapped code must come before the wrappers.
    m.update(kernels.run_all(1 if toy else KERNEL_SAMPLES, toy))
    if workload.name == "national_hybrid":
        started = time.perf_counter()
        sharded = workload.run_sharded(workers=2)
        w2_wall = time.perf_counter() - started
        checks.require(workload.outcome(sharded).fingerprint() == plain.fingerprint(),
                       "run_sharded(workers=2) output differs from run_reference")
        m["engine.w2_wall_s"] = w2_wall
        m["engine.w2_speedup"] = plain_timing.wall_s / w2_wall
    if workload.name == "campaign_grid":
        workload.capture_trace = False
        quiet_timing, quiet_raw = timed(workload.run)
        workload.outcome(quiet_raw)
        workload.capture_trace = True
        m["obs.capture_overhead_ratio"] = plain_timing.ref_cpu_s / quiet_timing.ref_cpu_s

    rec = SpanRecorder(f"{workload.name}-seed{workload.seed}")
    install_wrappers(rec)
    with Region() as region:
        with rec.span("workload"):
            raw, counters = workload.run_traced(rec)
    traced_timing = region.timing
    totals = rec.totals()
    if trace_out:
        rec.write(trace_out)
    traced = workload.outcome(raw)
    if traced.deterministic:
        checks.require(traced.fingerprint() == plain.fingerprint(),
                       "traced pass changed the simulated outcome")
    m.update(counters)

    # Span seconds are raw; bring them to reference speed with the traced
    # region's own overall factor so they compare across runs.
    scale = traced_timing.ref_cpu_s / traced_timing.cpu_s
    root_s = totals["workload"][1] * scale
    for phase in ("session", "stream", "drain"):
        if f"phase.{phase}" in totals:
            m[f"sim.phase_{phase}_s"] = totals[f"phase.{phase}"][1] * scale
    # Every wrapped boundary has an entry, with 0 calls if it was never
    # crossed; a boundary that no longer exists failed in install_wrappers.
    m["sim.run_self_s"] = totals["sim.run"][2] * scale
    for name in SPAN_LAYERS:
        m[f"{name}_s"] = totals[name][2] * scale
    for name in COUNTED_SPANS:
        m[f"{name}_calls"] = totals[name][0]
    unattributed = sum(self_s for name, (_calls, _total, self_s) in totals.items()
                       if name == "workload" or name.startswith("phase."))
    m["bench.trace_accounted_frac"] = 1.0 - unattributed * scale / root_s
    m["bench.trace_overhead_ratio"] = (
        (traced_timing.ref_cpu_s / traced.events) / (plain_timing.ref_cpu_s / plain.events)
    )
    if workload.name == "national_hybrid":
        m["hybrid.events_per_group"] = plain.events / (plain.operations / plain.receivers)
        m["hybrid.stream_share"] = m["sim.phase_stream_s"] / root_s
    if workload.name == "udp_loopback":
        m["transport.cpu_us_per_delivery"] = plain_timing.ref_cpu_s * 1e6 / plain.deliveries
    return m, plain


# -------------------------------------------------------------------- one run


def run_one(args) -> int:
    contract = load_contract()
    workload, setup, setup_rss = own_setup(args.workload, args.seed, args.toy)
    if args.setup_only:
        print(json.dumps({"setup_s": setup.ref_wall_s}))
        return 0
    checks = Checks()
    if args.trace:
        wanted = contract["per_layer"]
        values, outcome = per_layer(workload, args.toy, args.trace_out, checks)
        attempted, failed = outcome.operations, outcome.failed
        for spec in wanted:
            # A layer the workload declares it never enters reports 0, and
            # that 0 is its measurement; anything else must have been produced.
            if spec["name"] not in values and spec["name"].startswith(workload.bypasses):
                values[spec["name"]] = 0.0
    else:
        wanted = contract["end_to_end"]
        iterations = max(1, round(workload.iterations * args.seconds / NOMINAL_SECONDS))
        values, notes, outcomes = end_to_end(
            workload, setup, setup_rss, iterations, args.toy, checks)
        attempted = sum(o.operations for o in outcomes)
        failed = sum(o.failed for o in outcomes)
        for key, value in notes.items():
            print(f"# {key}: {value}")
    names = {spec["name"] for spec in wanted}
    checks.require(names <= set(values), f"metrics not measured: {sorted(names - set(values))}")
    checks.require(set(values) <= names,
                   f"metrics not named in BENCHMARK.json: {sorted(set(values) - names)}")
    metrics = {}
    for spec in wanted:
        if spec["name"] not in values:
            continue
        value = float(values[spec["name"]])
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']} {value!r} {spec['unit']}")
    print(json.dumps({"correct": not checks.failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if checks.failures else 0


# ------------------------------------------------------------------- all runs


def machine_stamp() -> Dict[str, object]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"cpu_count": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy_version}


def run_pass(name: str, args, trace: int) -> Tuple[int, Dict[str, object]]:
    argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(trace)] + (["--toy"] if args.toy else [])
    if trace and args.trace_out:
        os.makedirs(args.trace_out, exist_ok=True)
        argv += ["--trace-out", os.path.join(args.trace_out, f"{name}.spans.jsonl")]
    done = subprocess.run(argv, capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines:
        return done.returncode or 1, {}
    for line in lines[:-1]:
        print(f"  {line}")
    return done.returncode, json.loads(lines[-1])


def run_all(args) -> int:
    """Every workload: ``--runs`` end-to-end passes and one traced pass each."""
    contract = load_contract()
    status = 0
    entry = {"kind": "run", "seed": args.seed, "seconds": args.seconds,
             "machine": machine_stamp(), "workloads": {}}
    for spec in contract["workloads"]:
        name = spec["name"]
        samples: Dict[str, List[float]] = {}
        for i in range(args.runs):
            print(f"== {name} (end_to_end, seed {args.seed}, run {i + 1} of {args.runs})")
            code, result = run_pass(name, args, trace=0)
            status = status or code or int(not result.get("correct", False))
            for metric, reading in result.get("metrics", {}).items():
                samples.setdefault(metric, []).append(reading["value"])
        for metric, values in samples.items():
            q1, q2, q3 = quartiles(values)
            print(f"   {metric}: median {q2!r} q1 {q1!r} q3 {q3!r} n {len(values)} "
                  f"spread {(q3 - q1) / q2:.3f}")
        print(f"== {name} (per_layer, seed {args.seed})")
        code, result = run_pass(name, args, trace=1)
        status = status or code or int(not result.get("correct", False))
        entry["workloads"][name] = {
            "end_to_end": samples,
            "per_layer": {k: v["value"] for k, v in result.get("metrics", {}).items()},
        }
    if args.record and status == 0:
        from repro.obs.export import git_revision

        entry["rev"] = git_revision()
        with open(LEDGER, "a") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
        print(f"recorded to {LEDGER}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=1,
                        help="the only workload input; passed down, never read by src/")
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS,
                        help="measuring time; scales iteration counts, never cuts one short")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="span file (one workload) or directory (all)")
    parser.add_argument("--toy", action="store_true", help="smoke-test sizes")
    parser.add_argument("--runs", type=int, default=1,
                        help="all-workload mode: end-to-end passes per workload, "
                             "summarised as median, quartiles and count")
    parser.add_argument("--record", action="store_true",
                        help="all-workload mode: append the result to the ledger")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
