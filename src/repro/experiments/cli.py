"""Command-line interface: regenerate any paper figure/table.

Usage::

    sharqfec list
    sharqfec fig14 --packets 256 --seed 3
    sharqfec all --packets 128
    sharqfec campaign run examples/fig14_campaign.toml
    sharqfec campaign report campaigns/fig14
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments.registry import EXPERIMENTS, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sharqfec",
        description="Reproduce the SHARQFEC (SIGCOMM '98) evaluation figures.",
    )
    parser.add_argument(
        "experiment",
        help="figure id (fig1, fig8, fig11..fig21), 'national' (zone-sharded "
        "scale run), 'all', 'list', or 'campaign' (multi-seed sweeps: "
        "'sharqfec campaign run|report')",
    )
    parser.add_argument(
        "--fidelity",
        choices=("packet", "hybrid"),
        default=None,
        help="engine fidelity for the 'national' experiment: 'packet' "
        "(default) simulates every data packet hop-by-hop; 'hybrid' keeps "
        "packet fidelity for control traffic but delivers bulk data "
        "analytically (see docs/HYBRID.md)",
    )
    national = parser.add_argument_group(
        "national topology shape (only with the 'national' experiment)"
    )
    national.add_argument("--regions", type=int, default=None)
    national.add_argument("--cities", type=int, default=None, help="cities per region")
    national.add_argument("--suburbs", type=int, default=None, help="suburbs per city")
    national.add_argument(
        "--subscribers", type=int, default=None, help="subscribers per suburb"
    )
    parser.add_argument(
        "--packets",
        type=int,
        default=None,
        help="CBR packets per traffic run (default: 1024, the paper's value; "
        "set lower for quick runs)",
    )
    parser.add_argument("--seed", type=int, default=1, help="master RNG seed")
    parser.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help="also write each traffic figure's series as <DIR>/<fig>.csv",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="DIR",
        default=None,
        help="export per-run metrics JSONL (traffic bins, counters, "
        "histograms) as <DIR>/<run>.metrics.jsonl",
    )
    parser.add_argument(
        "--trace-out",
        metavar="DIR",
        default=None,
        help="export per-run structured event traces as "
        "<DIR>/<run>.trace.jsonl (captures every pkt.*/protocol/fault "
        "trace category)",
    )
    parser.add_argument(
        "--progress",
        metavar="SECONDS",
        type=float,
        default=None,
        help="print a progress/throughput line to stderr every SECONDS of "
        "simulated time",
    )
    return parser


def _observability_options(args) -> Optional["ObservabilityOptions"]:
    from repro.experiments.common import ObservabilityOptions

    options = ObservabilityOptions(
        metrics_dir=args.metrics_out,
        trace_dir=args.trace_out,
        progress_interval=args.progress,
    )
    return options if options.active else None


def _run_national(args) -> int:
    from repro.experiments.national_scale import DEFAULT_SHAPE, national_spec, run_national

    shape = dict(DEFAULT_SHAPE)
    for key, value in (
        ("regions", args.regions),
        ("cities_per_region", args.cities),
        ("suburbs_per_city", args.suburbs),
        ("subscribers_per_suburb", args.subscribers),
    ):
        if value is not None:
            shape[key] = value
    spec = national_spec(
        n_packets=args.packets if args.packets is not None else 32,
        seed=args.seed,
        capture_trace=args.trace_out is not None,
        fidelity=args.fidelity or "packet",
        **shape,
    )
    print(run_national(spec, metrics_dir=args.metrics_out, trace_dir=args.trace_out))
    return 0


def _rejects(args, dests, reason: str) -> bool:
    """Report the first option in ``dests`` that was given, if any: the
    experiment would ignore it, and a flag that does nothing is an error."""
    for dest in dests:
        if getattr(args, dest) not in (None, False):
            print(f"--{dest.replace('_', '-')} {reason}", file=sys.stderr)
            return True
    return False


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "campaign":
        # Multi-seed sweep campaigns have their own option surface; hand
        # the rest of the command line to repro.campaign.cli untouched.
        from repro.campaign.cli import main as campaign_main

        return campaign_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        for figure_id, experiment in EXPERIMENTS.items():
            print(f"{figure_id:7s} {experiment.description}")
        print("national zone-sharded run of the Figure 7 national topology")
        print("campaign declarative multi-seed sweep campaigns (run/report)")
        return 0
    if args.experiment == "national":
        if _rejects(
            args,
            ("progress", "csv"),
            "does not apply to the 'national' experiment",
        ):
            return 2
        return _run_national(args)
    if _rejects(
        args,
        ("fidelity", "regions", "cities", "suburbs", "subscribers"),
        "only applies to the 'national' experiment",
    ):
        return 2
    from repro.experiments.common import observe_runs

    targets = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    with observe_runs(_observability_options(args)):
        for figure_id in targets:
            print(run_experiment(figure_id, n_packets=args.packets, seed=args.seed))
            print()
            if args.csv is not None:
                _maybe_write_csv(figure_id, args)
    return 0


def _maybe_write_csv(figure_id: str, args) -> None:
    """Write a traffic figure's series to <dir>/<fig>.csv (no-op for the
    analytic and session experiments, which have no time series)."""
    import os

    from repro.experiments import traffic_sim

    if figure_id not in traffic_sim.FIGURES:
        return
    figure = traffic_sim.figure(figure_id, n_packets=args.packets, seed=args.seed)
    os.makedirs(args.csv, exist_ok=True)
    path = os.path.join(args.csv, f"{figure_id}.csv")
    with open(path, "w") as handle:
        handle.write(figure.to_csv())
    print(f"wrote {path}")


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    sys.exit(main())
