"""The ``national`` CLI experiment: sharded runs of the Figure 7 topology.

This is the scale demonstrator: a (scaled-down but still
10k-receiver-capable) national distribution hierarchy executed by the
windowed engine (:mod:`repro.engine`), one logical shard per region, in
one process.  Unlike the figure experiments — fixed paper shapes — this
one takes the topology shape on the command line and reports the run
(see ``docs/SCALING.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.engine import MergedRun, run_reference
from repro.faults.plan import FaultPlan
from repro.scenario import RunSpec, export_run

#: Default shape: 4 regions x 5 cities x 10 suburbs x 50 subscribers
#: = 10,024 receivers (>= the 10k target) on 10,025 nodes.
DEFAULT_SHAPE: Dict[str, int] = {
    "regions": 4,
    "cities_per_region": 5,
    "suburbs_per_city": 10,
    "subscribers_per_suburb": 50,
}


def national_spec(
    *,
    regions: int = DEFAULT_SHAPE["regions"],
    cities_per_region: int = DEFAULT_SHAPE["cities_per_region"],
    suburbs_per_city: int = DEFAULT_SHAPE["suburbs_per_city"],
    subscribers_per_suburb: int = DEFAULT_SHAPE["subscribers_per_suburb"],
    n_packets: int = 32,
    seed: int = 1,
    drain: float = 10.0,
    fault_plan: Optional[FaultPlan] = None,
    capture_trace: bool = False,
    fidelity: str = "packet",
) -> RunSpec:
    """A run spec for a national topology of the given shape."""
    total_nodes = 1 + regions * (1 + cities_per_region * (1 + suburbs_per_city * subscribers_per_suburb))
    return RunSpec(
        topology="national",
        n_packets=n_packets,
        seed=seed,
        drain=drain,
        fidelity=fidelity,
        topology_params=(
            ("regions", regions),
            ("cities_per_region", cities_per_region),
            ("suburbs_per_city", suburbs_per_city),
            ("subscribers_per_suburb", subscribers_per_suburb),
            ("max_nodes", max(total_nodes, 1)),
        ),
        fault_plan=fault_plan,
        capture_trace=capture_trace,
    )


@dataclass
class NationalRunReport:
    """Human-readable summary of one sharded national run."""

    merged: MergedRun
    metrics_path: Optional[str] = None
    trace_path: Optional[str] = None

    def __str__(self) -> str:
        merged = self.merged
        plan = merged.plan
        lookahead = (
            f"{plan.lookahead * 1000:.0f} ms" if math.isfinite(plan.lookahead) else "none"
        )
        lines = [
            "National-scale sharded run",
            "  engine:      reference (in-process)",
            f"  shards:      {plan.n_shards} ({', '.join(s.key for s in plan.shards)})",
            f"  lookahead:   {lookahead}",
            f"  fidelity:    {merged.spec.fidelity}",
            f"  receivers:   {merged.n_receivers}",
            f"  packets:     {merged.spec.n_packets}  seed={merged.spec.seed}",
            f"  completion:  {merged.completion:.4f}",
            f"  nacks:       {merged.nacks}",
            f"  events:      {merged.events}",
            f"  drops:       {merged.drops}",
            f"  wall clock:  {merged.wall_seconds:.2f} s",
        ]
        if self.metrics_path:
            lines.append(f"  metrics:     {self.metrics_path}")
        if self.trace_path:
            lines.append(f"  trace:       {self.trace_path}")
        return "\n".join(lines)


def run_national(
    spec: RunSpec,
    metrics_dir: Optional[str] = None,
    trace_dir: Optional[str] = None,
) -> NationalRunReport:
    """Execute a national spec and optionally export merged JSONL."""
    merged = run_reference(spec)
    metrics_path, trace_path = export_run(
        merged.record(),
        monitor=merged.monitor,
        registry=merged.registry,
        trace=merged.trace,
        metrics_dir=metrics_dir,
        trace_dir=trace_dir,
    )
    return NationalRunReport(merged, metrics_path, trace_path)
