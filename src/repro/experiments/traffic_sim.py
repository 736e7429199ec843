"""Data/repair traffic experiments: Figures 14–21 (§6.2).

``figure("figNN")`` returns a :class:`FigureResult` holding the same
series the paper plots; :data:`FIGURES` is the table of what each one is.
Runs are cached per (variant, packets, seed, drain, export options) so
figures sharing a protocol run (e.g. 14 and 15) simulate it once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.report import render_series, sparkline
from repro.analysis.timeseries import series_stats
from repro.experiments.common import (
    DEFAULT_PACKETS,
    ObservabilityOptions,
    TrafficRunResult,
    run_traffic,
)

_RunKey = Tuple[str, int, int, float, Optional[ObservabilityOptions]]
_run_cache: Dict[_RunKey, TrafficRunResult] = {}


def clear_cache() -> None:
    """Drop all cached runs (tests use this between parameter sets)."""
    _run_cache.clear()


def _get_run(
    protocol: str,
    n_packets: Optional[int],
    seed: int,
    drain: float,
    obs: Optional[ObservabilityOptions],
) -> TrafficRunResult:
    packets = n_packets if n_packets is not None else DEFAULT_PACKETS
    # The export options are part of the key: an unobserved cached run must
    # not stand in for one that was asked to export.
    key = (protocol, packets, seed, drain, obs)
    result = _run_cache.get(key)
    if result is None:
        result = run_traffic(protocol, n_packets=packets, seed=seed, drain=drain, obs=obs)
        _run_cache[key] = result
    return result


@dataclass
class FigureResult:
    """Reproduction of one paper figure as aligned text series."""

    figure_id: str
    title: str
    series: Dict[str, List[float]]
    runs: Dict[str, TrafficRunResult]
    bin_width: float = 0.1

    def stats(self) -> Dict[str, object]:
        """Per-curve summary statistics."""
        return {label: series_stats(values) for label, values in self.series.items()}

    def to_csv(self) -> str:
        """The figure's aligned series as CSV (t, one column per curve)."""
        labels = list(self.series)
        length = max((len(v) for v in self.series.values()), default=0)
        lines = ["t," + ",".join(labels)]
        for i in range(length):
            t = (i + 0.5) * self.bin_width
            cells = [f"{t:.2f}"]
            for label in labels:
                values = self.series[label]
                cells.append(f"{values[i]:.4f}" if i < len(values) else "")
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def render(self, every: int = 5) -> str:
        """Printable reproduction: header, per-curve stats, sampled series."""
        lines = [f"=== {self.figure_id}: {self.title} ==="]
        for label, run in self.runs.items():
            lines.append(
                f"  {label}: completion={run.completion:.4f} "
                f"nacks={run.nacks_sent} events={run.events} "
                f"wall={run.wall_seconds:.1f}s"
            )
        for label, st in self.stats().items():
            lines.append(
                f"  {label}: total={st.total:.0f} peak={st.peak:.1f} "
                f"@t={st.peak_index * self.bin_width:.1f}s "
                f"mean_active={st.mean_active:.2f}"
            )
        width = max(len(label) for label in self.series)
        for label, values in self.series.items():
            lines.append(f"  {label.ljust(width)} |{sparkline(values)}|")
        lines.append(render_series(self.series, bin_width=self.bin_width, every=every))
        return "\n".join(lines)


_SERIES: Dict[str, Callable[[TrafficRunResult], List[float]]] = {
    "data+repair": TrafficRunResult.data_repair_series,
    "nack": TrafficRunResult.nack_series,
    "source data+repair": TrafficRunResult.source_data_repair_series,
    "source nack": TrafficRunResult.source_nack_series,
}

#: figure id -> (paper title, one-line description, series kind, the two
#: variants plotted).  Figures 14-21 differ in nothing else.
FIGURES: Dict[str, Tuple[str, str, str, Tuple[str, str]]] = {
    "fig14": (
        "Data and Repair Traffic - SRM and SHARQFEC(ns,ni,so)/ECSRM",
        "Data+repair traffic: SRM vs ECSRM (§6.2)",
        "data+repair", ("SRM", "SHARQFEC(ns,ni,so)"),
    ),
    "fig15": (
        "NACK Traffic - SRM and SHARQFEC(ns,ni,so)/ECSRM",
        "NACK traffic: SRM vs ECSRM (§6.2)",
        "nack", ("SRM", "SHARQFEC(ns,ni,so)"),
    ),
    "fig16": (
        "Average Data and Repair Traffic - SHARQFEC(ns,ni) and SHARQFEC(ns)",
        "Non-scoped variants: (ns,ni) vs (ns) (§6.2)",
        "data+repair", ("SHARQFEC(ns,ni)", "SHARQFEC(ns)"),
    ),
    "fig17": (
        "Average Data and Repair Traffic - SHARQFEC(ns,ni,so) and SHARQFEC",
        "Scoping gain: (ns,ni,so) vs SHARQFEC (§6.2)",
        "data+repair", ("SHARQFEC(ns,ni,so)", "SHARQFEC"),
    ),
    "fig18": (
        "Data and Repair Traffic - SHARQFEC(ni) and SHARQFEC",
        "Injection ablation: (ni) vs SHARQFEC (§6.2)",
        "data+repair", ("SHARQFEC(ni)", "SHARQFEC"),
    ),
    "fig19": (
        "Average NACK traffic - SHARQFEC(ns,ni,so) and SHARQFEC",
        "NACK suppression: (ns,ni,so) vs SHARQFEC (§6.2)",
        "nack", ("SHARQFEC(ns,ni,so)", "SHARQFEC"),
    ),
    "fig20": (
        "Data and Repair Traffic seen by the Source - SHARQFEC(ns,ni,so) and SHARQFEC",
        "Source-visible data+repair traffic (§6.2)",
        "source data+repair", ("SHARQFEC(ns,ni,so)", "SHARQFEC"),
    ),
    "fig21": (
        "NACK Traffic seen by the Source - SHARQFEC(ns,ni,so) and SHARQFEC",
        "Source-visible NACK traffic (§6.2)",
        "source nack", ("SHARQFEC(ns,ni,so)", "SHARQFEC"),
    ),
}


def figure(
    figure_id: str,
    n_packets: Optional[int] = None,
    seed: int = 1,
    drain: float = 10.0,
    obs: Optional[ObservabilityOptions] = None,
) -> FigureResult:
    """Reproduce one of Figures 14-21: one curve per variant in its row.

    ``obs`` makes each run export per :func:`run_traffic`; a run another
    figure already made under the same options is reused, not re-run.
    """
    title, _description, kind, variants = FIGURES[figure_id]
    runs = {variant: _get_run(variant, n_packets, seed, drain, obs) for variant in variants}
    series = {variant: _SERIES[kind](run) for variant, run in runs.items()}
    return FigureResult(figure_id, title, series, runs)
