"""Unified observability: metrics, structured traces, progress reporting.

The measurement path is a first-class subsystem (the same stance as ns's
trace-file facility and ccns3Sim's per-layer stats objects): every run can
be inspected live and exported losslessly without ad-hoc listeners.

* :mod:`repro.obs.binning` — the one shared definition of "which 0.1 s bin
  is time t in", exact on bin boundaries.
* :mod:`repro.obs.registry` — counters, gauges, time-binned histograms.
* :mod:`repro.obs.recorder` — :class:`RunObserver`: subscribes to the
  versioned :class:`~repro.sim.trace.Tracer`, so cost is zero when off.
* :mod:`repro.obs.export` — JSONL metrics/trace files with a run-manifest
  header (seed, topology, config, git revision); loaders live in
  :mod:`repro.analysis.obsload`.
* :mod:`repro.obs.progress` — periodic progress/throughput lines for long
  runs.
"""

from repro.obs.binning import bin_index, n_bins
from repro.obs.export import (
    FORMAT,
    build_manifest,
    export_metrics,
    export_trace,
    git_revision,
    traffic_records,
)
from repro.obs.progress import ProgressReporter
from repro.obs.recorder import (
    NET_CATEGORIES,
    PKT_CATEGORIES,
    PROTOCOL_CATEGORIES,
    RunObserver,
    default_trace_categories,
    fault_categories,
    summarize_detail,
)
from repro.obs.registry import Counter, Gauge, MetricsRegistry, TimeHistogram

__all__ = [
    "FORMAT",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "NET_CATEGORIES",
    "PKT_CATEGORIES",
    "PROTOCOL_CATEGORIES",
    "ProgressReporter",
    "RunObserver",
    "TimeHistogram",
    "bin_index",
    "build_manifest",
    "default_trace_categories",
    "export_metrics",
    "export_trace",
    "fault_categories",
    "git_revision",
    "n_bins",
    "summarize_detail",
    "traffic_records",
]
