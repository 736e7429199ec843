"""Loaders for the JSONL files :mod:`repro.obs.export` writes.

An exported metrics file carries the full per-(direction, kind, node)
sparse traffic bins as exact integers, so :func:`monitor_from_export`
rebuilds a :class:`~repro.net.monitor.TrafficMonitor` whose ``series`` /
``mean_series`` / ``send_series`` match the in-process originals
bit-for-bit — the Figure 14–19 pipelines can run entirely from disk.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.net.monitor import TrafficMonitor
from repro.obs.export import FORMAT


class ObsLoadError(ValueError):
    """An export file is missing, malformed, or of an unknown format."""


def read_jsonl(path: str) -> Iterator[Dict[str, object]]:
    """Yield each record of a JSONL file (blank lines skipped)."""
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise ObsLoadError(f"{path}:{lineno}: bad JSON ({exc})") from exc


def _check_manifest(path: str, records: List[Dict[str, object]]) -> Dict[str, object]:
    if not records:
        raise ObsLoadError(f"{path}: empty export file")
    manifest = records[0]
    if manifest.get("record") != "manifest":
        raise ObsLoadError(f"{path}: first record is not a manifest")
    if manifest.get("format") != FORMAT:
        raise ObsLoadError(
            f"{path}: unknown format {manifest.get('format')!r} "
            f"(expected {FORMAT!r})"
        )
    return manifest


@dataclass
class MetricsExport:
    """One parsed ``*.metrics.jsonl`` file."""

    path: str
    manifest: Dict[str, object]
    run_summary: Optional[Dict[str, object]]
    monitor: TrafficMonitor
    counters: Dict[str, Dict[Tuple[Tuple[str, str], ...], int]] = field(
        default_factory=dict
    )
    gauges: Dict[str, Dict[Tuple[Tuple[str, str], ...], float]] = field(
        default_factory=dict
    )
    histograms: List[Dict[str, object]] = field(default_factory=list)

    @property
    def bin_width(self) -> float:
        return self.monitor.bin_width

    def counter_total(self, name: str) -> int:
        """Sum of one counter over every label combination."""
        return sum(self.counters.get(name, {}).values())


def load_metrics(path: str) -> MetricsExport:
    """Parse a metrics JSONL file into a rebuilt monitor plus registry data."""
    records = list(read_jsonl(path))
    manifest = _check_manifest(path, records)
    raw_width = manifest.get("bin_width")
    try:
        bin_width = float(raw_width)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise ObsLoadError(
            f"{path}: manifest bin_width missing or non-numeric "
            f"({raw_width!r}); refusing to guess — a wrong width silently "
            f"rescales every reloaded series"
        ) from None
    if bin_width <= 0:
        raise ObsLoadError(f"{path}: manifest bin_width must be > 0, got {raw_width!r}")
    monitor = TrafficMonitor(bin_width=bin_width)
    export = MetricsExport(
        path=path, manifest=manifest, run_summary=None, monitor=monitor
    )
    for record in records[1:]:
        kind = record.get("record")
        if kind == "run":
            export.run_summary = {k: v for k, v in record.items() if k != "record"}
        elif kind == "traffic":
            monitor.load_record(
                str(record["dir"]),
                str(record["kind"]),
                int(record["node"]),
                record["bins"],
                record.get("packets"),
                int(record.get("bytes", 0)),
            )
        elif kind == "counter":
            labels = tuple(sorted((str(k), str(v)) for k, v in
                                  (record.get("labels") or {}).items()))
            export.counters.setdefault(str(record["name"]), {})[labels] = int(
                record["value"]
            )
        elif kind == "gauge":
            labels = tuple(sorted((str(k), str(v)) for k, v in
                                  (record.get("labels") or {}).items()))
            export.gauges.setdefault(str(record["name"]), {})[labels] = float(
                record["value"]
            )
        elif kind == "hist":
            export.histograms.append(record)
    return export


def monitor_from_export(path: str) -> TrafficMonitor:
    """Rebuild just the :class:`TrafficMonitor` from a metrics file."""
    return load_metrics(path).monitor


def mean_series_from_export(
    path: str,
    kinds: Tuple[str, ...],
    nodes: List[int],
    t_end: Optional[float] = None,
) -> List[float]:
    """Figure 14–19-style mean-receiver series straight from a file.

    When ``t_end`` is omitted, the exported run summary's ``run_end`` is
    used so the reloaded series spans exactly the original run.
    """
    export = load_metrics(path)
    if t_end is None and export.run_summary is not None:
        run_end = export.run_summary.get("run_end")
        if run_end is not None:
            t_end = float(run_end)
    return export.monitor.mean_series(kinds, nodes, t_end=t_end)


@dataclass
class TraceExport:
    """One parsed ``*.trace.jsonl`` file."""

    path: str
    manifest: Dict[str, object]
    records: List[Dict[str, object]]

    def categories(self) -> Dict[str, int]:
        """Event count per trace category."""
        out: Dict[str, int] = {}
        for record in self.records:
            cat = str(record.get("cat"))
            out[cat] = out.get(cat, 0) + 1
        return out

    def filter(self, category: str) -> List[Dict[str, object]]:
        """All records of one category, in time order."""
        return [r for r in self.records if r.get("cat") == category]


def load_trace(path: str) -> TraceExport:
    """Parse a trace JSONL file."""
    records = list(read_jsonl(path))
    manifest = _check_manifest(path, records)
    return TraceExport(
        path=path,
        manifest=manifest,
        records=[r for r in records[1:] if r.get("record") == "trace"],
    )
