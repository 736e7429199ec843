"""Structured JSONL export of a run's metrics and trace.

Two file kinds, both newline-delimited JSON with a *manifest* header line
so a file is self-describing and replayable:

* **metrics** — the manifest, a ``run`` summary record, every
  :class:`~repro.net.monitor.TrafficMonitor` traffic record (per-direction,
  per-kind, per-node sparse bins — exact integers, so the in-process series
  round-trip bit-for-bit), and a :class:`~repro.obs.registry.MetricsRegistry`
  snapshot.
* **trace** — the manifest followed by one record per captured
  :class:`~repro.sim.trace.TraceRecord`, payloads summarized via
  :func:`repro.obs.recorder.summarize_detail`.  One multicast's receive
  records all carry the same packet, so the writer encodes a packet's
  summary once and reuses it (:func:`_trace_line_formatter`).

The manifest pins everything needed to regenerate the run: master seed,
topology name, protocol/config summary, and the source git revision.
Loaders live in :mod:`repro.analysis.obsload`.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import subprocess
from typing import Callable, Dict, Iterable, List, Optional, Union

from repro.obs.recorder import summarize_detail
from repro.obs.registry import MetricsRegistry
from repro.sim.trace import TraceRecord

#: Manifest/format identifier; bump on incompatible schema changes.
FORMAT = "sharqfec.obs.v1"

#: The one encoder behind every exported line.
_encode = json.JSONEncoder(sort_keys=True, default=str).encode

#: Lines joined into one ``write`` call.
_CHUNK_LINES = 4096

_INF = float("inf")

_git_rev_cache: Optional[str] = None


def git_revision() -> str:
    """The repository HEAD revision, or ``"unknown"`` outside a checkout."""
    global _git_rev_cache
    if _git_rev_cache is None:
        try:
            root = os.path.dirname(os.path.dirname(os.path.dirname(
                os.path.dirname(os.path.abspath(__file__)))))
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=10,
            )
            _git_rev_cache = out.stdout.strip() if out.returncode == 0 else "unknown"
        except (OSError, subprocess.SubprocessError):
            _git_rev_cache = "unknown"
    return _git_rev_cache


def _config_summary(config: object) -> object:
    """A JSON-safe rendering of a protocol config (dataclass or repr)."""
    if config is None:
        return None
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        out = {}
        for key, value in dataclasses.asdict(config).items():
            if isinstance(value, (str, int, float, bool)) or value is None:
                out[key] = value
            else:
                out[key] = repr(value)
        return out
    return repr(config)


def build_manifest(
    kind: str,
    *,
    run: str = "",
    seed: Optional[int] = None,
    topology: str = "",
    protocol: str = "",
    config: object = None,
    bin_width: Optional[float] = None,
    params: Optional[Dict[str, object]] = None,
    extra: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """The self-description header every export file starts with.

    ``params`` carries the full non-core run parameters (drain, fault
    plan, ablation flags) that the run slug only digests — the manifest is
    where a collision-suffixed filename can be decoded back to its exact
    run shape.
    """
    manifest: Dict[str, object] = {
        "record": "manifest",
        "format": FORMAT,
        "kind": kind,
        "run": run,
        "seed": seed,
        "topology": topology,
        "protocol": protocol,
        "config": _config_summary(config),
        "git_rev": git_revision(),
    }
    if bin_width is not None:
        manifest["bin_width"] = bin_width
    if params is not None:
        manifest["params"] = params
    if extra:
        manifest.update(extra)
    return manifest


def _write_lines(path: str, lines: Iterable[str]) -> None:
    """Write newline-terminated ``lines`` to ``path`` (making its directory
    first), a chunk per write."""
    lines = iter(lines)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as handle:
        while True:
            chunk = "".join(itertools.islice(lines, _CHUNK_LINES))
            if not chunk:
                break
            handle.write(chunk)


def _write_jsonl(path: str, records: Iterable[Dict[str, object]]) -> None:
    _write_lines(path, (_encode(record) + "\n" for record in records))


def traffic_records(monitor) -> List[Dict[str, object]]:
    """Every (direction, kind, node) sparse-bin record of one monitor.

    Counts are exact integers, so a loader that replays these through
    :meth:`TrafficMonitor.load_record` reproduces ``series`` /
    ``mean_series`` bit-for-bit.
    """
    records: List[Dict[str, object]] = []
    for (kind, node), (bins, packets, nbytes) in sorted(monitor.receive_records()):
        records.append(
            {
                "record": "traffic",
                "dir": "recv",
                "kind": kind,
                "node": node,
                "bins": {str(i): c for i, c in sorted(bins.items())},
                "packets": packets,
                "bytes": nbytes,
            }
        )
    for (kind, node), bins in sorted(monitor.send_records()):
        records.append(
            {
                "record": "traffic",
                "dir": "send",
                "kind": kind,
                "node": node,
                "bins": {str(i): c for i, c in sorted(bins.items())},
                "packets": sum(bins.values()),
                "bytes": 0,
            }
        )
    for (kind, node), (bins, packets, nbytes) in sorted(monitor.drop_records()):
        records.append(
            {
                "record": "traffic",
                "dir": "drop",
                "kind": kind,
                "node": node,
                "bins": {str(i): c for i, c in sorted(bins.items())},
                "packets": packets,
                "bytes": nbytes,
            }
        )
    return records


def export_metrics(
    path: str,
    manifest: Dict[str, object],
    *,
    monitor=None,
    registry: Optional[MetricsRegistry] = None,
    run_summary: Optional[Dict[str, object]] = None,
) -> str:
    """Write one metrics JSONL file; returns ``path``."""
    records: List[Dict[str, object]] = [manifest]
    if run_summary is not None:
        records.append({"record": "run", **run_summary})
    if monitor is not None:
        records.extend(traffic_records(monitor))
    if registry is not None:
        records.extend(registry.snapshot())
    _write_jsonl(path, records)
    return path


def trace_record_to_dict(record: TraceRecord) -> Dict[str, object]:
    """One trace line's payload.

    The sharded engine ships these dicts across processes; the trace
    writer formats lines directly and the tests hold it to
    ``json.dumps(trace_record_to_dict(r), sort_keys=True, default=str)``.
    """
    return {
        "record": "trace",
        "t": record.time,
        "cat": record.category,
        "node": record.node,
        "detail": summarize_detail(record.detail),
    }


def _trace_line_formatter() -> Callable[[TraceRecord], str]:
    """A function from a trace record to its newline-terminated JSON line.

    The line is the sorted-key encoding of :func:`trace_record_to_dict`,
    assembled from parts: a packet's ``detail`` fragment is encoded once
    per :attr:`Packet.uid <repro.net.packet.Packet.uid>` (PDUs are not
    modified after they are sent) and each category once, float times are
    written with ``float.__repr__`` as :mod:`json` does.  Any other detail
    is encoded afresh, and a record whose time is not a finite ``float``,
    or whose node or category is not an ``int`` and a ``str``, takes the
    dict route whole.

    The memo lives as long as the returned function.
    """
    # Not at module level: repro.net imports repro.obs.binning, and pulling
    # the network stack in from here would reorder every program's imports.
    from repro.net.packet import Packet

    fragments: Dict[int, str] = {}
    heads: Dict[str, str] = {}

    def line(record: Union[TraceRecord, Dict[str, object]]) -> str:
        if type(record) is dict:  # already trace_record_to_dict's form
            return _encode(record) + "\n"
        time, category, node, detail = record
        if (
            type(time) is not float
            or not -_INF < time < _INF
            or type(node) is not int
            or type(category) is not str
        ):
            return _encode(trace_record_to_dict(record)) + "\n"
        if isinstance(detail, Packet):
            fragment = fragments.get(detail.uid)
            if fragment is None:
                fragment = fragments[detail.uid] = _encode(summarize_detail(detail))
        else:
            fragment = _encode(summarize_detail(detail))
        head = heads.get(category)
        if head is None:
            head = heads[category] = f'{{"cat": {_encode(category)}, "detail": '
        return f'{head}{fragment}, "node": {node}, "record": "trace", "t": {time!r}}}\n'

    return line


def export_trace(
    path: str,
    manifest: Dict[str, object],
    records: Iterable[Union[TraceRecord, Dict[str, object]]],
) -> str:
    """Write one trace JSONL file; returns ``path``.

    A record may already be in :func:`trace_record_to_dict` form — the
    sharded engine merges per-shard traces as plain dicts, the form they
    cross the process boundary in; the line written is the same.
    """
    _write_lines(
        path,
        itertools.chain(
            [_encode(manifest) + "\n"], map(_trace_line_formatter(), records)
        ),
    )
    return path
