"""Parallel, resumable execution of a campaign's run grid.

A campaign directory is self-contained and append-only::

    <out_dir>/
      campaign.json                     # index: spec + per-cell status
      runs/<scenario>/<slug>.metrics.jsonl
      runs/<scenario>/<slug>.trace.jsonl   # when capture_trace

The index is rewritten after every completed cell, so an interrupted
campaign resumes by rerunning only the cells whose exports are missing —
cell identity is the deterministic run slug (protocol, packets, seed plus
the fault-plan/drain digest), which also guarantees two scenarios can
never overwrite each other's files.  Workers are separate processes; each
cell threads its export options explicitly into
:func:`~repro.experiments.common.run_traffic`, so nothing races on
ambient state.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import CampaignError
from repro.experiments.common import ObservabilityOptions, run_traffic
from repro.campaign.spec import CampaignSpec, RunCell, spec_from_dict

INDEX_NAME = "campaign.json"
RUNS_DIR = "runs"
INDEX_FORMAT = "sharqfec.campaign.v1"


@dataclass
class CellOutcome:
    """What happened to one grid cell in this invocation."""

    scenario: str
    protocol: str
    seed: int
    slug: str
    status: str  # "done" | "skipped" | "failed"
    metrics_path: str = ""
    trace_path: Optional[str] = None
    completion: float = 0.0
    nacks_sent: int = 0
    events: int = 0
    wall_seconds: float = 0.0
    error: Optional[str] = None

    def to_index_entry(self) -> Dict[str, object]:
        entry = dataclasses.asdict(self)
        entry["status"] = "done" if self.status == "skipped" else self.status
        return entry


@dataclass
class CampaignRunReport:
    """Aggregate result of one :func:`run_campaign` invocation."""

    out_dir: str
    outcomes: List[CellOutcome] = field(default_factory=list)

    @property
    def ran(self) -> List[CellOutcome]:
        return [o for o in self.outcomes if o.status == "done"]

    @property
    def skipped(self) -> List[CellOutcome]:
        return [o for o in self.outcomes if o.status == "skipped"]

    @property
    def failed(self) -> List[CellOutcome]:
        return [o for o in self.outcomes if o.status == "failed"]

    def summary(self) -> str:
        return (
            f"campaign {self.out_dir}: {len(self.ran)} ran, "
            f"{len(self.skipped)} skipped (resume), {len(self.failed)} failed"
        )


def cell_slug(spec: CampaignSpec, cell: RunCell) -> str:
    """Deterministic export basename of a cell (no simulation needed)."""
    return cell.slug(spec.scenario(cell.scenario).fault_plan())


def cell_paths(spec: CampaignSpec, cell: RunCell) -> Tuple[str, Optional[str]]:
    """(metrics, trace) paths of a cell, relative to the campaign dir."""
    slug = cell_slug(spec, cell)
    base = os.path.join(RUNS_DIR, cell.scenario)
    metrics = os.path.join(base, f"{slug}.metrics.jsonl")
    trace = (
        os.path.join(base, f"{slug}.trace.jsonl") if spec.capture_trace else None
    )
    return metrics, trace


def _execute_cell(payload: Dict[str, object]) -> Dict[str, object]:
    """Run one cell (module-level so process pools can pickle it)."""
    spec = spec_from_dict(payload["spec"])  # type: ignore[arg-type]
    cell = RunCell(**payload["cell"])  # type: ignore[arg-type]
    metrics_rel, trace_rel = cell_paths(spec, cell)
    scenario_dir = os.path.join(str(payload["out_dir"]), RUNS_DIR, cell.scenario)
    outcome: Dict[str, object] = {
        "scenario": cell.scenario,
        "protocol": cell.protocol,
        "seed": cell.seed,
        "slug": cell_slug(spec, cell),
        "metrics_path": metrics_rel,
        "trace_path": trace_rel,
    }
    try:
        result = run_traffic(
            cell.protocol,
            n_packets=cell.packets,
            seed=cell.seed,
            drain=cell.drain,
            fault_plan=spec.scenario(cell.scenario).fault_plan(),
            obs=ObservabilityOptions(
                metrics_dir=scenario_dir,
                trace_dir=scenario_dir if spec.capture_trace else None,
            ),
        )
    except Exception as exc:  # whatever the run observed is already on disk
        return dict(outcome, status="failed", error=f"{type(exc).__name__}: {exc}")
    return dict(
        outcome,
        status="done",
        completion=result.completion,
        nacks_sent=result.nacks_sent,
        events=result.events,
        wall_seconds=result.wall_seconds,
    )


def load_index(out_dir: str) -> Optional[Dict[str, object]]:
    """The campaign index, or ``None`` for a fresh directory."""
    path = os.path.join(out_dir, INDEX_NAME)
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        try:
            index = json.load(handle)
        except json.JSONDecodeError as exc:
            raise CampaignError(f"{path}: corrupt campaign index ({exc})") from exc
    if index.get("format") != INDEX_FORMAT:
        raise CampaignError(
            f"{path}: unknown index format {index.get('format')!r} "
            f"(expected {INDEX_FORMAT!r})"
        )
    return index


def _write_index(out_dir: str, index: Dict[str, object]) -> None:
    path = os.path.join(out_dir, INDEX_NAME)
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(index, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


def run_campaign(
    spec: CampaignSpec,
    out_dir: str,
    workers: Optional[int] = None,
    resume: bool = True,
    log: Optional[Callable[[str], None]] = None,
) -> CampaignRunReport:
    """Execute every cell of ``spec``'s grid into ``out_dir``.

    Args:
        spec: a validated campaign spec.
        workers: process count for the pool; ``0``/``1`` runs inline
            (deterministic single-process mode), ``None`` uses the CPU
            count capped at the number of pending cells.
        resume: skip cells the index already marks done (their export
            files still existing); ``False`` reruns everything.  Resuming
            against a directory built from a *different* spec is refused.
        log: optional progress sink (one line per cell).
    """
    spec.validate()
    emit = log if log is not None else (lambda line: None)
    os.makedirs(out_dir, exist_ok=True)
    index = load_index(out_dir)
    if index is not None and index.get("spec_digest") != spec.digest():
        raise CampaignError(
            f"{out_dir}: existing campaign was built from a different spec "
            f"(index digest {index.get('spec_digest')!r}, this spec "
            f"{spec.digest()!r}); pick a fresh --out directory or rerun the "
            f"original spec"
        )
    if index is None:
        index = {
            "format": INDEX_FORMAT,
            "campaign": spec.name,
            "spec": spec.to_dict(),
            "spec_digest": spec.digest(),
            "runs": {},
        }
        _write_index(out_dir, index)
    runs: Dict[str, Dict[str, object]] = index["runs"]  # type: ignore[assignment]

    report = CampaignRunReport(out_dir=out_dir)
    pending: List[RunCell] = []
    for cell in spec.cells():
        metrics_rel, trace_rel = cell_paths(spec, cell)
        key = f"{cell.scenario}/{cell_slug(spec, cell)}"
        entry = runs.get(key)
        exported = os.path.exists(os.path.join(out_dir, metrics_rel))
        if resume and entry is not None and entry.get("status") == "done" and exported:
            report.outcomes.append(
                CellOutcome(
                    scenario=cell.scenario,
                    protocol=cell.protocol,
                    seed=cell.seed,
                    slug=cell_slug(spec, cell),
                    status="skipped",
                    metrics_path=metrics_rel,
                    trace_path=trace_rel,
                    completion=float(entry.get("completion", 0.0)),
                    nacks_sent=int(entry.get("nacks_sent", 0)),
                    events=int(entry.get("events", 0)),
                )
            )
            emit(f"skip {key} (already complete)")
        else:
            pending.append(cell)

    def record(raw: Dict[str, object]) -> None:
        outcome = CellOutcome(**raw)  # type: ignore[arg-type]
        report.outcomes.append(outcome)
        key = f"{outcome.scenario}/{outcome.slug}"
        runs[key] = outcome.to_index_entry()
        _write_index(out_dir, index)
        if outcome.status == "failed":
            emit(f"FAIL {key}: {outcome.error}")
        else:
            emit(
                f"ran  {key} completion={outcome.completion:.4f} "
                f"nacks={outcome.nacks_sent} wall={outcome.wall_seconds:.1f}s"
            )

    payloads = [
        {"spec": spec.to_dict(), "out_dir": out_dir, "cell": dataclasses.asdict(cell)}
        for cell in pending
    ]
    if workers is None:
        workers = min(os.cpu_count() or 1, max(1, len(payloads)))
    if workers <= 1 or len(payloads) <= 1:
        for payload in payloads:
            record(_execute_cell(payload))
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_execute_cell, p) for p in payloads]
            for future in concurrent.futures.as_completed(futures):
                record(future.result())
    # Canonical cell order in the report regardless of completion order.
    order = {
        (cell.scenario, cell.protocol, cell.seed): i
        for i, cell in enumerate(spec.cells())
    }
    report.outcomes.sort(
        key=lambda o: order.get((o.scenario, o.protocol, o.seed), len(order))
    )
    return report
