"""Campaign-runner smoke check (CI job ``campaign-smoke``).

Drives the declarative campaign pipeline end to end at smoke scale — a
2-scenario × 2-protocol × 3-seed Figure-14 grid — entirely through the
public CLI:

1. **Run**: ``sharqfec campaign run`` executes the grid in parallel —
   the second scenario crashes and restarts a receiver mid-stream, and
   every one of its cells must complete — and the same invocation
   repeated must skip every cell (resumability).
2. **Report**: ``sharqfec campaign report`` emits ``report.json`` /
   ``report.md`` with per-cell confidence intervals.
3. **Fidelity**: the campaign's seed-1 SHARQFEC cell must reproduce a
   direct single-run Figure 14 series bit-for-bit via
   :mod:`repro.analysis.obsload`, and the report's mean curve must equal
   the recomputed average of the three per-seed series exactly.

Exits nonzero on any mismatch.  Usage::

    PYTHONPATH=src python scripts/campaign_smoke.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

PACKETS = 16
SEEDS = [1, 2, 3]
PROTOCOLS = ["SRM", "SHARQFEC(ns,ni,so)"]

SPEC = {
    "name": "fig14-smoke",
    "description": "Smoke-sized Figure 14 reproduction grid",
    "protocols": PROTOCOLS,
    "seeds": SEEDS,
    "packets": PACKETS,
    "scenarios": [
        {"name": "baseline"},
        {
            "name": "crash",
            "faults": [
                {"kind": "crash_restart", "time": 6.02, "node": 11, "down_for": 0.5}
            ],
        },
    ],
}


def main() -> int:
    from repro.analysis.obsload import load_metrics, mean_series_from_export
    from repro.experiments.cli import main as cli_main
    from repro.experiments.common import (
        DATA_REPAIR_KINDS,
        ObservabilityOptions,
        run_slug,
        run_traffic,
    )

    with tempfile.TemporaryDirectory(prefix="campaign_smoke_") as tmp:
        spec_path = os.path.join(tmp, "fig14_smoke.json")
        with open(spec_path, "w") as handle:
            json.dump(SPEC, handle)
        out_dir = os.path.join(tmp, "campaign")

        run_argv = ["campaign", "run", spec_path, "--out", out_dir, "--workers", "2"]
        rc = cli_main(run_argv)
        assert rc == 0, f"campaign run exited {rc}"
        index = json.load(open(os.path.join(out_dir, "campaign.json")))
        done = [e for e in index["runs"].values() if e["status"] == "done"]
        assert len(done) == len(SPEC["scenarios"]) * len(PROTOCOLS) * len(SEEDS), index["runs"]
        churned = [key for key in index["runs"] if key.startswith("crash/")]
        assert len(churned) == len(PROTOCOLS) * len(SEEDS), churned
        print(f"ran {len(done)} cells, {len(churned)} of them under receiver churn")

        # Resumability: the identical invocation must simulate nothing.
        rc = cli_main(run_argv)
        assert rc == 0, f"campaign re-run exited {rc}"
        reindex = json.load(open(os.path.join(out_dir, "campaign.json")))
        assert reindex == index, "resume mutated the campaign index"
        print("resume skipped all cells")

        rc = cli_main(["campaign", "report", out_dir])
        assert rc == 0, f"campaign report exited {rc}"
        report = json.load(open(os.path.join(out_dir, "report.json")))
        assert os.path.exists(os.path.join(out_dir, "report.md"))
        assert len(report["cells"]) == len(SPEC["scenarios"]) * len(PROTOCOLS)
        for cell in report["cells"]:
            assert cell["seeds"] == SEEDS, cell
            comp = cell["completion"]
            assert comp["lo"] <= comp["mean"] <= comp["hi"], comp
        assert report["comparisons"], "expected a cross-protocol comparison"
        print("report carries CIs for every cell")

        # Seed-1 fidelity: direct single run vs the campaign's export.
        proto = "SHARQFEC(ns,ni,so)"
        solo_dir = os.path.join(tmp, "solo")
        run_traffic(
            proto,
            n_packets=PACKETS,
            seed=1,
            obs=ObservabilityOptions(metrics_dir=solo_dir),
        )
        slug = run_slug(proto, PACKETS, 1)
        solo_path = os.path.join(solo_dir, f"{slug}.metrics.jsonl")
        receivers = [
            int(r) for r in load_metrics(solo_path).run_summary["receivers"]
        ]
        solo = mean_series_from_export(solo_path, DATA_REPAIR_KINDS, receivers)

        campaign_paths = [
            os.path.join(
                out_dir, "runs", "baseline",
                f"{run_slug(proto, PACKETS, seed)}.metrics.jsonl",
            )
            for seed in SEEDS
        ]
        seed1 = mean_series_from_export(
            campaign_paths[0], DATA_REPAIR_KINDS, receivers
        )
        assert seed1 == solo, "campaign seed-1 series diverged from single run"
        print(f"seed-1 series bit-for-bit identical ({len(solo)} bins)")

        # Report mean == recomputed average of the per-seed series.
        per_seed = [
            mean_series_from_export(path, DATA_REPAIR_KINDS, receivers)
            for path in campaign_paths
        ]
        width = max(len(s) for s in per_seed)
        expected = [
            sum((s[i] if i < len(s) else 0.0) for s in per_seed) / len(per_seed)
            for i in range(width)
        ]
        cell = next(
            c for c in report["cells"]
            if (c["scenario"], c["protocol"]) == ("baseline", proto)
        )
        got = cell["series"]["data_repair"]["mean"]
        assert len(got) == len(expected), (len(got), len(expected))
        worst = max(
            (abs(a - b) for a, b in zip(got, expected)), default=0.0
        )
        assert worst < 1e-12, f"report mean off by {worst}"
        print(f"report mean matches recomputed per-seed average ({width} bins)")

    print("campaign smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
