#!/usr/bin/env python3
"""Run every figure at the paper's full scale (1024 packets) and dump the
measurements used by EXPERIMENTS.md."""

import json
import os
import sys
import time

from repro.analysis.timeseries import repair_tail_length, series_stats
from repro.experiments import traffic_sim
from repro.experiments.session_sim import ROLES, run_rtt_experiment

SEED = 1
PACKETS = 1024


def main() -> None:
    out = {"packets": PACKETS, "seed": SEED, "figures": {}}

    for role, fig in zip(ROLES, ("fig11", "fig12", "fig13")):
        t0 = time.time()
        result = run_rtt_experiment(role=role, seed=SEED)
        final = result.final_round()
        out["figures"][fig] = {
            "sender": result.sender,
            "role": role,
            "rounds": [
                {
                    "t": r.time,
                    "median": r.median_ratio(),
                    "within5": r.fraction_within(0.05),
                    "within10": r.fraction_within(0.10),
                    "unresolved": len(r.unresolved),
                }
                for r in result.rounds
            ],
            "improves": result.improves_over_time(),
            "wall": time.time() - t0,
        }
        print(f"{fig} done in {time.time() - t0:.1f}s", flush=True)

    for fig_name in traffic_sim.FIGURES:
        t0 = time.time()
        fig = traffic_sim.figure(fig_name, n_packets=PACKETS, seed=SEED)
        entry = {"curves": {}, "wall": time.time() - t0}
        for label, series in fig.series.items():
            st = series_stats(series)
            run = fig.runs[label]
            entry["curves"][label] = {
                "total": st.total,
                "peak": st.peak,
                "peak_t": st.peak_index * 0.1,
                "mean_active": st.mean_active,
                "completion": run.completion,
                "nacks_sent": run.nacks_sent,
                "tail": repair_tail_length(series, run.data_end_index()),
                "events": run.events,
                "run_wall": run.wall_seconds,
            }
        out["figures"][fig_name] = entry
        print(f"{fig_name} done in {time.time() - t0:.1f}s", flush=True)

    if len(sys.argv) > 1:
        out_path = sys.argv[1]
    else:
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        results_dir = os.path.join(repo_root, "benchmarks", "results")
        os.makedirs(results_dir, exist_ok=True)
        out_path = os.path.join(results_dir, "full_scale_results.json")
    with open(out_path, "w") as f:
        json.dump(out, f, indent=2)
    print("all done", flush=True)


if __name__ == "__main__":
    main()
