"""The implementation-equivalence check.

One place in the tree has a fast implementation and a plain one: multicast
forwarding (the compiled schedule in ``Network`` vs the interpreted walk
kept test-side as the oracle).  They are implementations, not behaviours:
both must produce the same simulation, event for event, and the coded bytes
that ride along must not depend on which one ran.

The check is maximally strict: the exported trace and metrics JSONL files
of both must be byte-identical.
"""

from __future__ import annotations

import os

from repro.experiments.common import ObservabilityOptions, run_slug, run_traffic
from repro.faults import FaultPlan
from repro.fec import decode_blob, encode_blob
from repro.net.network import Network
from tests.test_perf_optimizations import reference_multicast

N_PACKETS = 16
SEED = 7
BLOB = bytes((i * 37 + 11) % 256 for i in range(5000))
#: A router crash and a link bounce mid-stream (node 8 heads a subtree under
#: head 1), so packets in flight meet a dead node and a dead link.
PLAN = (
    FaultPlan("matrix")
    .node_crash(6.05, 8).node_restart(6.6, 8)
    .link_down(6.08, 1, 9).link_up(6.7, 1, 9)
)

#: Compiled forwarding, then the interpreted oracle.
COMBOS = [True, False]


def _run_combo(tmp_path, monkeypatch, compiled: bool):
    with monkeypatch.context() as patch:
        if not compiled:
            patch.setattr(Network, "multicast", reference_multicast)
        header, data, repairs = encode_blob(BLOB, 8, 3)
        survivors = {i: data[i] for i in range(3, 8)}
        survivors.update({8 + r: repairs[r] for r in range(3)})
        coded = (header, repairs, decode_blob(header, survivors))

        root = tmp_path / f"c{compiled:d}"
        options = ObservabilityOptions(
            metrics_dir=str(root / "metrics"), trace_dir=str(root / "trace")
        )
        result = run_traffic(
            "SHARQFEC", n_packets=N_PACKETS, seed=SEED, drain=5.0, fault_plan=PLAN, obs=options
        )
    slug = run_slug("SHARQFEC", N_PACKETS, SEED, drain=5.0, fault_plan=PLAN)
    with open(os.path.join(options.trace_dir, f"{slug}.trace.jsonl"), "rb") as f:
        trace_bytes = f.read()
    with open(os.path.join(options.metrics_dir, f"{slug}.metrics.jsonl"), "rb") as f:
        metrics_bytes = f.read()
    return result, trace_bytes, metrics_bytes, coded


def test_forwarding_and_codec_implementations_are_behavior_preserving(tmp_path, monkeypatch):
    results = {combo: _run_combo(tmp_path, monkeypatch, combo) for combo in COMBOS}

    baseline, baseline_trace, baseline_metrics, baseline_coded = results[COMBOS[0]]
    assert len(baseline_trace.splitlines()) > N_PACKETS  # a real trace
    assert baseline_coded[2] == BLOB
    for combo, (result, trace_bytes, metrics_bytes, coded) in results.items():
        assert trace_bytes == baseline_trace, f"trace diverged for {combo}"
        assert metrics_bytes == baseline_metrics, f"metrics diverged for {combo}"
        assert coded == baseline_coded, f"coded bytes diverged for {combo}"
        assert result.completion == baseline.completion
        assert result.nacks_sent == baseline.nacks_sent
        assert result.events == baseline.events
