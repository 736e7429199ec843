"""Every workload at toy size, both passes, names checked against BENCHMARK.json.

Toy means 16 packets (64 over UDP), at most 112 receivers, one campaign
seed and kernels cut to a single short sample; the point is that the
driver, the wrappers and the checks all run, not that the numbers mean
anything.  Collected by ``pytest benchmarks/``, outside tier-1's
``testpaths``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    CONTRACT = json.load(_handle)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_bench(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "bench.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--toy"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_contract_names_are_well_formed_and_unique():
    names = [spec["name"] for key in ("workloads", "end_to_end", "per_layer")
             for spec in CONTRACT[key]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert "setup_s" in {spec["name"] for spec in CONTRACT["end_to_end"]}
    assert CONTRACT["command"][-1] == "benchmarks/e2e/bench.py"


@pytest.mark.parametrize("workload", [spec["name"] for spec in CONTRACT["workloads"]])
@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_workload_reports_every_named_metric(workload: str, trace: int, key: str):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = {spec["name"]: spec["unit"] for spec in CONTRACT[key]}
    assert set(result["metrics"]) == set(wanted)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == wanted[name]
        assert isinstance(metric["value"], float)
    if trace == 0:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_missing_metric_makes_the_run_incorrect(tmp_path):
    """A per-layer name nothing produced and no workload bypasses is an error."""
    contract = dict(CONTRACT, per_layer=CONTRACT["per_layer"] + [
        {"name": "core.no_such_metric", "unit": "s", "better": "lower"}])
    (tmp_path / "benchmarks" / "e2e").mkdir(parents=True)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(contract))
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (tmp_path / "benchmarks" / "e2e" / name).write_text(
                open(os.path.join(HERE, name)).read())
    for directory in ("src", os.path.join("benchmarks", "perf")):
        os.symlink(os.path.join(ROOT, directory), tmp_path / directory)
    done = subprocess.run(
        [sys.executable, str(tmp_path / "benchmarks" / "e2e" / "bench.py"), "--workload",
         "national_hybrid", "--seed", "1", "--seconds", "1", "--trace", "1", "--toy"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1
    assert "metrics not measured: ['core.no_such_metric']" in done.stderr
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"] is False


def test_wrapping_a_function_no_module_binds_is_an_error():
    sys.path.insert(0, HERE)
    try:
        from spans import SpanRecorder
    finally:
        sys.path.remove(HERE)
    with pytest.raises(LookupError):
        SpanRecorder("t").wrap_function(lambda: None, "nowhere")
