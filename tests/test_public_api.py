"""The curated top-level surface: lazy exports, `__all__`, deprecation shims."""

from __future__ import annotations

import ast
import asyncio
import dataclasses
import importlib
import pathlib
import re
import subprocess
import sys

import pytest

import repro
import repro.hybrid
import repro.net

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_all_is_sorted_and_complete():
    assert repro.__all__[0] == "__version__"
    names = repro.__all__[1:]
    assert names == sorted(names)
    assert set(names) == set(repro._EXPORTS)


def test_every_export_resolves_to_its_home_module():
    for name, module in repro._EXPORTS.items():
        value = getattr(repro, name)
        home = importlib.import_module(module)
        assert value is getattr(home, name), name
        assert name in dir(repro)


def test_import_repro_is_lazy():
    # A fresh interpreter importing `repro` must not drag in the protocol
    # stack (that is the whole point of PEP 562 here).
    code = (
        "import sys; import repro; "
        "heavy = [m for m in sys.modules if m.startswith(('repro.core', "
        "'repro.transport', 'repro.net'))]; "
        "assert not heavy, heavy"
    )
    subprocess.run(
        [sys.executable, "-c", code], check=True, env={"PYTHONPATH": "src"}
    )


def test_configuration_arrives_through_one_channel():
    """Typed specs and configs are the only way to configure a run: nothing
    under ``src/repro`` reads the environment except the property-test
    example budget, and the equivalence knobs that used to be exported stay
    gone."""
    root = pathlib.Path(repro.__file__).parent
    reads = set()
    for path in root.rglob("*.py"):
        for line in path.read_text().splitlines():
            if re.search(r"os\.environ|getenv", line):
                knob = re.search(r"SHARQFEC_\w+", line)
                reads.add((path.relative_to(root).as_posix(), knob.group(0) if knob else line))
    assert reads == {("testing/__init__.py", "SHARQFEC_PROP_EXAMPLES")}
    exported = set(repro.__all__) | set(repro.net.__all__) | set(repro.hybrid.__all__)
    assert not exported & {"FeatureFlags", "UnicastPacket", "hybrid_enabled"}


def test_the_library_imports_only_the_standard_library():
    """``pyproject.toml`` declares no dependencies, so nothing under
    ``src/repro`` may import one, not even optionally inside a function."""
    root = pathlib.Path(repro.__file__).parent
    foreign = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.partition(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    foreign.add((path.relative_to(root).as_posix(), top))
    assert foreign == set()


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute"):
        repro.definitely_not_an_export


def test_interface_implementations_are_registered():
    # The seam types and their implementations, via the curated surface.
    assert isinstance(repro.Simulator(seed=1), repro.Clock)
    assert isinstance(repro.Network(repro.Simulator(seed=1)), repro.Transport)


def test_the_clock_seam_is_six_methods_with_two_implementers():
    members = {name for name in vars(repro.Clock) if not name.startswith("_")}
    members |= set(repro.Clock.__annotations__)
    assert members == {
        "now", "rng", "tracer",
        "schedule", "at", "call_at", "cancel", "reschedule", "rearm",
    }
    assert isinstance(repro.Simulator(seed=1), repro.Clock)
    loop = asyncio.new_event_loop()
    try:
        assert isinstance(repro.AsyncioClock(loop), repro.Clock)
    finally:
        loop.close()


def test_the_on_off_switches_are_the_five_somebody_flips():
    switches = {
        field.name
        for field in dataclasses.fields(repro.SharqfecConfig)
        if field.type in (bool, "bool")
    }
    assert switches == {
        "scoping", "injection", "sender_only",  # the paper's ns / ni / so
        "adaptive_timers", "late_join_recovery",
    }
    # Every other config field is one a caller varies; the paper's
    # constants live beside the dataclasses as module constants.
    assert [field.name for field in dataclasses.fields(repro.SharqfecConfig)] == [
        "group_size", "data_rate_bps", "n_packets",
        "scoping", "injection", "sender_only",
        "adaptive_timers", "late_join_recovery", "ewma_keep",
    ]
    assert [field.name for field in dataclasses.fields(repro.SrmConfig)] == [
        "n_packets", "adaptive",
    ]


def test_every_name_the_benchmark_binds_resolves():
    """``benchmarks/e2e`` wraps methods and calls functions by name; a rename
    it has not followed must fail here, not only in the benchmark run."""
    code = """
import ast, sys, types
sys.path.insert(0, "benchmarks/e2e")
import bench, kernels, workloads
for owner, attribute, _ in bench._wrap_targets():
    # As spans.py resolves them: methods on the class that defines them.
    target = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
    assert callable(target), (owner, attribute)
for node in ast.walk(ast.parse(open(workloads.__file__).read())):
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        module = getattr(workloads, node.value.id, None)
        if isinstance(module, types.ModuleType) and module.__name__.startswith("repro"):
            assert hasattr(module, node.attr), (module.__name__, node.attr)
"""
    subprocess.run(
        [sys.executable, "-c", code], check=True, cwd=ROOT, env={"PYTHONPATH": "src"}
    )
