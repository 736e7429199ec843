"""The curated top-level surface: lazy exports, `__all__`, deprecation shims."""

from __future__ import annotations

import importlib
import pathlib
import re
import subprocess
import sys

import pytest

import repro
import repro.hybrid
import repro.net


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
    under ``src/repro`` reads the environment except the two workload-size
    knobs, and the equivalence knobs that used to be exported stay gone."""
    root = pathlib.Path(repro.__file__).parent
    reads = set()
    for path in root.rglob("*.py"):
        for line in path.read_text().splitlines():
            if re.search(r"os\.environ|getenv", line):
                knob = re.search(r"SHARQFEC_\w+", line)
                reads.add((path.relative_to(root).as_posix(), knob.group(0) if knob else line))
    assert reads == {
        ("experiments/common.py", "SHARQFEC_PACKETS"),
        ("testing/__init__.py", "SHARQFEC_PROP_EXAMPLES"),
    }
    exported = set(repro.__all__) | set(repro.net.__all__) | set(repro.hybrid.__all__)
    assert not exported & {"FeatureFlags", "UnicastPacket", "hybrid_enabled"}


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute"):
        repro.definitely_not_an_export


def test_interface_implementations_are_registered():
    # The seam types and their implementations, via the curated surface.
    assert isinstance(repro.Simulator(seed=1), repro.Clock)
    assert isinstance(repro.Network(repro.Simulator(seed=1)), repro.Transport)
