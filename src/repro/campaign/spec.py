"""Declarative campaign sweep specifications (ROADMAP item 3).

A campaign is a grid of **scenario × protocol × seed** cells over the
Figure 10 run harness: each scenario names a (possibly empty) declarative
fault schedule — loss models, churn, partitions — and every cell runs
:func:`repro.experiments.common.run_traffic` under it with per-run JSONL
exports.  Specs are pure data: load one from TOML/JSON with
:func:`load_spec`, or build a :class:`CampaignSpec` directly in Python.
Everything is validated eagerly so a bad spec fails with a pointed error
before any simulation starts.

Example (TOML)::

    name = "fig14"
    packets = 128
    seeds = [1, 2, 3]
    protocols = ["SRM", "SHARQFEC(ns,ni,so)"]

    [[scenarios]]
    name = "baseline"

    [[scenarios]]
    name = "edge-burst"
    [[scenarios.faults]]
    kind = "gilbert_elliott"
    time = 0.0
    a = 1
    b = 8
    p_gb = 0.02
    p_bg = 0.25
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import CampaignError, ConfigError, FaultError
from repro.faults.plan import FaultPlan
from repro.scenario import DEFAULT_DRAIN, run_slug, variant_config

#: FaultPlan builder methods a declarative fault step may name.
FAULT_STEP_KINDS = frozenset(
    {
        "link_down",
        "link_up",
        "node_crash",
        "node_restart",
        "set_loss",
        "loss_ramp",
        "partition",
        "heal",
        "partition_flap",
        "gilbert_elliott",
        "clear_loss_model",
        "join",
        "leave",
        "crash_restart",
    }
)

#: Topologies the executor knows how to drive (room for "national" later).
TOPOLOGIES = ("figure10",)

_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9_\-]*$")


def build_fault_plan(name: str, steps: List[Dict[str, object]]) -> FaultPlan:
    """Materialize a declarative fault-step list into a :class:`FaultPlan`.

    Each step is a mapping with a ``kind`` naming a ``FaultPlan`` builder
    method plus that method's keyword arguments; ``nodes`` lists become
    sets.  Raises :class:`CampaignError` with the offending step index on
    any unknown kind, bad argument name, or invalid parameter value.
    """
    plan = FaultPlan(name=name)
    for index, step in enumerate(steps):
        if not isinstance(step, dict):
            raise CampaignError(
                f"scenario {name!r} fault step {index}: expected a table/dict, "
                f"got {type(step).__name__}"
            )
        kind = step.get("kind")
        if kind not in FAULT_STEP_KINDS:
            raise CampaignError(
                f"scenario {name!r} fault step {index}: unknown kind {kind!r}; "
                f"expected one of {sorted(FAULT_STEP_KINDS)}"
            )
        params = {k: v for k, v in step.items() if k != "kind"}
        for key in ("nodes",):
            if key in params and isinstance(params[key], list):
                params[key] = set(params[key])
        try:
            getattr(plan, str(kind))(**params)
        except TypeError as exc:
            raise CampaignError(
                f"scenario {name!r} fault step {index} ({kind}): bad arguments "
                f"({exc})"
            ) from exc
        except FaultError as exc:
            raise CampaignError(
                f"scenario {name!r} fault step {index} ({kind}): {exc}"
            ) from exc
    return plan


@dataclass(frozen=True)
class ScenarioSpec:
    """One named fault/churn environment of the sweep grid."""

    name: str
    description: str = ""
    #: Declarative fault steps (kept raw so specs round-trip losslessly).
    faults: Tuple[Dict[str, object], ...] = ()

    def fault_plan(self) -> Optional[FaultPlan]:
        """The armed-ready plan, or ``None`` for a fault-free scenario."""
        if not self.faults:
            return None
        return build_fault_plan(self.name, list(self.faults))

    def validate(self) -> None:
        if not _NAME_RE.match(self.name):
            raise CampaignError(
                f"scenario name {self.name!r} must match {_NAME_RE.pattern} "
                f"(it becomes a directory name)"
            )
        self.fault_plan()  # raises CampaignError on any bad step


@dataclass(frozen=True)
class RunCell:
    """One grid point: a single simulated run of the campaign."""

    scenario: str
    protocol: str
    seed: int
    packets: int
    drain: float

    def slug(self, fault_plan: Optional[FaultPlan]) -> str:
        """The run's export basename (shared with :func:`run_traffic`)."""
        return run_slug(
            self.protocol, self.packets, self.seed,
            drain=self.drain, fault_plan=fault_plan,
        )


@dataclass(frozen=True)
class CampaignSpec:
    """A fully validated declarative sweep description."""

    name: str
    protocols: Tuple[str, ...]
    seeds: Tuple[int, ...]
    scenarios: Tuple[ScenarioSpec, ...] = (ScenarioSpec(name="baseline"),)
    description: str = ""
    topology: str = "figure10"
    packets: int = 128
    drain: float = DEFAULT_DRAIN
    capture_trace: bool = False
    #: Simulated seconds discarded from the front of every series before
    #: statistics (the report stage's default; overridable at report time).
    warmup: float = 0.0
    confidence: float = 0.95
    ci_method: str = "t"  # "t" | "bootstrap"
    bootstrap_samples: int = 2000

    def validate(self) -> "CampaignSpec":
        """Check every field; returns ``self`` so loaders can chain."""
        if not _NAME_RE.match(self.name):
            raise CampaignError(
                f"campaign name {self.name!r} must match {_NAME_RE.pattern}"
            )
        if self.topology not in TOPOLOGIES:
            raise CampaignError(
                f"unknown topology {self.topology!r}; supported: {TOPOLOGIES}"
            )
        if not self.protocols:
            raise CampaignError("campaign needs at least one protocol")
        for proto in self.protocols:
            if proto != "SRM":
                try:
                    variant_config(proto, self.packets)
                except ConfigError as exc:
                    raise CampaignError(f"bad protocol {proto!r}: {exc}") from exc
        if len(set(self.protocols)) != len(self.protocols):
            raise CampaignError(f"duplicate protocols in {list(self.protocols)}")
        if not self.seeds:
            raise CampaignError("campaign needs at least one seed")
        for seed in self.seeds:
            if not isinstance(seed, int) or isinstance(seed, bool):
                raise CampaignError(f"seeds must be integers, got {seed!r}")
        if len(set(self.seeds)) != len(self.seeds):
            raise CampaignError(f"duplicate seeds in {list(self.seeds)}")
        if not self.scenarios:
            raise CampaignError("campaign needs at least one scenario")
        names = [s.name for s in self.scenarios]
        if len(set(names)) != len(names):
            raise CampaignError(f"duplicate scenario names in {names}")
        for scenario in self.scenarios:
            scenario.validate()
        if self.packets <= 0:
            raise CampaignError(f"packets must be positive, got {self.packets}")
        if self.drain < 0:
            raise CampaignError(f"drain must be >= 0, got {self.drain}")
        if self.warmup < 0:
            raise CampaignError(f"warmup must be >= 0, got {self.warmup}")
        if not 0.0 < self.confidence < 1.0:
            raise CampaignError(
                f"confidence must be in (0, 1), got {self.confidence}"
            )
        if self.ci_method not in ("t", "bootstrap"):
            raise CampaignError(
                f"ci_method must be 't' or 'bootstrap', got {self.ci_method!r}"
            )
        if self.bootstrap_samples < 100:
            raise CampaignError(
                f"bootstrap_samples must be >= 100, got {self.bootstrap_samples}"
            )
        return self

    # ------------------------------------------------------------- the grid

    def cells(self) -> List[RunCell]:
        """Every grid point, in deterministic scenario-major order."""
        return [
            RunCell(
                scenario=scenario.name,
                protocol=protocol,
                seed=seed,
                packets=self.packets,
                drain=self.drain,
            )
            for scenario in self.scenarios
            for protocol in self.protocols
            for seed in self.seeds
        ]

    def scenario(self, name: str) -> ScenarioSpec:
        for scenario in self.scenarios:
            if scenario.name == name:
                return scenario
        raise CampaignError(f"no scenario named {name!r} in campaign {self.name!r}")

    # --------------------------------------------------------- serialization

    def to_dict(self) -> Dict[str, object]:
        """JSON/TOML-shaped rendering that :func:`spec_from_dict` inverts."""
        out = dataclasses.asdict(self)
        out["protocols"] = list(self.protocols)
        out["seeds"] = list(self.seeds)
        out["scenarios"] = [
            {
                "name": s.name,
                **({"description": s.description} if s.description else {}),
                **({"faults": [dict(f) for f in s.faults]} if s.faults else {}),
            }
            for s in self.scenarios
        ]
        return out

    def digest(self) -> str:
        """Stable content hash; the resume guard against spec drift."""
        blob = json.dumps(self.to_dict(), sort_keys=True, default=repr).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def spec_from_dict(data: Dict[str, object], source: str = "<dict>") -> CampaignSpec:
    """Build and validate a :class:`CampaignSpec` from parsed TOML/JSON."""
    if not isinstance(data, dict):
        raise CampaignError(f"{source}: campaign spec must be a table/object")
    known = {f.name for f in dataclasses.fields(CampaignSpec)}
    unknown = set(data) - known
    if unknown:
        raise CampaignError(
            f"{source}: unknown spec keys {sorted(unknown)}; known: {sorted(known)}"
        )
    for required in ("name", "protocols", "seeds"):
        if required not in data:
            raise CampaignError(f"{source}: spec is missing required key {required!r}")
    raw_scenarios = data.get("scenarios", [{"name": "baseline"}])
    if not isinstance(raw_scenarios, list):
        raise CampaignError(f"{source}: scenarios must be an array of tables")
    scenarios = []
    for index, raw in enumerate(raw_scenarios):
        if not isinstance(raw, dict) or "name" not in raw:
            raise CampaignError(
                f"{source}: scenario {index} must be a table with a 'name'"
            )
        extra = set(raw) - {"name", "description", "faults"}
        if extra:
            raise CampaignError(
                f"{source}: scenario {raw.get('name')!r} has unknown keys "
                f"{sorted(extra)}"
            )
        scenarios.append(
            ScenarioSpec(
                name=str(raw["name"]),
                description=str(raw.get("description", "")),
                faults=tuple(raw.get("faults", ()) or ()),
            )
        )
    kwargs: Dict[str, object] = {
        k: v for k, v in data.items() if k in known and k != "scenarios"
    }
    kwargs["protocols"] = tuple(str(p) for p in data["protocols"])
    try:
        kwargs["seeds"] = tuple(data["seeds"])  # type: ignore[arg-type]
    except TypeError:
        raise CampaignError(f"{source}: seeds must be an array of integers") from None
    kwargs["scenarios"] = tuple(scenarios)
    try:
        spec = CampaignSpec(**kwargs)  # type: ignore[arg-type]
    except TypeError as exc:
        raise CampaignError(f"{source}: {exc}") from exc
    try:
        return spec.validate()
    except CampaignError as exc:
        raise CampaignError(f"{source}: {exc}") from exc


def load_spec(path: str) -> CampaignSpec:
    """Load a ``.toml`` or ``.json`` campaign spec file."""
    if path.endswith(".toml"):
        try:
            import tomllib
        except ImportError:  # pragma: no cover - Python < 3.11
            raise CampaignError(
                f"{path}: TOML specs need Python 3.11+ (tomllib); "
                f"use the JSON form on older interpreters"
            ) from None
        with open(path, "rb") as handle:
            try:
                data = tomllib.load(handle)
            except tomllib.TOMLDecodeError as exc:
                raise CampaignError(f"{path}: bad TOML ({exc})") from exc
    elif path.endswith(".json"):
        with open(path) as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise CampaignError(f"{path}: bad JSON ({exc})") from exc
    else:
        raise CampaignError(f"{path}: expected a .toml or .json campaign spec")
    return spec_from_dict(data, source=path)
