"""Campaign spec loading/validation and the interval statistics (no sims)."""

from __future__ import annotations

import json
import math
import random

import pytest

from repro.campaign.spec import (
    CampaignSpec,
    ScenarioSpec,
    build_fault_plan,
    load_spec,
    spec_from_dict,
)
from repro.campaign.stats import (
    bootstrap_interval,
    series_intervals,
    shape_distance,
    t_critical,
    t_interval,
)
from repro.errors import CampaignError
from repro.faults.plan import GILBERT_ELLIOTT, PARTITION, SET_LOSS


def _base_dict(**overrides):
    data = {
        "name": "unit",
        "protocols": ["SRM", "SHARQFEC"],
        "seeds": [1, 2, 3],
        "packets": 32,
    }
    data.update(overrides)
    return data


# ------------------------------------------------------------------ the spec


def test_spec_round_trips_through_dict():
    spec = spec_from_dict(
        _base_dict(
            scenarios=[
                {"name": "baseline"},
                {
                    "name": "bursty",
                    "description": "GE on one edge link",
                    "faults": [
                        {
                            "kind": "gilbert_elliott",
                            "time": 0.0,
                            "a": 8,
                            "b": 11,
                            "p_gb": 0.02,
                            "p_bg": 0.2,
                        }
                    ],
                },
            ]
        )
    )
    rebuilt = spec_from_dict(spec.to_dict())
    assert rebuilt == spec
    assert rebuilt.digest() == spec.digest()
    # JSON-serializable end to end (the campaign index embeds it).
    assert spec_from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


def test_spec_digest_tracks_content():
    a = spec_from_dict(_base_dict())
    b = spec_from_dict(_base_dict(seeds=[1, 2, 4]))
    assert a.digest() != b.digest()


def test_grid_enumeration_order_and_size():
    spec = spec_from_dict(
        _base_dict(scenarios=[{"name": "s0"}, {"name": "s1"}])
    )
    cells = spec.cells()
    assert len(cells) == 2 * 2 * 3  # scenarios × protocols × seeds
    assert [c.scenario for c in cells[:6]] == ["s0"] * 6
    assert cells[0].protocol == "SRM" and cells[0].seed == 1
    assert len({(c.scenario, c.protocol, c.seed) for c in cells}) == len(cells)


@pytest.mark.parametrize(
    "mutation, match",
    [
        ({"name": "Bad Name!"}, "campaign name"),
        ({"protocols": []}, "at least one protocol"),
        ({"protocols": ["SRM", "SRM"]}, "duplicate protocols"),
        ({"protocols": ["SHARQFEC(xx)"]}, "bad protocol"),
        ({"seeds": []}, "at least one seed"),
        ({"seeds": [1, 1]}, "duplicate seeds"),
        ({"seeds": [1, "two"]}, "integers"),
        ({"packets": 0}, "packets"),
        ({"drain": -1.0}, "drain"),
        ({"warmup": -0.5}, "warmup"),
        ({"confidence": 1.5}, "confidence"),
        ({"ci_method": "magic"}, "ci_method"),
        ({"topology": "mesh9"}, "topology"),
        ({"bootstrap_samples": 5}, "bootstrap_samples"),
        ({"mystery_knob": 7}, "unknown spec keys"),
        ({"scenarios": [{"name": "a"}, {"name": "a"}]}, "duplicate scenario"),
        ({"scenarios": [{"name": "No Spaces"}]}, "scenario name"),
        ({"scenarios": [{"faults": []}]}, "with a 'name'"),
        ({"scenarios": [{"name": "a", "typo": 1}]}, "unknown keys"),
        # Two spellings of one variant would share a run slug and its files.
        ({"protocols": ["SHARQFEC", "SHARQFEC()"]}, "bad protocol"),
    ],
)
def test_validation_rejects_bad_specs(mutation, match):
    with pytest.raises(CampaignError, match=match):
        spec_from_dict(_base_dict(**mutation))


def test_missing_required_keys():
    with pytest.raises(CampaignError, match="missing required key 'protocols'"):
        spec_from_dict({"name": "x", "seeds": [1]})


def test_fault_plan_building_maps_kinds_and_sets():
    plan = build_fault_plan(
        "s",
        [
            {"kind": "set_loss", "time": 1.0, "a": 1, "b": 2, "rate": 0.5},
            {"kind": "partition", "time": 2.0, "nodes": [4, 5, 6]},
            {
                "kind": "gilbert_elliott",
                "time": 0.0,
                "a": 1,
                "b": 2,
                "p_gb": 0.1,
                "p_bg": 0.3,
            },
        ],
    )
    kinds = [a.kind for a in plan.actions()]
    assert kinds == [GILBERT_ELLIOTT, SET_LOSS, PARTITION]
    partition = plan.actions()[2]
    assert partition.param_dict()["nodes"] == (4, 5, 6)


@pytest.mark.parametrize(
    "step, match",
    [
        ({"kind": "meteor_strike", "time": 0.0}, "unknown kind"),
        ({"kind": "set_loss", "time": 0.0, "a": 1}, "bad arguments"),
        ({"kind": "set_loss", "time": 0.0, "a": 1, "b": 2, "rate": 2.0}, "outside"),
        ("not-a-table", "expected a table"),
    ],
)
def test_fault_plan_building_rejects_bad_steps(step, match):
    with pytest.raises(CampaignError, match=match):
        build_fault_plan("s", [step])


def test_scenario_fault_plan_none_when_empty():
    assert ScenarioSpec(name="clean").fault_plan() is None


def test_load_spec_json(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(_base_dict()))
    spec = load_spec(str(path))
    assert spec.name == "unit"
    bad = tmp_path / "c.yaml"
    bad.write_text("irrelevant")
    with pytest.raises(CampaignError, match=".toml or .json"):
        load_spec(str(bad))
    broken = tmp_path / "b.json"
    broken.write_text("{nope")
    with pytest.raises(CampaignError, match="bad JSON"):
        load_spec(str(broken))


def test_shipped_example_specs_validate():
    tomllib = pytest.importorskip("tomllib")  # noqa: F841 - gate on py3.11+
    fig14 = load_spec("examples/fig14_campaign.toml")
    assert fig14.name == "fig14"
    assert fig14.protocols == ("SRM", "SHARQFEC(ns,ni,so)")
    assert len(fig14.seeds) >= 3
    assert fig14.scenarios[0].name == "baseline"
    edge = load_spec("examples/highloss_edge_campaign.toml")
    assert edge.name == "highloss-edge"
    assert {s.name for s in edge.scenarios} == {
        "baseline",
        "wifi-burst",
        "wifi-degrading",
    }
    # Every declared fault schedule actually builds.
    for scenario in edge.scenarios:
        scenario.fault_plan()


# ------------------------------------------------------------- the statistics


def test_t_interval_matches_hand_computation():
    iv = t_interval([1.0, 2.0, 3.0], 0.95)
    assert iv.mean == pytest.approx(2.0)
    half = 4.303 * math.sqrt(1.0 / 3.0)  # t(df=2, 95%) * sd/sqrt(n), sd=1
    assert iv.hi - iv.mean == pytest.approx(half, rel=1e-6)
    assert iv.mean - iv.lo == pytest.approx(half, rel=1e-6)


def test_t_interval_degenerate_and_errors():
    iv = t_interval([5.0], 0.95)
    assert (iv.mean, iv.lo, iv.hi) == (5.0, 5.0, 5.0)
    with pytest.raises(CampaignError):
        t_interval([], 0.95)
    with pytest.raises(CampaignError, match="no t table"):
        t_critical(3, 0.42)
    assert t_critical(1000, 0.95) == pytest.approx(1.96)


def test_bootstrap_interval_is_deterministic_and_sane():
    values = [3.0, 4.0, 5.0, 6.0, 10.0]
    a = bootstrap_interval(values, 0.95, samples=500, rng=random.Random(7))
    b = bootstrap_interval(values, 0.95, samples=500, rng=random.Random(7))
    assert a == b
    assert a.lo <= a.mean <= a.hi
    assert min(values) <= a.lo and a.hi <= max(values)


def test_series_intervals_pads_short_series():
    intervals = series_intervals([[2.0, 2.0], [4.0]], 0.95)
    assert len(intervals) == 2
    assert intervals[0].mean == pytest.approx(3.0)
    assert intervals[1].mean == pytest.approx(1.0)  # short series padded with 0


def test_shape_distance_properties():
    assert shape_distance([1, 2, 3], [2, 4, 6]) == pytest.approx(0.0)
    assert shape_distance([1, 0, 0], [0, 0, 1]) == pytest.approx(1.0)
    assert shape_distance([], []) == 0.0
    assert 0.0 < shape_distance([3, 1, 0], [1, 3, 0]) < 1.0
