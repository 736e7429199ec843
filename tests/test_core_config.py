"""Tests for SHARQFEC configuration and variant naming."""

from __future__ import annotations

import pytest

from repro.core import config as constants
from repro.core.config import C1, C2, D1, D2, PACKET_SIZE, SharqfecConfig
from repro.errors import ConfigError
from repro.scenario import VARIANTS, variant_config


def test_paper_defaults():
    cfg = SharqfecConfig()
    assert cfg.group_size == 16
    assert PACKET_SIZE == 1000
    assert cfg.data_rate_bps == 800e3
    assert cfg.n_packets == 1024
    assert (C1, C2, D1, D2) == (2.0, 2.0, 1.0, 1.0)
    assert cfg.ewma_keep == 0.75


def test_inter_packet_interval():
    cfg = SharqfecConfig()
    # 1000 bytes at 800 kbit/s = 10 ms -> 100 packets/s (§6.2).
    assert cfg.inter_packet_interval == pytest.approx(0.010)


def test_n_groups_and_tail_group():
    cfg = SharqfecConfig(n_packets=100, group_size=16)
    assert cfg.n_groups == 7
    assert cfg.group_k(0) == 16
    assert cfg.group_k(6) == 4  # 100 - 6*16
    with pytest.raises(ConfigError):
        cfg.group_k(7)
    with pytest.raises(ConfigError):
        cfg.group_k(-1)


def test_exact_multiple_has_full_tail():
    cfg = SharqfecConfig(n_packets=64, group_size=16)
    assert cfg.n_groups == 4
    assert cfg.group_k(3) == 16


def test_repair_spacing_is_half_ipt():
    cfg = SharqfecConfig()
    assert cfg.repair_spacing == pytest.approx(0.005)


def test_variant_flags_and_names():
    assert SharqfecConfig().variant_name() == "SHARQFEC"
    assert SharqfecConfig(scoping=False).variant_name() == "SHARQFEC(ns)"
    ecsrm = SharqfecConfig(scoping=False, injection=False, sender_only=True)
    assert ecsrm.variant_name() == "SHARQFEC(ns,ni,so)"
    # Every name a run may carry round-trips through its config.
    for name in VARIANTS[1:]:
        assert variant_config(name, 64).variant_name() == name


def test_constants_keep_the_invariants_the_protocol_relies_on():
    # A live ZCR is only guaranteed to speak once per session interval, so
    # the failure detector must wait longer than its upper bound.
    assert constants.ZCR_LIVENESS_TIMEOUT > constants.SESSION_INTERVAL[1]
    for lo, hi in (
        constants.SESSION_INTERVAL,
        constants.SESSION_FAST_INTERVAL,
        constants.ZCR_CHALLENGE_INTERVAL,
    ):
        assert 0 < lo <= hi
    for keep in (constants.RTT_EWMA_KEEP, SharqfecConfig().ewma_keep):
        assert 0.0 <= keep < 1.0
    for lo, hi in (
        constants.C1_BOUNDS, constants.C2_BOUNDS, constants.D1_BOUNDS, constants.D2_BOUNDS,
    ):
        assert 0 <= lo <= hi


@pytest.mark.parametrize(
    "kwargs",
    [
        {"group_size": 0},
        {"data_rate_bps": 0},
        {"n_packets": 0},
        {"ewma_keep": 1.0},
        {"ewma_keep": -0.1},
        {"group_size": 129},  # no GF(256) code builds a group this large
    ],
)
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ConfigError):
        SharqfecConfig(**kwargs)
