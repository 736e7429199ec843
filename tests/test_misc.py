"""Odds and ends: error hierarchy, PDU descriptions, config corners."""

from __future__ import annotations

import pytest

from repro import __version__
from repro.errors import (
    CodecError,
    ConfigError,
    ProtocolError,
    ReproError,
    RoutingError,
    ScopeError,
    TopologyError,
)
from repro.core.pdus import (
    DataPdu,
    FecPdu,
    NackPdu,
    RttChainEntry,
    SessionEntry,
    SessionPdu,
    ZcrChallengePdu,
    ZcrResponsePdu,
    ZcrTakeoverPdu,
)
from repro.net.packet import Packet
from repro.srm.config import SrmConfig


def test_version_string():
    parts = __version__.split(".")
    assert len(parts) == 3
    assert all(p.isdigit() for p in parts)


def test_error_hierarchy():
    for exc in (ConfigError, TopologyError, RoutingError, ScopeError,
                CodecError, ProtocolError):
        assert issubclass(exc, ReproError)
        assert issubclass(exc, Exception)


def test_packet_validation_and_uid():
    a = Packet("DATA", 0, 1, 100)
    b = Packet("DATA", 0, 1, 100)
    assert a.uid != b.uid
    with pytest.raises(ValueError):
        Packet("DATA", 0, 1, 0)


def test_pdu_descriptions_mention_key_fields():
    assert "seq=7" in DataPdu(0, 1, 1000, 7, 0, 7).describe()
    assert "group_id=3" in FecPdu(0, 1, 1000, 3, 17, 17, 9).describe()
    nack = NackPdu(0, 1, 64, 3, 2, 15, 2, 9)
    assert "n_needed=2" in nack.describe()
    assert nack.loss_exempt
    session = SessionPdu(0, 1, 64, 9, 0.0, 4, 0.1, (), zcr_epoch=2)
    assert "|entries|=0" in session.describe()
    assert session.loss_exempt
    assert "zone_id=9" in ZcrChallengePdu(0, 1, 48, 9, 0.0).describe()
    assert "zone_id=9" in ZcrResponsePdu(0, 1, 48, 9, 2, 0.0).describe()
    take = ZcrTakeoverPdu(0, 1, 48, 9, 0.025, epoch=3)
    assert "epoch=3" in take.describe()
    # Every PDU renders through the one shared field formatter, so a
    # simulation trace and a real-UDP trace of the same exchange diff clean.
    assert DataPdu(0, 1, 1000, 7, 0, 7).describe() == "DATA(seq=7, group_id=0, index=7, payload=-)"
    assert take.describe() == "ZCR_TAKE(zone_id=9, dist_to_parent=0.0250, epoch=3)"


def test_rtt_chain_entry_fields():
    e = RttChainEntry(zone_id=9, zcr_id=4, rtt_to_sender=0.05)
    assert e.zone_id == 9 and e.zcr_id == 4


def test_session_entry_fields():
    e = SessionEntry(peer_id=2, peer_timestamp=1.0, elapsed=0.5, rtt_estimate=0.1)
    assert e.peer_id == 2


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_packets": 0},
    ],
)
def test_srm_config_validation(kwargs):
    with pytest.raises(ConfigError):
        SrmConfig(**kwargs)


def test_srm_config_ipt():
    assert SrmConfig().inter_packet_interval == pytest.approx(0.01)
