"""Isolated single-layer kernels, timed as a median of several samples.

Each kernel drives one layer through its public API with nothing else in
the way, so a change to that layer shows here even when an end-to-end
workload dilutes it.  The timer-churn, flood, observed-flood and codec
kernels are ``benchmarks/perf/suite.py``'s own, called with shorter sizes
so that five samples of each fit in a few seconds; only the wire-codec
kernel is new.  ``suite.py`` reports the best of two or three runs (and
times the codec once); here every rate is the median of ``samples``.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List, Tuple

import suite  # benchmarks/perf/suite.py; bench.py puts its directory on sys.path


def median_seconds(fn: Callable[[], object], samples: int) -> Tuple[float, object]:
    """(median wall seconds over ``samples`` calls, last result)."""
    seconds: List[float] = []
    result = None
    for _ in range(samples):
        started = time.perf_counter()
        result = fn()
        seconds.append(time.perf_counter() - started)
    return statistics.median(seconds), result


def codec_rates(samples: int, groups: int) -> Dict[str, float]:
    """Default-codec MB/s (k=16, 1024 B, 4 repairs): median of ``samples`` timings."""
    from repro.fec import default_codec

    codec_cls = type(default_codec(16))
    runs = [suite._codec_workload(codec_cls, 16, 1024, groups, 4) for _ in range(samples)]
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}


# ------------------------------------------------------------- transport


def wire_pdu_mix() -> list:
    """One instance of each of the 13 PDU classes the wire codec carries."""
    from repro.core.pdus import (
        DataPdu, FecPdu, NackPdu, RttChainEntry, SessionEntry, SessionPdu,
        ZcrChallengePdu, ZcrElectPdu, ZcrReconcilePdu, ZcrResponsePdu, ZcrTakeoverPdu,
    )
    from repro.srm.pdus import (
        SrmDataPdu, SrmRepairPdu, SrmRequestPdu, SrmSessionEntry, SrmSessionPdu,
    )

    return [
        DataPdu(0, 3, 1000, seq=7, group_id=0, index=7),
        FecPdu(4, 5, 1000, group_id=2, index=17, new_high_id=19, zone_id=9),
        NackPdu(6, 7, 64, group_id=3, llc=2, highest_seen=15, n_needed=2, zone_id=9,
                rtt_chain=(RttChainEntry(9, 4, 0.052), RttChainEntry(12, 2, -1.0))),
        SessionPdu(8, 9, 220, zone_id=9, timestamp=12.125, zcr_id=4, zcr_parent_rtt=0.034,
                   entries=(SessionEntry(2, 11.5, 0.625, 0.041), SessionEntry(3, 11.75, 0.375, -1.0)),
                   zcr_epoch=2, highest_group=17),
        ZcrChallengePdu(10, 11, 48, zone_id=9, sent_at=3.5),
        ZcrResponsePdu(11, 12, 48, zone_id=9, challenger_id=10, processing_delay=0.002),
        ZcrTakeoverPdu(12, 13, 48, zone_id=9, dist_to_parent=0.025, epoch=3),
        ZcrElectPdu(13, 14, 48, zone_id=9, epoch=4, attempt=1, dist_to_parent=-1.0),
        ZcrReconcilePdu(14, 15, 64, zone_id=9, epoch=5, outstanding=((0, 2), (3, 1), (7, 4))),
        SrmDataPdu(0, 1, 1000, seq=42),
        SrmRequestPdu(3, 1, 64, seq=42),
        SrmRepairPdu(5, 1, 1000, seq=42),
        SrmSessionPdu(7, 2, 128, timestamp=4.25, highest_seq=99,
                      entries=(SrmSessionEntry(1, 3.5, 0.75), SrmSessionEntry(2, 3.625, 0.625))),
    ]


def wire_rates(samples: int, rounds: int) -> Dict[str, float]:
    """Wire-codec PDUs/s over the fixed 13-type mix, median of ``samples``."""
    from repro.transport.wire import decode, encode

    pdus = wire_pdu_mix()
    frames = [encode(pdu) for pdu in pdus]
    for pdu, frame in zip(pdus, frames):
        if decode(frame).describe() != pdu.describe():
            raise AssertionError(f"wire kernel: {type(pdu).__name__} did not round-trip")

    def encode_all() -> None:
        for _ in range(rounds):
            for pdu in pdus:
                encode(pdu)

    def decode_all() -> None:
        for _ in range(rounds):
            for frame in frames:
                decode(frame)

    count = rounds * len(pdus)
    return {
        "encode_pdus_per_s": count / median_seconds(encode_all, samples)[0],
        "decode_pdus_per_s": count / median_seconds(decode_all, samples)[0],
    }


# ---------------------------------------------------------------- all


def run_all(samples: int, toy: bool) -> Dict[str, float]:
    """Every kernel metric, keyed by its ``BENCHMARK.json`` name."""
    horizon, packets, groups, rounds = (0.5, 32, 4, 50) if toy else (8.0, 512, 64, 1000)
    churn_s, churn_events = median_seconds(
        lambda: suite.run_timer_churn(horizon=horizon), samples)
    flood_s, (monitor, _sim) = median_seconds(lambda: suite.run_flood(packets), samples)
    observed_s, (observed, _sim) = median_seconds(
        lambda: suite.run_flood_observed(packets), samples)
    flood_rx = monitor.total(["DATA"])
    if observed.total(["DATA"]) != flood_rx:
        raise AssertionError("observation perturbed the flood kernel")
    codec = codec_rates(samples, groups)
    wire = wire_rates(samples, rounds)
    return {
        "sim.churn_events_per_s": churn_events / churn_s,
        "net.flood_pkts_per_s": flood_rx / flood_s,
        "obs.flood_overhead_ratio": observed_s / flood_s,
        "fec.encode_mb_per_s": codec["encode_mb_per_sec"],
        "fec.decode_mb_per_s": codec["decode_mb_per_sec"],
        "transport.wire_encode_pdus_per_s": wire["encode_pdus_per_s"],
        "transport.wire_decode_pdus_per_s": wire["decode_pdus_per_s"],
    }
