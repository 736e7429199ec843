"""The trace writer against its oracle.

``json.dumps(trace_record_to_dict(r), sort_keys=True, default=str)`` is the
definition of one ``sharqfec.obs.v1`` trace line.  ``export_trace`` assembles
the same bytes from memoised parts (:func:`repro.obs.export._trace_line_formatter`);
these tests hold it to the definition, record by record and over a whole
run, and pin the work the memo saves.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs.export as export
import repro.scenario as scenario
from repro.analysis.obsload import monitor_from_export
from repro.experiments.common import ObservabilityOptions, run_traffic
from repro.net.packet import Packet
from repro.obs.export import export_trace, trace_record_to_dict
from repro.sim.trace import TraceRecord
from tests.test_transport_wire import pdu_strategy


def oracle_line(record: TraceRecord) -> str:
    return json.dumps(trace_record_to_dict(record), sort_keys=True, default=str) + "\n"


# ------------------------------------------------------------------ per line

json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
dict_details = st.dictionaries(
    st.text(max_size=8),
    st.recursive(
        json_scalars,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=6,
    ),
    max_size=4,
)
details = st.one_of(
    pdu_strategy,
    dict_details,
    st.text(),
    st.none(),
    st.builds(object),
    st.integers(),
    st.floats(),
)
times = st.floats() | st.integers(-(10**6), 10**6) | st.booleans()
nodes = st.just(-1) | st.integers() | st.booleans()
categories = st.sampled_from(["pkt.recv", "sharqfec.nack", "fault.link_down"]) | st.text()


@settings(max_examples=300, deadline=None)
@given(
    st.lists(details, min_size=1, max_size=4),
    st.lists(st.tuples(times, categories, nodes, st.integers(0, 3)), max_size=12),
)
def test_fast_line_equals_the_oracle(pool, shapes):
    # Few details, many records: the same packet recurs as it does in a flood.
    line = export._trace_line_formatter()
    for time, category, node, pick in shapes:
        record = TraceRecord(time, category, node, pool[pick % len(pool)])
        assert line(record) == oracle_line(record)


# ----------------------------------------------------------------- whole run


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """``run_traffic("SHARQFEC", 64, seed=1)`` exported, with what it was given.

    The batch files are the run's own; ``records`` and ``manifest`` are the
    arguments its ``export_trace`` call received and ``summaries`` the
    number of ``summarize_detail`` calls that export made.
    """
    root = tmp_path_factory.mktemp("serializer")
    seen = {}
    real_export, real_summarize = scenario.export_trace, export.summarize_detail

    def counting_summarize(detail):
        seen["summaries"] += 1
        return real_summarize(detail)

    def spying_export(path, manifest, records):
        seen.update(path=path, manifest=manifest, records=list(records), summaries=0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(export, "summarize_detail", counting_summarize)
            return real_export(path, manifest, seen["records"])

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenario, "export_trace", spying_export)
        run_traffic(
            "SHARQFEC",
            n_packets=64,
            seed=1,
            obs=ObservabilityOptions(metrics_dir=str(root), trace_dir=str(root)),
        )
    (metrics,) = [n for n in os.listdir(root) if n.endswith(".metrics.jsonl")]
    seen["metrics"] = os.path.join(root, metrics)
    return seen


def test_batch_streaming_and_oracle_write_the_same_bytes(run):
    with open(run["path"], "rb") as handle:
        batch = handle.read()
    assert len(run["records"]) > 10_000
    oracle = json.dumps(run["manifest"], sort_keys=True, default=str) + "\n"
    oracle += "".join(map(oracle_line, run["records"]))
    assert batch == oracle.encode()


def test_summarize_detail_runs_once_per_distinct_packet(run):
    packets = {r.detail.uid for r in run["records"] if isinstance(r.detail, Packet)}
    others = sum(1 for r in run["records"] if not isinstance(r.detail, Packet))
    assert run["summaries"] == len(packets) + others
    # The saving is the point: a multicast's receives share one packet.
    assert run["summaries"] * 4 < len(run["records"])


def test_export_trace_accepts_a_generator(tmp_path):
    records = [TraceRecord(0.5, "pkt.send", 2, Packet("DATA", 2, 1, 64)) for _ in range(3)]
    path = export_trace(str(tmp_path / "t.jsonl"), {"record": "manifest"}, iter(records))
    with open(path) as handle:
        assert handle.read() == '{"record": "manifest"}\n' + "".join(map(oracle_line, records))


def test_mean_series_equals_the_per_node_path_on_a_reloaded_export(run):
    monitor = monitor_from_export(run["metrics"])
    nodes = monitor.nodes_seen()
    assert len(nodes) > 50
    for kinds, t_end in ((["DATA", "FEC"], None), (["NACK"], 12.0), (["SESSION"], 0.0)):
        for chosen in (nodes, nodes[:1], nodes[:3] + nodes[:2]):
            per_node = [monitor.series(kinds, node, t_end) for node in chosen]
            length = max(len(s) for s in per_node)
            expected = [
                sum(s[i] for s in per_node if i < len(s)) / float(len(chosen))
                for i in range(length)
            ]
            assert monitor.mean_series(kinds, chosen, t_end) == expected
    assert monitor.mean_series(["DATA"], []) == []
