"""Chrome trace export: structural validity, nesting, and the CLI path."""

from __future__ import annotations

import json

import pytest

from repro.exec import ExperimentEngine
from repro.experiments.fig5_latency import enumerate_fig5
from repro.experiments.tracelog import read_jsonl
from repro.obs.export import chrome_trace_events, write_chrome_trace
from repro.sim.tracing import TraceRecord


def _traced_fig5(tmp_path):
    """Run a tiny Fig. 5 scenario under the ``trace`` row; return the
    engine's Chrome report and the run's JSONL file."""
    spec = enumerate_fig5(duration=2.0, scale=0.1)[0]
    engine = ExperimentEngine(
        jobs=1, use_cache=False, obs=("trace",), obs_out=str(tmp_path),
    )
    engine.run_specs([spec])
    (path,) = (tmp_path / "trace").iterdir()
    return json.loads((tmp_path / "trace.json").read_text()), path


def _fig5_chrome_doc(tmp_path):
    return _traced_fig5(tmp_path)[0]


class TestChromeTraceStructure:
    def test_fig5_scenario_emits_valid_trace_event_json(self, tmp_path):
        document = _fig5_chrome_doc(tmp_path)
        events = document["traceEvents"]
        assert events, "trace document has no events"
        assert document["displayTimeUnit"] == "ms"
        for event in events:
            assert {"name", "ph", "pid", "tid"} <= set(event)
            assert event["ph"] in ("M", "X", "i")
            if event["ph"] == "X":
                assert event["ts"] >= 0.0 and event["dur"] >= 0.0
            if event["ph"] == "i":
                assert "ts" in event

    def test_one_thread_track_per_node(self, tmp_path):
        events = _fig5_chrome_doc(tmp_path)["traceEvents"]
        threads = {
            e["tid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        names = set(threads.values())
        assert any(name.startswith("edge") for name in names)
        assert any(name.startswith("client") for name in names)
        # tids are unique per node
        assert len(threads) == len(names)

    def test_nested_hop_slices_sum_to_span_latency(self, tmp_path):
        events = _fig5_chrome_doc(tmp_path)["traceEvents"]
        spans = [
            e for e in events
            if e["ph"] == "X" and e["cat"] == "span"
            and e["args"].get("outcome") == "data"
        ]
        hops = [e for e in events if e["ph"] == "X" and e["cat"] == "hop"]
        assert spans and hops
        for span in spans:
            children = [
                h for h in hops if h["args"]["span"] == span["args"]["span"]
            ]
            # Children nest inside the parent slice (same track) ...
            assert all(h["tid"] == span["tid"] for h in children)
            for child in children:
                assert child["ts"] >= span["ts"] - 1e-9
                assert child["ts"] + child["dur"] <= \
                    span["ts"] + span["dur"] + 1e-6
            # ... and together with the derived wait they sum to the
            # span's measured latency (the decompose() invariant).
            covered = sum(h["dur"] for h in children)
            total = covered + span["args"]["wait"] * 1e6
            assert abs(total - span["dur"]) < 1e-3

    def test_substrate_records_become_instants(self, tmp_path):
        events = _fig5_chrome_doc(tmp_path)["traceEvents"]
        instants = {e["name"] for e in events if e["ph"] == "i"}
        assert "node.rx.interest" in instants


class TestDecisionAndNackInstants:
    def test_audit_decision_categorised_with_args(self):
        records = [
            TraceRecord("audit.decision", 0.5,
                        {"node": "edge-0", "role": "edge",
                         "decision": "bf_hit", "outcome": "hit",
                         "label": "correct", "tag": "ab12", "cost": 0.001}),
        ]
        events = chrome_trace_events(records, pid=1, run="unit")
        instant = next(e for e in events if e["ph"] == "i")
        assert instant["cat"] == "decision"
        assert instant["args"]["decision"] == "bf_hit"
        assert instant["args"]["label"] == "correct"
        names = [e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"]
        assert "edge-0" in names  # the decision landed on the node's track

    def test_nack_tx_categorised_with_reason(self):
        records = [
            TraceRecord("node.tx.nack", 0.7,
                        {"node": "edge-0", "reason": "access_path"}),
        ]
        events = chrome_trace_events(records, pid=1, run="unit")
        instant = next(e for e in events if e["ph"] == "i")
        assert instant["cat"] == "nack"
        assert instant["args"]["reason"] == "access_path"

    def test_attached_nack_on_data_categorised(self):
        records = [
            TraceRecord("node.tx.data", 0.9,
                        {"node": "core-0", "nack": "invalid_signature"}),
            TraceRecord("node.tx.data", 1.0, {"node": "core-0", "nack": None}),
        ]
        events = chrome_trace_events(records, pid=1, run="unit")
        instants = [e for e in events if e["ph"] == "i"]
        cats = [e["cat"] for e in instants]
        assert cats == ["nack", "substrate"]
        assert instants[0]["args"]["reason"] == "invalid_signature"


class TestChromeTraceUnits:
    def _records(self):
        return [
            TraceRecord("span.start", 1.0,
                        {"span": 7, "node": "client-0", "content": "/p/c0",
                         "kind": "content"}),
            TraceRecord("span.link", 1.0,
                        {"span": 7, "src": "ap-0", "dst": "edge-0",
                         "queue": 0.01, "tx": 0.02, "prop": 0.03}),
            TraceRecord("span.end", 1.1, {"span": 7, "outcome": "data",
                                          "latency": 0.1}),
            TraceRecord("cs.hit", 1.05, {"node": "edge-0", "content": "/p/c0"}),
        ]

    def test_timestamps_scale_to_microseconds(self):
        events = chrome_trace_events(self._records(), pid=3, run="unit")
        span = next(e for e in events if e.get("cat") == "span" and e["ph"] == "X")
        assert span["ts"] == pytest.approx(1.0e6)
        assert span["dur"] == pytest.approx(0.1e6)   # 0.1 s
        assert span["pid"] == 3
        hops = [e for e in events if e.get("cat") == "hop"]
        assert [h["name"] for h in hops] == ["queue", "tx", "prop"]
        assert sum(h["dur"] for h in hops) == pytest.approx((0.01 + 0.02 + 0.03) * 1e6)

    def test_process_metadata_names_the_run(self):
        events = chrome_trace_events(self._records(), pid=2, run="fig5/t1")
        meta = events[0]
        assert meta["ph"] == "M" and meta["name"] == "process_name"
        assert meta["args"]["name"] == "fig5/t1"

    def test_write_chrome_trace_multi_run(self, tmp_path):
        path = tmp_path / "t.json"
        count = write_chrome_trace(
            str(path), [("a", self._records()), ("b", self._records())]
        )
        document = json.loads(path.read_text())
        assert len(document["traceEvents"]) == count
        assert {e["pid"] for e in document["traceEvents"]} == {1, 2}

    def test_known_formats(self, tmp_path):
        # The trace row writes both forms: the archival JSONL file and
        # the Chrome document rendered from exactly its records.
        document, path = _traced_fig5(tmp_path)
        records = read_jsonl(str(path))
        assert records
        assert document["traceEvents"] == json.loads(
            json.dumps(chrome_trace_events(records, pid=1, run=path.stem.rsplit("-", 1)[0]))
        )


class TestWriterIntegration:
    def test_jsonl_format_unchanged(self, tmp_path):
        _, path = _traced_fig5(tmp_path)
        assert path.suffix == ".jsonl"
        lines = path.read_text().splitlines()
        assert lines
        first = json.loads(lines[0])
        assert "event" in first and "time" in first
