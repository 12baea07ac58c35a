"""End-to-end telemetry: CLI flags, artifact files, and equivalence.

These tests run real (tiny) scenarios through ``python -m repro``'s
``main`` and through ``run_scenario`` with a telemetry config, then
check the three acceptance properties: parseable artifacts, bridged
counters equal to the figures' OpCounters, and zero change to
published values when telemetry is on.
"""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import Scenario
from repro.obs.session import ROUTER_OPS, TelemetryConfig, current_telemetry


def _tiny_scenario(seed: int = 3) -> Scenario:
    return Scenario.paper_topology(1, duration=2.0, seed=seed, scale=0.1)


class TestCliFlags:
    def test_table4_writes_parseable_artifacts(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.jsonl"
        code = main(
            [
                "table4",
                "--duration", "2",
                "--scale", "0.1",
                "--metrics-out", str(metrics_path),
                "--trace-out", str(trace_path),
                "--profile",
                "--sample-interval", "0.5",
            ]
        )
        assert code == 0
        out = capsys.readouterr()
        assert "Table IV" in out.out
        assert "events/sec" in out.err  # layer table went to stderr

        document = json.loads(metrics_path.read_text())
        assert document["runs"]
        run = document["runs"][0]
        assert run["wall_seconds"] > 0
        assert run["virtual_seconds"] > 0
        assert "tactic_router_ops_total" in run["metrics"]
        assert run["profile"]["events"] == run["events_executed"]
        layers = run["profile"]["layers"]
        assert "sim.loop" in layers
        own = sum(row["self_s"] for row in layers.values())
        assert own == pytest.approx(layers["sim.loop"]["total_s"], rel=0.01)
        assert run["samples"], "sampler produced no series"

        lines = trace_path.read_text().splitlines()
        assert lines
        events = set()
        for line in lines:
            record = json.loads(line)
            assert "run" in record and "time" in record
            events.add(record["event"])
        # The new substrate events and the span lifecycle all fired
        # (aggregation-dependent events like pit.aggregate are too rare
        # at this tiny scale to assert on).
        assert {"node.tx.interest", "node.tx.data", "node.rx.interest",
                "span.start", "span.link", "span.end"} <= events

        # The default config was cleared again on the way out.
        assert current_telemetry() is None

    def test_flags_off_means_no_telemetry(self, capsys):
        code = main(["fig7", "--duration", "1", "--scale", "0.1"])
        assert code == 0
        assert current_telemetry() is None


class TestBridgedCounters:
    def test_router_ops_match_figure_counters(self, tmp_path):
        config = TelemetryConfig(metrics_path=str(tmp_path / "m.json"))
        result = run_scenario(_tiny_scenario(), telemetry=config)
        snapshot = result.telemetry.registry.snapshot()
        samples = snapshot["tactic_router_ops_total"]["samples"]

        for edge in (True, False):
            role = "edge" if edge else "core"
            merged = result.metrics.merged_counters(edge=edge)
            totals = {op: 0.0 for op in ROUTER_OPS}
            for sample in samples:
                if sample["labels"]["role"] == role:
                    totals[sample["labels"]["op"]] += sample["value"]
            for op in ROUTER_OPS:
                assert totals[op] == getattr(merged, op), (role, op)

    def test_user_outcomes_match_collector(self, tmp_path):
        config = TelemetryConfig(metrics_path=str(tmp_path / "m.json"))
        result = run_scenario(_tiny_scenario(), telemetry=config)
        snapshot = result.telemetry.registry.snapshot()
        values = {
            (s["labels"]["population"], s["labels"]["kind"]): s["value"]
            for s in snapshot["user_outcomes_total"]["samples"]
        }
        assert values[("clients", "chunks_requested")] == (
            result.metrics.total_requested(False)
        )
        assert values[("attackers", "chunks_received")] == (
            result.metrics.total_received(True)
        )
        latency = snapshot["client_latency_seconds"]["samples"][0]
        client_samples = [
            latency_value
            for user in result.metrics.users.values()
            if not user.is_attacker
            for _, latency_value in user.latency_samples
        ]
        assert latency["count"] == len(client_samples)
        assert latency["sum"] == pytest.approx(sum(client_samples))


class TestZeroBehaviourChange:
    def test_published_values_identical_with_telemetry_on(self, tmp_path):
        plain = run_scenario(_tiny_scenario())
        config = TelemetryConfig(
            metrics_path=str(tmp_path / "m.json"),
            trace_path=str(tmp_path / "t.jsonl"),
            sample_interval=0.25,
            profile=True,
            stream=open(tmp_path / "prof.txt", "w"),
        )
        telemetered = run_scenario(_tiny_scenario(), telemetry=config)
        config.stream.close()

        assert plain.delivery_table_row() == telemetered.delivery_table_row()
        assert plain.mean_latency() == telemetered.mean_latency()
        assert plain.latency_series() == telemetered.latency_series()
        for edge in (True, False):
            a = plain.operation_counts(edge)
            b = telemetered.operation_counts(edge)
            assert a == b

    def test_multi_run_artifacts_accumulate(self, tmp_path):
        config = TelemetryConfig(
            metrics_path=str(tmp_path / "m.json"),
            trace_path=str(tmp_path / "t.jsonl"),
        )
        run_scenario(_tiny_scenario(seed=3), telemetry=config)
        run_scenario(_tiny_scenario(seed=4), telemetry=config)
        document = json.loads((tmp_path / "m.json").read_text())
        assert len(document["runs"]) == 2
        runs = {
            json.loads(line)["run"]
            for line in (tmp_path / "t.jsonl").read_text().splitlines()
        }
        assert runs == {"topo1@0.1"}
