"""End-to-end telemetry: the ``--obs`` rows, their files, and equivalence.

These tests run real (tiny) scenarios through ``python -m repro``'s
``main``, through the engine and through ``run_scenario`` with the
telemetry rows attached, then check the three acceptance properties:
parseable artifacts, bridged counters equal to the figures'
OpCounters, and zero change to published values when telemetry is on.
"""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.exec import ExperimentEngine, ScenarioSpec
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import Scenario
from repro.obs.instruments import INSTRUMENTS, OBS_ENV, OBS_OUT_ENV, make_live, resolve
from repro.obs.metrics import MetricsRegistry
from repro.obs.session import ROUTER_OPS, TelemetrySession

#: The flags the ``telemetry``, ``trace``, ``samples``, ``profile``,
#: ``flame`` and ``heartbeat`` rows replaced.
REMOVED_FLAGS = (
    ("--metrics-out", "m.json"),
    ("--trace-out", "t.jsonl"),
    ("--trace-format", "chrome"),
    ("--sample-interval", "0.5"),
    ("--profile",),
    ("--heartbeat", "1"),
    ("--flame-out", "f.txt"),
    ("--flame-interval", "0.01"),
    ("--progress",),
    ("--engine-events", "e.jsonl"),
    ("--history-dir", "h"),
)


def _tiny_scenario(seed: int = 3) -> Scenario:
    return Scenario.paper_topology(1, duration=2.0, seed=seed, scale=0.1)


class TestCliFlags:
    def test_table4_writes_parseable_artifacts(self, tmp_path, capsys, monkeypatch):
        # main() forwards --obs/--obs-out through the environment;
        # restore it afterwards.
        monkeypatch.setenv(OBS_ENV, "")
        monkeypatch.setenv(OBS_OUT_ENV, "")
        out = tmp_path / "obs"
        code = main(
            [
                "table4",
                "--duration", "2",
                "--scale", "0.1",
                "--obs", "telemetry,trace,profile,samples",
                "--obs-out", str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "Table IV" in captured.out
        assert "events/sec" in captured.err  # layer table went to stderr

        document = json.loads((out / "telemetry.json").read_text())
        assert "exec_runs_total" in document["metrics"]
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
        profile = json.loads((out / "profile.json").read_text())
        assert [r["layers"] for r in profile["runs"]] == [
            r["profile"]["layers"] for r in document["runs"]
        ]

        files = sorted((out / "trace").iterdir())
        assert len(files) == len(document["runs"])
        lines = files[0].read_text().splitlines()
        assert lines
        events = set()
        for line in lines:
            record = json.loads(line)
            assert "time" in record
            events.add(record["event"])
        # The new substrate events and the span lifecycle all fired
        # (aggregation-dependent events like pit.aggregate are too rare
        # at this tiny scale to assert on).
        assert {"node.tx.interest", "node.tx.data", "node.rx.interest",
                "span.start", "span.link", "span.end"} <= events
        chrome = json.loads((out / "trace.json").read_text())
        assert chrome["traceEvents"]

    def test_flags_off_means_no_telemetry(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(OBS_ENV, raising=False)
        code = main(["fig7", "--duration", "1", "--scale", "0.1"])
        assert code == 0
        assert capsys.readouterr().err == ""
        assert list(tmp_path.iterdir()) == []
        for flag in REMOVED_FLAGS:
            with pytest.raises(SystemExit):
                main(["fig7", "--duration", "1", "--scale", "0.1", *flag])
        for name in ("telemetry", "trace", "samples", "profile", "flame", "heartbeat"):
            assert name in INSTRUMENTS


class TestBridgedCounters:
    def test_router_ops_match_figure_counters(self):
        session = TelemetrySession()
        result = run_scenario(_tiny_scenario(), instruments=[session])
        snapshot = session.registry.snapshot()
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

    def test_user_outcomes_match_collector(self):
        session = TelemetrySession()
        result = run_scenario(_tiny_scenario(), instruments=[session])
        snapshot = session.registry.snapshot()
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
        obs = resolve(("telemetry", "trace", "samples", "profile"), str(tmp_path))
        telemetered = run_scenario(
            _tiny_scenario(),
            instruments=make_live(obs),
        )

        assert set(telemetered.instruments) == set(obs.names)
        assert plain.delivery_table_row() == telemetered.delivery_table_row()
        assert plain.mean_latency() == telemetered.mean_latency()
        assert plain.latency_series() == telemetered.latency_series()
        for edge in (True, False):
            a = plain.operation_counts(edge)
            b = telemetered.operation_counts(edge)
            assert a == b

    def test_multi_run_artifacts_accumulate(self, tmp_path):
        specs = [
            ScenarioSpec.make(topology=1, duration=2.0, seed=seed, scale=0.1)
            for seed in (3, 4)
        ]
        engine = ExperimentEngine(
            jobs=1, use_cache=False, registry=MetricsRegistry(),
            obs=("telemetry", "trace"), obs_out=str(tmp_path),
        )
        engine.run_specs(specs)
        document = json.loads((tmp_path / "telemetry.json").read_text())
        assert len(document["runs"]) == 2
        # Same label, different scenarios: one trace file each.
        files = sorted(path.name for path in (tmp_path / "trace").iterdir())
        assert len(files) == 2
        assert all(name.startswith("topo1@0.1-") for name in files)
        chrome = json.loads((tmp_path / "trace.json").read_text())
        assert {e["pid"] for e in chrome["traceEvents"]} == {1, 2}
